"""Test-only oracles: matrix forms of the group and graph quantities that
the library computes in closed form, an agent's neighbors by a scan of
every edge, which `Graph.adjacency` is checked against, the symbolic
Lie-derivative search and the per-sample Gramian loop that the
observability closed forms replace, the scalar per-agent filter and
one-step stepper that the batched engine is checked against, the filter
phase run bucket by bucket, which the engine's once-per-step elementwise
work is checked against, the stiffness scattered to agents by two
`np.add.at`, which the engine's one `np.bincount` is checked against, and
the run loop that extracts metrics one step at a time, which `run`'s
block-wise extraction is checked against, and the steady rigid motion
that Algorithm 1 settles into under exact estimates, which the engine's
final window is checked against."""

from dataclasses import replace
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import fsolve

from formloc.controller import MismatchConfig, mismatch_control
from formloc.estimator import (
    EstimatorState,
    NoiseConfig,
    SingularUpdateError,
    _constants,
    _innovations,
    _predict_degree,
    _update_degree,
)
from formloc.lie_group import (
    AlgebraElement,
    GroupElement,
    _quarter_rotations,
    rotation,
    step_body_velocity,
    step_jacobian,
    wrap_angle,
)
from formloc.network import DesiredDistances, Graph, edge_offsets
from formloc.observability import GramianReport, observation, observation_jacobian
from formloc.scenario import MetricsSeries, ScenarioConfig
from formloc.sim import (
    DivergenceError,
    WorldState,
    _divergence,
    _layout,
    _move,
    _sense,
    _vector_norms,
    edge_labels,
    init_world,
)


def left_invariant_basis(q: GroupElement) -> np.ndarray:
    """Coordinate expressions of the left-invariant frame at q, as columns.

    Columns 2k, 2k+1 are the two translational fields of neighbor k
    (heading-aligned and its quarter-turn); the last column is d/dtheta.
    The result is block-diag(R(theta), ..., R(theta), 1), so it maps body
    velocities (v, w) to coordinate velocities (dp/dt, dtheta/dt).
    """
    n = q.n
    basis = np.zeros((2 * n + 1, 2 * n + 1))
    basis[: 2 * n, : 2 * n] = np.kron(np.eye(n), rotation(q.theta))
    basis[2 * n, 2 * n] = 1.0
    return basis


def embed(q: GroupElement) -> np.ndarray:
    """Homogeneous-matrix embedding: n diagonal copies of R(theta), p in the
    last column, 1 in the corner.  Group products become matrix products."""
    n = q.n
    m = np.zeros((2 * n + 1, 2 * n + 1))
    m[: 2 * n, : 2 * n] = np.kron(np.eye(n), rotation(q.theta))
    m[: 2 * n, 2 * n] = q.p
    m[2 * n, 2 * n] = 1.0
    return m


def embed_algebra(xi: AlgebraElement) -> np.ndarray:
    """Matrix form of a body velocity; its matrix exponential embeds exp(xi)."""
    n = xi.n
    j = np.array([[0.0, -xi.w], [xi.w, 0.0]])
    m = np.zeros((2 * n + 1, 2 * n + 1))
    m[: 2 * n, : 2 * n] = np.kron(np.eye(n), j)
    m[: 2 * n, 2 * n] = xi.v
    return m


def neighbors(graph: Graph, i: int) -> frozenset:
    """Agents sharing an edge with agent i, from a scan of every edge; the
    oracle of `Graph.adjacency`."""
    if not (0 <= i < graph.agent_count):
        raise ValueError(f"agent {i} outside 0..{graph.agent_count - 1}")
    out = set()
    for t, h in graph.edges:
        if t == i:
            out.add(h)
        elif h == i:
            out.add(t)
    return frozenset(out)


def incidence_matrix(graph: Graph) -> np.ndarray:
    """Agents-by-edges incidence matrix: +1 at the tail, -1 at the head."""
    b = np.zeros((graph.agent_count, graph.edge_count))
    for k, (t, h) in enumerate(graph.edges):
        b[t, k] = 1.0
        b[h, k] = -1.0
    return b


def relative_position_stack(graph: Graph, r: np.ndarray) -> np.ndarray:
    """Stacked relative positions: first half r_tail - r_head per edge, second
    half its negation (both edge orientations)."""
    z1 = edge_offsets(graph, r).ravel()
    return np.concatenate([z1, -z1])


# ------------------------------------------------------------ observability


# Derivatives along the left-invariant frame keep the outputs inside the
# finite function family [1, theta, h_1..h_n, u_1..u_n, s_1..s_n], where
# u_k = x_k cos(theta) + y_k sin(theta) and s_k = -x_k sin(theta) + y_k cos(theta)
# are the derivatives of h_k along neighbor k's two translational fields.
# A function is a coefficient vector over that basis, so iterated Lie
# derivatives reduce to sparse linear maps and stay exact at any depth.


def _derivative_ops(n: int) -> list:
    dim = 2 + 3 * n
    ops = []
    for j in range(n):  # heading-aligned translational fields, then quarter-turns
        d = np.zeros((dim, dim))
        d[2 + n + j, 2 + j] = 1.0  # h_j -> u_j
        d[0, 2 + n + j] = 1.0      # u_j -> 1
        ops.append(d)
    for j in range(n):
        d = np.zeros((dim, dim))
        d[2 + 2 * n + j, 2 + j] = 1.0  # h_j -> s_j
        d[0, 2 + 2 * n + j] = 1.0      # s_j -> 1
        ops.append(d)
    d = np.zeros((dim, dim))  # heading field
    d[0, 1] = 1.0
    for k in range(n):
        d[2 + 2 * n + k, 2 + n + k] = 1.0   # u_k -> s_k
        d[2 + n + k, 2 + 2 * n + k] = -1.0  # s_k -> -u_k
    ops.append(d)
    return ops


def _differential(coeffs: np.ndarray, q: GroupElement) -> np.ndarray:
    n = q.n
    c, s = np.cos(q.theta), np.sin(q.theta)
    row = np.zeros(2 * n + 1)
    row[2 * n] = coeffs[1]
    for k in range(n):
        x, y = q.offset(k)
        ch = coeffs[2 + k]
        cu = coeffs[2 + n + k]
        cs = coeffs[2 + 2 * n + k]
        row[2 * k] += ch * x + cu * c - cs * s
        row[2 * k + 1] += ch * y + cu * s + cs * c
        row[2 * n] += cu * (-x * s + y * c) + cs * (-x * c - y * s)
    return row


def symbolic_codistribution(q: GroupElement, depth: int = 1) -> np.ndarray:
    """Breadth-first search of iterated Lie derivatives up to `depth`:
    differentials of the outputs, then of each new non-constant derivative
    in (field, function) order; constants and exact repeats are dropped."""
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    n = q.n
    dim = 2 + 3 * n
    ops = _derivative_ops(n)

    funcs = []
    for k in range(n):  # generation 0: the outputs themselves
        c = np.zeros(dim)
        c[2 + k] = 1.0
        funcs.append(c)
    c = np.zeros(dim)
    c[1] = 1.0
    funcs.append(c)

    seen = {f.tobytes() for f in funcs}
    frontier = list(funcs)
    for _ in range(depth):
        nxt = []
        for op in ops:
            for f in frontier:
                g = op @ f
                # constants (and zero) have identically zero differentials
                # and no further derivatives
                if not g[1:].any():
                    continue
                key = g.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                nxt.append(g)
        funcs.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return np.array([_differential(f, q) for f in funcs])


def trajectory_rows(samples) -> np.ndarray:
    """(GroupElement, AlgebraElement) samples as the (T, 4n+2) rows that
    `empirical_gramian` reads: theta, p, w and v of each sample."""
    return np.array([np.concatenate(([q.theta], q.p, [xi.w], xi.v)) for q, xi in samples])


def sequential_gramian(trajectory, dt: float, rank_tol: float = 1e-8,
                       block_tol: float = 1e-8) -> GramianReport:
    """Empirical Gramian by chaining Phi = step_jacobian @ Phi sample after
    sample over (GroupElement, AlgebraElement) pairs."""
    samples = list(trajectory)
    if len(samples) < 2:
        raise ValueError(f"need at least two trajectory samples, got {len(samples)}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = samples[0][0].n
    dim = 2 * n + 1
    phi = np.eye(dim)
    gram = np.zeros((dim, dim))
    for q, xi in samples:
        if q.n != n or xi.n != n:
            raise ValueError("inconsistent neighbor counts along the trajectory")
        hphi = observation_jacobian(q) @ phi
        gram += hphi.T @ hphi * dt
        phi = step_jacobian(q.theta, xi, dt) @ phi
    gram = 0.5 * (gram + gram.T)

    eig = np.linalg.eigvalsh(gram)
    top = eig[-1]
    rank = 0 if top <= 0.0 else int(np.sum(eig > rank_tol * top))

    floor = block_tol * np.trace(gram) / dim
    deficient = []
    for k in range(n):
        block = gram[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
        if np.linalg.eigvalsh(block)[0] < floor:
            deficient.append(k)
    return GramianReport(gramian=gram, rank=rank, eigenvalues=eig[::-1],
                         deficient_neighbor_blocks=tuple(deficient),
                         observable=rank == dim and not deficient)


# ------------------------------------------------- scalar filter, per agent


def _trusted_state(mean: GroupElement, cov: np.ndarray) -> EstimatorState:
    # for covariances computed here: the same symmetrize-and-freeze as
    # EstimatorState.__post_init__, without the re-validation
    state = object.__new__(EstimatorState)
    sym = 0.5 * (cov + cov.T)
    sym.setflags(write=False)
    state.mean = mean
    state.covariance = sym
    return state


def predict(state: EstimatorState, xi: AlgebraElement, dt: float,
            noise: NoiseConfig) -> EstimatorState:
    """Propagate one filter's mean and covariance through one sampling interval.

    The mean follows the exact group flow of xi; the covariance advances as
    F P F^T + dt * diag(PSDs) with F the discrete linearization at the
    current mean.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = state.mean.n
    if xi.n != n:
        raise ValueError(f"velocity tracks {xi.n} neighbors, state tracks {n}")
    mean = step_body_velocity(state.mean, xi, dt)
    f = step_jacobian(state.mean.theta, xi, dt)
    qd = dt * np.concatenate([
        np.full(2 * n, noise.process_position_psd),
        [noise.process_heading_psd],
    ])
    cov = f @ state.covariance @ f.T + np.diag(qd)
    return _trusted_state(mean, cov)


def update(state: EstimatorState, y, noise: NoiseConfig) -> EstimatorState:
    """Fuse one measurement vector (n half squared distances, then heading).

    Uses the Joseph-form covariance update and re-symmetrizes, so the
    covariance stays positive semidefinite for any gain.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    n = state.mean.n
    if y.size != n + 1:
        raise ValueError(f"expected {n + 1} measurements, got {y.size}")
    p_cov = state.covariance
    h = observation_jacobian(state.mean)
    rdiag = np.concatenate([np.full(n, noise.meas_distance_var), [noise.meas_heading_var]])
    s = h @ p_cov @ h.T + np.diag(rdiag)
    if not np.all(np.isfinite(s)):
        raise SingularUpdateError("innovation covariance is not finite")
    try:
        gain = np.linalg.solve(s, h @ p_cov).T
    except np.linalg.LinAlgError as exc:
        raise SingularUpdateError(f"innovation covariance not invertible: {exc}") from exc

    innovation = y - observation(state.mean)
    innovation[-1] = wrap_angle(innovation[-1])
    delta = gain @ innovation
    mean = GroupElement(state.mean.p + delta[:-1], state.mean.theta + delta[-1])

    ikh = np.eye(2 * n + 1) - gain @ h
    cov = ikh @ p_cov @ ikh.T + gain @ np.diag(rdiag) @ gain.T
    return _trusted_state(mean, cov)


def initialize(truth: GroupElement, offset_bound: float, seed,
               initial_var: float | None = None, heading_var: float | None = None,
               noise: NoiseConfig | None = None) -> EstimatorState:
    """Seed a filter near the true configuration.

    Each position coordinate is offset by an independent uniform draw from
    [-offset_bound, offset_bound]; the heading starts at its true (measured)
    value.  The position variance defaults to offset_bound^2 / 3, the
    variance of that draw; the heading variance defaults to the heading
    measurement variance when a NoiseConfig is supplied.  `seed` may be an
    integer or an existing numpy Generator.
    """
    if offset_bound < 0:
        raise ValueError(f"offset_bound must be non-negative, got {offset_bound}")
    if initial_var is not None and initial_var <= 0:
        raise ValueError(f"initial_var must be positive, got {initial_var}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = truth.n
    offsets = rng.uniform(-offset_bound, offset_bound, size=2 * n)
    var = initial_var if initial_var is not None else offset_bound ** 2 / 3.0
    if heading_var is not None:
        hvar = heading_var
    elif noise is not None:
        hvar = noise.meas_heading_var
    else:
        hvar = var
    cov = np.diag(np.concatenate([np.full(2 * n, var), [hvar]]))
    return EstimatorState(GroupElement(truth.p + offsets, truth.theta), cov)


# ------------------------------------------------------------------ one step


def bank_of(config: ScenarioConfig, *seeds) -> dict:
    """Stack per-agent filters in bank order, as the `WorldState` fields
    config, layout, offsets, headings and covariances of a world of config:
    each argument after the config is one seed's filters in agent order, and
    the seeds come in that order."""
    layout = _layout(config)
    order = [i for b in layout.buckets for i in b.agents]
    return dict(
        config=config,
        layout=layout,
        offsets=np.array([np.concatenate([f[i].mean.p for i in order]).reshape(-1, 2)
                          for f in seeds]),
        headings=np.array([[f[i].mean.theta for i in order] for f in seeds]),
        covariances=tuple(np.array([[f[i].covariance for i in b.agents] for f in seeds])
                          for b in layout.buckets),
    )


def estimate_of(world: WorldState, graph: Graph, i: int, j: int) -> np.ndarray:
    """Agent i's current estimate of r_i - r_j (its filter tracks r_j - r_i),
    in the world's first seed."""
    layout = world.layout
    return -world.offsets[0, np.flatnonzero((layout.trackers == i) & (layout.nbrs == j))[0]]


def step(world: WorldState) -> WorldState:
    """Advance every seed's closed loop by one sampling interval with the
    engine's phases, under the world's config; DivergenceError if any seed
    diverges."""
    world, diverged = _move(world)
    if diverged.any():
        raise _divergence(world.t, world.events[np.flatnonzero(diverged)[0]])
    return _sense(world)


def stacked_update(p, theta, cov, y, noise):
    """One update of filters (..., 2n) from measurements (..., n+1), composed
    of the per-row and per-degree parts: the updated (p, theta, cov) and the
    refused filters by index tuple."""
    n = p.shape[-1] // 2
    ranges, heading = _innovations(p.reshape(p.shape[:-1] + (n, 2)), theta, y[..., :n], y[..., n])
    # any dt: the update reads no Q
    delta, cov, errors = _update_degree(p, cov, np.concatenate([ranges, heading[..., None]], -1),
                                        _constants(n, noise, 0.0))
    return p + delta[..., :-1], theta + delta[..., -1], cov, errors


def bucket_sense(world: WorldState) -> WorldState:
    """`sim._sense` as one predict and one update per degree bucket, each
    with its own rotations, innovations and mean increments: the engine's
    filter phase before its elementwise work ran once over all buckets.
    Refused updates are logged in agent order."""
    config = world.config
    if not config.estimator_enabled:
        return world
    noise = config.noise
    layout = _layout(config)
    seeds = len(world.r)
    # velocities and measurements of every seed and slot at once, then
    # sliced per bucket; the true heading is 0, so its measurement is noise
    rel_world = world.v[:, layout.nbrs] - world.v[:, layout.trackers]
    diffs = world.r[:, layout.nbrs] - world.r[:, layout.trackers]
    ranges = 0.5 * (diffs ** 2).sum(axis=2)
    heading_meas = np.zeros((seeds, config.graph.agent_count))
    if config.measurement_noise:
        draws = np.array([rng.standard_normal(layout.draw_count) for rng in world.rngs])
        ranges += np.sqrt(noise.meas_distance_var) * draws[:, layout.range_draws]
        heading_meas += np.sqrt(noise.meas_heading_var) * draws[:, layout.heading_draws]

    means, headings, covariances = [], [], []
    skipped = [[] for _ in range(seeds)]
    for b, bucket in enumerate(layout.buckets):
        a_count, n = len(bucket.agents), bucket.degree
        rows = seeds * a_count
        # means, headings and covariances, their rows seed after seed
        p, theta, cov = [x.reshape((rows,) + x.shape[2:]) for x in world.bucket(b)]
        rot = rotation(theta)
        v_body = rel_world[:, bucket.slots].reshape(rows, n, 2) @ rot
        p, cov = _predict_degree(p, cov, v_body.reshape(rows, 2 * n), rot,
                                 _quarter_rotations(theta), config.dt,
                                 _constants(n, noise, config.dt))
        y = np.concatenate([ranges[:, bucket.slots].reshape(rows, n),
                            heading_meas[:, bucket.rows].reshape(rows, 1)], axis=1)
        p, theta, cov, errors = stacked_update(p, theta, cov, y, noise)
        for (row,), exc in errors.items():
            seed, member = divmod(row, a_count)
            skipped[seed].append((int(bucket.agents[member]), exc))
        means.append(p)
        headings.append(theta)
        covariances.append(cov)

    events = world.events
    if any(skipped):
        events = [ev + tuple(f"t={world.t:.6g} agent={i + 1} update skipped: {exc}"
                             for i, exc in sorted(refused, key=lambda item: item[0]))
                  for ev, refused in zip(events, skipped)]
    return replace(world,
                   offsets=np.concatenate([p.reshape(seeds, -1, 2) for p in means], axis=1),
                   headings=np.concatenate([theta.reshape(seeds, -1) for theta in headings], axis=1),
                   covariances=tuple(cov.reshape((seeds, -1) + cov.shape[1:]) for cov in covariances),
                   events=events)


def stiffness(world: WorldState, law: tuple) -> np.ndarray:
    """`sim._stiffness` with np.linalg.norm for |z| and one np.add.at per
    edge end: the per-agent sums of tails, then heads, in edge order."""
    config = world.config
    tails, heads = config.graph.ends
    z1 = world.r[:, tails] - world.r[:, heads]
    zn = np.linalg.norm(z1, axis=2)
    e = np.abs((z1 ** 2).sum(axis=2) - config.distances.values ** 2)
    tail_dirs, head_dirs = law
    if tail_dirs is None:
        dirs = zn
    else:
        dirs = np.maximum(_vector_norms(tail_dirs), _vector_norms(head_dirs))
    a = 0.0 if config.mismatch is None else config.mismatch.values
    per_edge = 2.0 * dirs * zn + e + np.abs(a)
    per_agent = np.zeros(world.r.shape[:2])
    np.add.at(per_agent, (slice(None), tails), per_edge)
    np.add.at(per_agent, (slice(None), heads), per_edge)
    return per_agent.max(axis=1)


def per_step_run(config: ScenarioConfig, seeds=None):
    """`run` with every metric extracted right after its step, for the
    seeds still in the batch; same arguments and results."""
    single = seeds is None
    seeds = (config.seed,) if single else tuple(seeds)
    if not seeds:
        return ()
    steps, graph, dt = config.steps, config.graph, config.dt
    tails, heads = graph.ends
    dv2 = config.distances.values ** 2
    world = init_world(config, seeds)

    count, m = len(seeds), graph.edge_count
    distances = np.empty((count, steps, m))
    est_errors = np.empty((count, steps, m))
    dist_errors_arr = np.empty((count, steps, m))
    centroid_speed = np.empty((count, steps))
    angular_rate = np.empty((count, steps))
    max_speed = np.empty((count, steps))
    results = [None] * count
    live = np.arange(count)
    rows = slice(None)

    for k in range(steps):
        world, diverged = _move(world)
        if diverged.any():
            for row in np.flatnonzero(diverged):
                results[live[row]] = _divergence(world.t, world.events[row])
            live, world = live[~diverged], world.take(~diverged)
            rows = live
            if not live.size:
                break
        world = _sense(world)
        r, v = world.r, world.v
        v_mean = v.mean(axis=1)
        z1 = r[:, tails] - r[:, heads]
        distances[rows, k] = np.linalg.norm(z1, axis=2)
        dist_errors_arr[rows, k] = (z1 ** 2).sum(axis=2) - dv2
        offsets, layout = world.offsets, world.layout
        est_tail, est_head = -offsets[:, layout.tail_slots], -offsets[:, layout.head_slots]
        est_errors[rows, k] = np.maximum(_vector_norms(est_tail - z1), _vector_norms(est_head + z1))
        centroid_speed[rows, k] = _vector_norms(v_mean)
        max_speed[rows, k] = np.linalg.norm(v, axis=2).max(axis=1)
        centered = r - r.mean(axis=1, keepdims=True)
        v_rel = v - v_mean[:, None]
        denom = (centered ** 2).sum(axis=(1, 2))
        spin = (centered[..., 0] * v_rel[..., 1] - centered[..., 1] * v_rel[..., 0]).sum(axis=1)
        angular_rate[rows, k] = np.divide(spin, denom, out=np.zeros_like(spin), where=denom > 0)

    t = np.arange(1, steps + 1) * dt
    labels = edge_labels(graph)
    for row, b in enumerate(live):
        results[b] = MetricsSeries(t=t, distances=distances[b], est_errors=est_errors[b],
                                   dist_errors=dist_errors_arr[b], centroid_speed=centroid_speed[b],
                                   angular_rate=angular_rate[b], max_speed=max_speed[b],
                                   desired=config.distances.values, edge_labels=labels,
                                   events=world.events[row])
    if not single:
        return tuple(results)
    if isinstance(results[0], DivergenceError):
        raise results[0]
    return results[0]


class SteadyMotion(NamedTuple):
    """A formation moving rigidly: per edge its length |z_k| and deviation
    |z_k| - d_k, its centroid speed |v| and its angular rate w
    (counter-clockwise positive), and `sensitivity`, the (edges + 2, 2 edges)
    first-order response of (deviations, speed, rate) to an error in the
    estimates the law steers along, edge by edge, (x, y) for each."""

    lengths: np.ndarray
    deviations: np.ndarray
    speed: float
    rate: float
    sensitivity: np.ndarray


SETTLE = 30.0  # seconds of the law's own flow before the steady-motion solve


def steady_motion(graph: Graph, distances: DesiredDistances, mismatch: MismatchConfig,
                  near) -> SteadyMotion:
    """The steady rigid motion of Algorithm 1 under exact estimates.

    Its shape s (centered), velocity v and rate w solve, for every agent,
    mismatch_control(s)_i = v + w J s_i, with e_k = |z_k|^2 - d_k^2: the
    biases turn the desired shape into a slightly distorted one in steady
    rotation.  A graph's distances have more than one realization, so the
    solve starts where the law's own flow from the positions `near` is after
    SETTLE seconds (scipy's LSODA on the true offsets), and fsolve pins
    the steady motion there, with the centroid at 0 and the first edge's
    direction held.  It shares `controller._control_law` with the engine,
    through `mismatch_control`, and nothing else."""
    n, m = graph.agent_count, graph.edge_count
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])

    def velocities(s, est_error=0.0):
        z = edge_offsets(graph, s)
        e = (z ** 2).sum(axis=1) - distances.values ** 2
        return mismatch_control(graph, z + est_error, e, mismatch).reshape(n, 2)

    flow = solve_ivp(lambda t, x: velocities(x.reshape(n, 2)).ravel(), (0.0, SETTLE),
                     np.asarray(near, dtype=float).ravel(), method="LSODA", rtol=1e-10, atol=1e-10)
    s0 = flow.y[:, -1].reshape(n, 2)
    s0 = s0 - s0.mean(axis=0)
    u0 = velocities(s0)
    v0 = u0.mean(axis=0)
    w0 = np.sum(s0 * ((u0 - v0) @ quarter)) / np.sum(s0 ** 2)  # sum of s x (u - v), over sum |s|^2
    tail, head = graph.edges[0]
    held = s0[tail] - s0[head]

    def residual(x, est_error=0.0):
        s, v, w = x[: 2 * n].reshape(n, 2), x[2 * n : 2 * n + 2], x[-1]
        first = s[tail] - s[head]
        return np.concatenate([(velocities(s, est_error) - v - w * s @ quarter.T).ravel(),
                               s.sum(axis=0), [first[0] * held[1] - first[1] * held[0]]])

    def outputs(x):
        lengths = np.linalg.norm(edge_offsets(graph, x[: 2 * n].reshape(n, 2)), axis=1)
        return np.concatenate([lengths - distances.values, [np.hypot(*x[2 * n : 2 * n + 2]), x[-1]]])

    x, _, status, message = fsolve(residual, np.concatenate([s0.ravel(), v0, [w0]]),
                                   xtol=1e-13, full_output=True)
    if status != 1:
        raise RuntimeError(f"steady motion not found: {message}")
    # implicit function theorem: dx/d(error) = -F_x^-1 F_error; F is affine in the error
    h, basis = 1e-6, np.eye(x.size)
    f_x = np.column_stack([(residual(x + h * c) - residual(x - h * c)) / (2 * h) for c in basis])
    f_err = np.column_stack([residual(x, c.reshape(m, 2)) - residual(x) for c in np.eye(2 * m)])
    out_x = np.column_stack([(outputs(x + h * c) - outputs(x - h * c)) / (2 * h) for c in basis])
    out = outputs(x)
    return SteadyMotion(lengths=out[:m] + distances.values, deviations=out[:m], speed=out[m],
                        rate=out[m + 1], sensitivity=-out_x @ np.linalg.solve(f_x, f_err))
