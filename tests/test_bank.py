"""Filter bank: the stacked per-degree engine step against the scalar oracle.

`reference_step` is the engine step written as one scalar `predict` and
`update` per agent, reading estimates one edge at a time and driving the
public control laws, which is how the engine worked before its filters were
stacked into degree buckets.  The bank must reproduce it on random
minimally rigid graphs with mixed degrees, refuse updates agent by agent,
and keep the measurement-noise draws in agent order.  `oracles.bucket_sense`
is the filter phase run bucket by bucket; the engine, which runs its
elementwise work once over all buckets, must match it bit for bit.
"""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from formloc.controller import (
    MismatchConfig,
    estimated_control,
    ideal_control,
    mismatch_control,
)
from formloc.estimator import (
    EstimatorState,
    NoiseConfig,
    SingularUpdateError,
    _predict_degree,
    _quarter_rotations,
    _rotations,
)
from formloc.lie_group import AlgebraElement, rotation
from formloc.network import DesiredDistances, Graph, distance_errors, edge_offsets, sorted_neighbors
from formloc.scenario import MetricsSeries, ScenarioConfig, detect_outcome, scenario_nominal
from formloc.sim import (
    MAX_SUBSTEPS,
    DivergenceError,
    WorldState,
    _integrate,
    _layout,
    _move,
    _sense,
    edge_labels,
    init_world,
    run,
)
from oracles import bank_of, bucket_sense, predict, step, update

# fixed before running: the bank reorders no sum the scalar path makes, so
# only last-bit differences in a few reductions may appear
TOL = 1e-12


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= TOL * (1.0 + np.abs(want)))


def _estimate(filters, graph, i, j):
    return -filters[i].mean.offset(sorted_neighbors(graph, i).index(j))


def reference_step(world, config, rng=None):
    """One engine step of a one-seed world with a scalar filter per agent
    (the oracle); rng draws the measurement noise."""
    graph, dt, noise = config.graph, config.dt, config.noise
    d = config.distances
    filters = world.filters
    r = world.r[0]
    snapshot = {(i, j): _estimate(filters, graph, i, j)
                for t, h in graph.edges for i, j in ((t, h), (h, t))}
    if config.variant == "ideal":
        def field(rf):
            return ideal_control(graph, rf, d)
    elif config.variant == "estimated":
        def field(rf):
            return estimated_control(graph, snapshot, distance_errors(edge_offsets(graph, rf), d))
    else:
        shared = np.array([snapshot[(t, h)] for t, h in graph.edges])

        def field(rf):
            e = distance_errors(edge_offsets(graph, rf), d)
            return mismatch_control(graph, shared, e, config.mismatch)

    z1 = edge_offsets(graph, r)
    per_agent = np.zeros(graph.agent_count)
    for k, (t, h) in enumerate(graph.edges):
        zn = np.linalg.norm(z1[k])
        if config.variant == "ideal":
            dirs = zn
        elif config.variant == "estimated":
            dirs = max(np.linalg.norm(snapshot[(t, h)]), np.linalg.norm(snapshot[(h, t)]))
        else:
            dirs = np.linalg.norm(snapshot[(t, h)])
        a = abs(config.mismatch.values[k]) if config.mismatch is not None else 0.0
        per_edge = 2.0 * dirs * zn + abs(zn ** 2 - d.values[k] ** 2) + a
        per_agent[t] += per_edge
        per_agent[h] += per_edge
    wanted = max(1, math.ceil(dt * per_agent.max() / 2.0))
    events = list(world.events[0])
    t_new = world.t + dt
    if wanted > MAX_SUBSTEPS:
        events.append(f"t={t_new:.6g} substeps capped at {MAX_SUBSTEPS}, stiffness asked for {wanted}")
    with np.errstate(over="ignore", invalid="ignore"):
        r_new = _integrate(field, r.ravel(), dt, min(MAX_SUBSTEPS, wanted))
    r_new = r_new.reshape(-1, 2)
    if not np.all(np.isfinite(r_new)) or np.abs(r_new).max() > 1e9:
        raise DivergenceError("reference diverged")
    v_avg = (r_new - r) / dt

    new_filters = []
    for i in range(graph.agent_count):
        nbrs = list(sorted_neighbors(graph, i))
        state = filters[i]
        rel_world = v_avg[nbrs] - v_avg[i]
        xi = AlgebraElement((rel_world @ rotation(state.mean.theta)).ravel(), 0.0)
        state = predict(state, xi, dt, noise)
        diffs = r_new[nbrs] - r_new[i]
        y = np.append(0.5 * (diffs ** 2).sum(axis=1), 0.0)  # the true heading is 0
        if config.measurement_noise:
            y[:-1] += rng.normal(0.0, np.sqrt(noise.meas_distance_var), size=y.size - 1)
            y[-1] += rng.normal(0.0, np.sqrt(noise.meas_heading_var))
        try:
            state = update(state, y, noise)
        except SingularUpdateError as exc:
            events.append(f"t={t_new:.6g} agent={i + 1} update skipped: {exc}")
        new_filters.append(state)
    return WorldState(r=r_new[None], **bank_of(graph, new_filters), t=t_new, rngs=[rng],
                      events=[tuple(events)])


def reference_run(config):
    """`run` on the oracle step, with the per-edge metric loop."""
    steps = int(round(config.duration / config.dt))
    world = init_world(config)
    rng = world.rngs[0]
    graph = config.graph
    m = graph.edge_count
    cols = {name: np.empty((steps, m)) for name in ("distances", "est_errors", "dist_errors")}
    scalars = {name: np.empty(steps) for name in ("centroid_speed", "angular_rate", "max_speed")}
    for k in range(steps):
        prev_r = world.r[0]
        world = reference_step(world, config, rng)
        r = world.r[0]
        v = (r - prev_r) / config.dt
        z1 = edge_offsets(graph, r)
        cols["distances"][k] = np.linalg.norm(z1, axis=1)
        cols["dist_errors"][k] = distance_errors(z1, config.distances)
        for e, (t, h) in enumerate(graph.edges):
            cols["est_errors"][k, e] = max(
                np.linalg.norm(_estimate(world.filters, graph, t, h) - z1[e]),
                np.linalg.norm(_estimate(world.filters, graph, h, t) + z1[e]))
        scalars["centroid_speed"][k] = np.linalg.norm(v.mean(axis=0))
        scalars["max_speed"][k] = np.linalg.norm(v, axis=1).max()
        centered = r - r.mean(axis=0)
        v_rel = v - v.mean(axis=0)
        spin = (centered[:, 0] * v_rel[:, 1] - centered[:, 1] * v_rel[:, 0]).sum()
        scalars["angular_rate"][k] = spin / (centered ** 2).sum()
    return MetricsSeries(t=(np.arange(steps) + 1) * config.dt, edge_labels=edge_labels(graph),
                         desired=config.distances.values, events=world.events[0],
                         **cols, **scalars)


def _assert_worlds_match(got, want):
    _close(got.r, want.r)
    assert got.events == want.events
    for f_got, f_want in zip(got.filters, want.filters, strict=True):
        _close(f_got.mean.p, f_want.mean.p)
        _close(f_got.mean.theta, f_want.mean.theta)
        _close(f_got.covariance, f_want.covariance)


# ------------------------------------------------------- random rigid graphs


def rigid_graph(rng, agents):
    """Henneberg-grown minimally rigid graph (2N - 3 edges) with shuffled
    labels and orientations."""
    pairs = [(0, 1)]
    for k in range(2, agents):
        pairs.extend((int(j), k) for j in rng.choice(k, size=2, replace=False))
    label = rng.permutation(agents)
    edges = tuple((label[a], label[b]) if rng.random() < 0.5 else (label[b], label[a])
                  for a, b in pairs)
    return Graph(agents, edges)


def shaped_config(rng, agents, variant, **kw):
    """A `rigid_graph` of `agents` agents whose desired distances are those
    of a random shape (at least 1), spawned near that shape, with a random
    mismatch for algorithm1; `kw` goes to ScenarioConfig.  The spawn's
    jitter is drawn again until every agent pair is at least the default
    min_separation apart."""
    graph = rigid_graph(rng, agents)
    edges = graph.edges
    shape = rng.uniform(-8.0, 8.0, size=(agents, 2))
    z = shape[[t for t, _ in edges]] - shape[[h for _, h in edges]]
    distances = DesiredDistances(np.maximum(np.linalg.norm(z, axis=1), 1.0))
    mismatch = MismatchConfig(rng.uniform(-1.0, 1.0, size=len(edges))) if variant == "algorithm1" else None
    pairs = np.triu_indices(agents, k=1)
    while True:
        spawn = shape + rng.uniform(-1.0, 1.0, size=shape.shape)
        if np.linalg.norm(spawn[pairs[0]] - spawn[pairs[1]], axis=1).min() >= 1.0:
            break
    return ScenarioConfig(graph=graph, distances=distances, variant=variant, mismatch=mismatch,
                          initial_positions=spawn, **kw)


@st.composite
def rigid_scenarios(draw):
    """A `shaped_config` of 3 to 8 agents and a drawn variant."""
    agents = draw(st.integers(3, 8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    variant = draw(st.sampled_from(("ideal", "estimated", "algorithm1")))
    return shaped_config(np.random.default_rng(seed), agents, variant, dt=0.01, duration=0.5,
                         seed=seed, measurement_noise=draw(st.booleans()), offset_bound=1.0)


@settings(max_examples=40, deadline=None)
@given(rigid_scenarios())
def test_bank_step_matches_scalar_oracle(config):
    world = init_world(config)
    rng_ref = copy.deepcopy(world.rngs[0])
    got = step(world, config)
    want = reference_step(world, config, rng_ref)
    _assert_worlds_match(got, want)
    # both generators consumed the same draws, in the same order
    assert got.rngs[0].random() == rng_ref.random()


@settings(max_examples=15, deadline=None)
@given(rigid_scenarios())
def test_bank_run_keeps_outcome_label(config):
    def label(runner):
        try:
            return detect_outcome(runner(config), config.thresholds)
        except DivergenceError:
            return "diverged"

    assert label(run) == label(reference_run)


def test_noise_draws_stay_in_agent_order():
    # agent 0 has degree 3, agents 1..3 degree 2 or 1: buckets run by degree,
    # yet every agent's measurements get the draws a per-agent loop gives it
    graph = Graph(4, ((0, 1), (1, 2), (2, 0), (0, 3)))
    config = ScenarioConfig(graph=graph, distances=DesiredDistances.uniform(4, 5.0),
                            variant="ideal", mismatch=None, measurement_noise=True,
                            noise=NoiseConfig(meas_distance_var=1.0, meas_heading_var=0.25),
                            duration=0.05, seed=4)
    world = init_world(config, (4,))
    rng_ref = copy.deepcopy(world.rngs[0])
    for _ in range(5):
        world_ref = reference_step(world, config, rng_ref)
        world = step(world, config)
        _assert_worlds_match(world, world_ref)


def test_covariances_stay_symmetric_psd_beyond_the_triangle():
    # the Joseph form and the re-symmetrized predict promise every filter a
    # symmetric positive semidefinite covariance, on a graph of mixed degrees
    # under measurement noise; offset_bound is rigid_scenarios' 1, as at the
    # default 2 this spawn's estimate-driven law diverges within 0.03 s
    config = shaped_config(np.random.default_rng(20), 20, "algorithm1", measurement_noise=True,
                           duration=1.0, offset_bound=1.0)
    world = init_world(config, range(3))
    for _ in range(config.steps):
        world = step(world, config)
        for cov in world.covariances:
            assert cov.tobytes() == cov.swapaxes(-1, -2).tobytes()
            scale = np.abs(cov).max(axis=(-2, -1))
            assert (np.linalg.eigvalsh(cov)[..., 0] >= -1e-12 * scale).all()


def _relabeled(config, rng):
    """`config` with its agents renamed by a random permutation and its edges
    listed in a random order, and that order: edge k of the result is edge
    order[k] of `config`, with the same orientation."""
    agents, edges = config.graph.agent_count, config.graph.edges
    label, order = rng.permutation(agents), rng.permutation(len(edges))
    graph = Graph(agents, tuple((int(label[edges[k][0]]), int(label[edges[k][1]])) for k in order))
    positions = np.empty_like(config.initial_positions)
    positions[label] = config.initial_positions
    mismatch = None if config.mismatch is None else MismatchConfig(config.mismatch.values[order])
    return replace(config, graph=graph, distances=DesiredDistances(config.distances.values[order]),
                   mismatch=mismatch, initial_positions=positions,
                   initial_estimates={(int(label[i]), int(label[j])): v
                                      for (i, j), v in config.initial_estimates.items()}), order


@pytest.mark.parametrize("variant", ["ideal", "algorithm1"])
@pytest.mark.parametrize("agents", range(4, 10))
def test_relabeling_agents_and_edges_keeps_every_metric(agents, variant):
    # renaming the agents and reordering the edges moves every index of
    # `_layout` (bank order, slots, tail and head slots, scatter matrices)
    # but not the physics, which oracles built on the same layout cannot
    # check.  It does reorder floating-point sums: an agent adds its edges'
    # terms in edge order and a filter lists its neighbors in label order.
    # Over these 0.5 s that moved no metric by more than 4.2e-10 relative
    # (roundoff can grow from there: one estimated-law graph reached 3e-8 at
    # 1 s), while a wrong index moves one by O(1).  Explicit estimates and no
    # measurement noise leave no draw whose order could depend on the labels.
    rng = np.random.default_rng(agents)
    config = shaped_config(rng, agents, variant, duration=0.5)
    r = config.initial_positions
    config = replace(config, initial_estimates={
        (i, j): r[i] - r[j] + rng.uniform(-1.0, 1.0, size=2)
        for i in range(agents) for j in sorted_neighbors(config.graph, i)})
    other, order = _relabeled(config, rng)
    want, got = run(config), run(other)
    for name in ("distances", "est_errors", "dist_errors"):
        assert np.allclose(getattr(got, name), getattr(want, name)[:, order], rtol=1e-8, atol=1e-8), name
    for name in ("centroid_speed", "angular_rate", "max_speed"):
        assert np.allclose(getattr(got, name), getattr(want, name), rtol=1e-8, atol=1e-8), name


# ------------------------------------------------------------ error isolation


# integer spawn with exact target distances: every squared error is exactly
# zero, so nobody moves and the predicted covariance is P + dt * Q exactly
_REST = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [-3.0, 0.0]])
_REST_GRAPH = Graph(4, ((0, 1), (1, 2), (2, 0), (0, 3)))  # degrees 3, 2, 2, 1


def _rest_world():
    noise = NoiseConfig(process_heading_psd=0.0, meas_heading_var=0.5)
    config = ScenarioConfig(graph=_REST_GRAPH, distances=DesiredDistances([3.0, 5.0, 4.0, 3.0]),
                            variant="ideal", mismatch=None, noise=noise,
                            initial_positions=_REST, offset_bound=0.5, seed=2)
    return config, init_world(config)


def _poison(filters, agent, kind):
    state = filters[agent]
    cov = np.array(state.covariance)
    if kind == "nonfinite":
        cov[0, 0] = np.inf
    else:
        # heading row (0, ..., 0, -R_heading): the innovation covariance gets
        # an exactly zero row, which LAPACK reports as singular
        cov[-1, :] = cov[:, -1] = 0.0
        cov[-1, -1] = -0.5
    out = list(filters)
    out[agent] = EstimatorState(state.mean, cov)
    return out


@pytest.mark.parametrize("poisoned", [
    {1: "nonfinite"},
    {1: "singular"},
    {0: "singular", 3: "nonfinite"},   # degree 3 before degree 1 in agent order
    {1: "singular", 2: "nonfinite"},   # the whole degree-2 bucket
])
def test_refused_update_is_isolated_to_its_agent(poisoned):
    config, world = _rest_world()
    filters = world.filters
    with np.errstate(invalid="ignore"):  # inf - inf in the symmetry checks
        for agent, kind in poisoned.items():
            filters = _poison(filters, agent, kind)
        world = replace(world, **bank_of(config.graph, filters))
        got = step(world, config)
        want = reference_step(world, config)
        got_filters, want_filters = got.filters, want.filters

    np.testing.assert_array_equal(got.r, world.r)
    assert got.events == want.events
    assert [int(e.split("agent=")[1].split()[0]) - 1 for e in got.events[0]] == sorted(poisoned)
    for event, (agent, kind) in zip(got.events[0], sorted(poisoned.items())):
        assert ("not finite" in event) == (kind == "nonfinite")
    for i, (f_got, f_want) in enumerate(zip(got_filters, want_filters)):
        np.testing.assert_array_equal(f_got.mean.p, f_want.mean.p)
        np.testing.assert_array_equal(f_got.covariance, f_want.covariance)
        if i not in poisoned:
            assert not np.array_equal(f_got.covariance, filters[i].covariance)


# ----------------------------------------------------------------- events


def test_run_reports_capped_substeps():
    # a 60-wide triangle at dt = 1 asks for more than MAX_SUBSTEPS on its
    # first step; the ideal flow still contracts safely under the cap
    graph = Graph(3, ((0, 1), (1, 2), (0, 2)))
    side = 60.0
    spawn = np.array([[0.0, 0.0], [side, 0.0], [0.5 * side, 0.5 * np.sqrt(3.0) * side]])
    config = ScenarioConfig(graph=graph, distances=DesiredDistances.uniform(3, 10.0),
                            variant="ideal", mismatch=None, dt=1.0, duration=2.0,
                            initial_positions=spawn)
    series = run(config)
    assert series.events == (
        f"t=1 substeps capped at {MAX_SUBSTEPS}, stiffness asked for 10700",
    )
    assert np.all(series.distances[0] < side)


def test_run_carries_skipped_updates_out():
    # an initial variance this large overflows every innovation covariance,
    # so each agent refuses every update and the loop runs on predictions
    config = replace(scenario_nominal(), duration=0.03, initial_var=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        series = run(config)
    assert series.events == tuple(
        f"t={t} agent={i} update skipped: innovation covariance is not finite"
        for t in ("0.01", "0.02", "0.03") for i in (1, 2, 3)
    )


# ------------------------------------------- filter phase, once per step


def _sense_matching_oracle(world, config, steps=4):
    """Advance `world` by `steps` steps, checking each step's filter phase
    bit for bit against the phase run bucket by bucket; returns the last
    world."""
    for _ in range(steps):
        moved, diverged = _move(world, config)
        moved = moved.take(~diverged)
        if not len(moved.r):
            break
        want = bucket_sense(replace(moved, rngs=copy.deepcopy(moved.rngs)), config)
        world = _sense(moved, config)
        for name in ("offsets", "headings", "covariances"):
            for got, expected in zip(getattr(world, name), getattr(want, name),
                                     strict=True):
                np.testing.assert_array_equal(got, expected)
        assert world.events == want.events
        # both drew the same noise from each seed's generator
        assert [g.bit_generator.state for g in world.rngs] == [g.bit_generator.state
                                                              for g in want.rngs]
    return world


@settings(max_examples=20, deadline=None)
@given(rigid_scenarios(), st.sampled_from((1, 3)))
def test_filter_phase_matches_bucket_oracle(config, seeds):
    graph = config.graph
    assume(len({len(sorted_neighbors(graph, i)) for i in range(graph.agent_count)}) > 1)
    config = replace(config, measurement_noise=True)
    _sense_matching_oracle(init_world(config, range(seeds)), config)


@pytest.mark.parametrize("seeds", [1, 3])
def test_filter_phase_with_a_degree_one_agent(seeds):
    # agent 4 has one neighbor: its bucket stacks one (1, 2) offset block per seed
    config = ScenarioConfig(graph=_REST_GRAPH, distances=DesiredDistances.uniform(4, 5.0),
                            variant="estimated", mismatch=None, measurement_noise=True,
                            noise=NoiseConfig(meas_distance_var=0.1, meas_heading_var=0.01))
    _sense_matching_oracle(init_world(config, range(seeds)), config, steps=6)


@pytest.mark.parametrize("seeds", [1, 3])
def test_steps_look_nothing_up_by_graph(seeds, monkeypatch):
    # the world carries its layout, so once a world is built no step, and no
    # seed leaving the batch, hashes its graph; lookups keyed on the config
    # or the noise may stay
    config = ScenarioConfig(graph=_REST_GRAPH, distances=DesiredDistances.uniform(4, 5.0),
                            mismatch=MismatchConfig.uniform(4, 0.5), measurement_noise=True)
    world = step(init_world(config, range(seeds)), config)
    hashed = []
    graph_hash = Graph.__hash__

    def counting_hash(graph):
        hashed.append(graph)
        return graph_hash(graph)

    monkeypatch.setattr(Graph, "__hash__", counting_hash)
    for _ in range(3):
        world = step(world, config)
    kept = world.take(np.arange(seeds) % 2 == 0)
    step(kept, config)
    assert len(hashed) == 0
    assert kept.layout is world.layout


@pytest.mark.parametrize("kind", ["nonfinite", "singular"])
@pytest.mark.parametrize("seeds", [1, 3])
def test_filter_phase_refused_update_keeps_prediction(kind, seeds):
    # agent 2 (degree 2) of the last seed refuses every update; at rest the
    # body velocities are exactly 0, so its prediction is _predict_degree at
    # v = 0, which keeps its heading
    config, _ = _rest_world()
    config = replace(config, measurement_noise=True)
    world = init_world(config, range(seeds))
    agent, bucket = 1, 1
    row = (seeds - 1, list(_layout(config.graph).buckets[bucket].agents).index(agent))
    covariances = list(world.covariances)
    covariances[bucket] = covariances[bucket].copy()
    if kind == "nonfinite":
        covariances[bucket][row][0, 0] = np.inf
    else:
        covariances[bucket][row][-1, :] = covariances[bucket][row][:, -1] = 0.0
        covariances[bucket][row][-1, -1] = -0.5
    world = replace(world, covariances=tuple(covariances))
    reason = "is not finite" if kind == "nonfinite" else "not invertible: "
    for step_count in (1, 2, 3):
        p, theta, cov = world.bucket(bucket)
        with np.errstate(invalid="ignore"):
            world = _sense_matching_oracle(world, config, steps=1)
            p, cov = _predict_degree(p, cov, np.zeros(p.shape), _rotations(theta),
                                     _quarter_rotations(theta), config.dt, config.noise)
        means, headings, covs = world.bucket(bucket)
        np.testing.assert_array_equal(means[row], p[row])
        np.testing.assert_array_equal(headings[row], theta[row])
        np.testing.assert_array_equal(covs[row], cov[row])
        assert [len(ev) for ev in world.events] == [0] * (seeds - 1) + [step_count]
        assert world.events[-1][-1].startswith(
            f"t={world.t:.6g} agent=2 update skipped: innovation covariance {reason}")
