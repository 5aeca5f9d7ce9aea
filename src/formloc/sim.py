"""Closed-loop scenario engine: true world, per-agent filters, controllers.

One step runs, in order: (1) controllers compute agent velocities from the
start-of-step estimate snapshot and the measured distance errors; (2) the
true positions integrate that velocity field over dt with a classical
4th-order scheme, sub-stepped adaptively because the squared-distance
gradient flow is stiff at wide spreads; (3) agents exchange their average
world-frame velocities over the step and convert neighbor velocities to the
body frame; (4) each filter runs one predict/update cycle against
measurements synthesized at the new positions; (5) the updated estimates
are what the next step's controllers read.  All randomness of a run flows
through one seeded generator, so a (config, seed) pair fixes every byte of
the output.

The filters live in a `FilterBank`: stacked arrays with one bucket per agent
degree, so phase (4) is one batched predict and one batched update per
bucket, and every estimate read is an index gather from the bank's offset
table.

A `WorldState` holds B seeds of one config, advancing in lockstep: every
array has a leading seed axis, and the bank's buckets stack the seeds into
their rows.  `init_world(config, seeds)` builds it and `run(config, seeds)`
steps it.  Each seed keeps its own sub-step count, generator and event
log, so it comes out exactly as it would alone; a seed that diverges
leaves the batch.  One seed is the case B = 1 of the same code.

Every agent's true heading is fixed at 0 (zero angular rate), so its
heading measurement is noise around 0; the estimator and group layers
support nonzero headings and heading rates independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache
from itertools import compress

import numpy as np

from .controller import MismatchConfig, _control_law, _scatter_matrices
from .estimator import EstimatorState, NoiseConfig, _rotations, predict_batch, update_batch
from .lie_group import GroupElement, rotation
from .network import AgentError, DesiredDistances, Graph, _edge_arrays, sorted_neighbors

__all__ = [
    "DivergenceError",
    "FilterBank",
    "MetricsSeries",
    "OutcomeThresholds",
    "ScenarioConfig",
    "SpawnError",
    "WorldState",
    "detect_outcome",
    "init_world",
    "run",
    "scenario_issue1",
    "scenario_issue2",
    "scenario_issue3",
    "scenario_nominal",
]

VARIANTS = ("ideal", "estimated", "algorithm1")
MAX_SUBSTEPS = 10000
MAX_SPAWN_DRAWS = 10000
BLOCK_STEPS = 64  # steps whose metrics `run` extracts in one pass


class DivergenceError(RuntimeError):
    """True positions left the representable range.

    The estimate-driven control laws follow frozen direction estimates
    between measurement updates; for unlucky estimate draws on widely
    spread agents that flow has no Lyapunov function and can escape to
    infinity within one sampling interval.
    """


class SpawnError(ValueError):
    """No spawn draw kept every agent pair min_separation apart inside
    spawn_box within MAX_SPAWN_DRAWS draws."""


@dataclass(frozen=True)
class OutcomeThresholds:
    """Decision thresholds for `detect_outcome`, applied over the final window."""

    dist_tol: float = 0.5        # max | |r_ij| - d_k | for the shape to count as formed
    est_tol: float = 0.1         # max estimate error for localization to count as solved
    speed_tol: float = 1e-4      # below this every agent counts as stopped
    centroid_tol: float = 1e-3   # above this the centroid counts as drifting
    error_floor: float = 0.1     # |e_k| above this counts as a genuinely wrong shape
    window_frac: float = 0.1     # fraction of the run evaluated, from the end

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not 0.0 < self.window_frac <= 1.0:
            raise ValueError(f"window_frac must be in (0, 1], got {self.window_frac}")

    def window(self, steps: int) -> slice:
        """The final steps of a run of `steps` steps that outcomes are judged on."""
        if steps * self.window_frac < 1.0:
            raise ValueError(f"a run of {steps} steps is shorter than the evaluation window "
                             f"(window_frac {self.window_frac})")
        return slice(steps - int(round(steps * self.window_frac)), steps)


def _closest_pair(r: np.ndarray) -> tuple[int, int, float]:
    """The two agents i < j of the (N, 2) positions r that sit closest
    together, and their distance."""
    diffs = r[:, None, :] - r[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(-1))
    i, j = np.triu_indices(len(r), k=1)
    k = np.argmin(dist[i, j])
    return int(i[k]), int(j[k]), float(dist[i[k], j[k]])


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything a run needs; immutable so `replace` derives variants."""

    graph: Graph
    distances: DesiredDistances
    variant: str = "algorithm1"
    mismatch: MismatchConfig | None = None
    dt: float = 0.01
    duration: float = 100.0
    seed: int = 0
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    measurement_noise: bool = False
    offset_bound: float = 2.0
    initial_var: float | None = None
    initial_positions: np.ndarray | None = None
    spawn_box: float = 20.0
    min_separation: float = 1.0
    initial_estimates: dict | None = None
    estimator_enabled: bool = True
    thresholds: OutcomeThresholds = field(default_factory=OutcomeThresholds)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        for name in ("dt", "duration", "offset_bound", "spawn_box", "min_separation"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.steps < 1:
            raise ValueError(f"duration {self.duration} is shorter than one step of dt {self.dt}")
        if self.distances.values.size != self.graph.edge_count:
            raise ValueError("one desired distance per edge required")
        if self.variant == "algorithm1":
            if self.mismatch is None:
                raise ValueError("algorithm1 needs a MismatchConfig")
            if self.mismatch.values.size != self.graph.edge_count:
                raise ValueError("one mismatch per edge required")
        elif self.mismatch is not None:
            raise ValueError(f"the {self.variant} variant reads no mismatch; only algorithm1 does")
        if self.offset_bound < 0:
            raise ValueError(f"offset_bound must be non-negative, got {self.offset_bound}")
        if self.spawn_box <= 0:
            raise ValueError(f"spawn_box must be positive, got {self.spawn_box}")
        if self.min_separation < 0:
            raise ValueError(f"min_separation must be non-negative, got {self.min_separation}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.initial_var is not None and not 0.0 < self.initial_var < np.inf:
            raise ValueError(f"initial_var must be positive and finite, got {self.initial_var}")
        for i in range(self.graph.agent_count):
            if not sorted_neighbors(self.graph, i):
                raise AgentError("agent {} has no neighbors; every filter needs at least one", i)
        if self.initial_positions is not None:
            pos = np.array(self.initial_positions, dtype=float).reshape(-1)
            if pos.size != 2 * self.graph.agent_count:
                raise ValueError("initial_positions must give one planar point per agent")
            pos = pos.reshape(-1, 2)
            if not np.isfinite(pos).all():
                raise ValueError(f"initial_positions must be finite, got {pos.tolist()}")
            i, j, dist = _closest_pair(pos)
            if dist < self.min_separation:
                raise AgentError(f"initial_positions of agents {{}} and {{}} are {dist!r} apart, "
                                 f"closer than min_separation = {self.min_separation}", i, j)
            pos.setflags(write=False)
            object.__setattr__(self, "initial_positions", pos)
        if self.initial_estimates is not None:
            est = {}
            for (i, j), vec in self.initial_estimates.items():
                v = np.array(vec, dtype=float).reshape(-1)
                if v.size != 2:
                    raise ValueError(f"estimate for pair ({i}, {j}) must be planar")
                if not np.isfinite(v).all():
                    raise ValueError(f"initial_estimates for pair ({i}, {j}) must be finite, "
                                     f"got {v.tolist()}")
                if j not in sorted_neighbors(self.graph, i):
                    raise ValueError(f"pair ({i}, {j}) is not an edge of the graph")
                est[(int(i), int(j))] = v
            for i in range(self.graph.agent_count):
                for j in sorted_neighbors(self.graph, i):
                    if (i, j) not in est:
                        raise ValueError(f"missing initial estimate for pair ({i}, {j})")
            object.__setattr__(self, "initial_estimates", est)

    @property
    def steps(self) -> int:
        """Number of sampling intervals `run` simulates."""
        return int(round(self.duration / self.dt))


@dataclass(frozen=True, eq=False)
class _Bucket:
    """The agents of one degree n, in ascending order, and where they sit
    in the bank-wide tables of `_Layout`."""

    agents: np.ndarray   # (A,)
    degree: int          # n
    rows: slice          # the agents' rows in bank order
    slots: slice         # their A * n rows of the offset table


@dataclass(frozen=True, eq=False)
class _Layout:
    """Degree buckets of a graph and the index arrays that gather estimates
    and measurements.

    Bank order lists the agents bucket after bucket.  The offset table
    stacks every bucket's means as (A * n, 2) rows in that order: one slot
    per tracked (agent, neighbor) pair, and `slot[(i, j)]` is the row of
    agent i's offset to j.
    """

    buckets: tuple[_Bucket, ...]
    slot: dict
    tail_slots: np.ndarray     # (edges,) slot of the tail's offset to the head
    head_slots: np.ndarray     # (edges,) slot of the head's offset to the tail
    slot_agents: np.ndarray    # (slots,) agent that tracks each slot
    slot_nbrs: np.ndarray      # (slots,) neighbor each slot tracks
    range_draws: np.ndarray    # (slots,) index of the slot's distance noise draw
    heading_draws: np.ndarray  # (agents,) index of each bank row's heading draw
    draw_count: int            # noise draws per step: degree + 1 per agent


@lru_cache(maxsize=None)
def _layout(graph: Graph) -> _Layout:
    nbrs = [sorted_neighbors(graph, i) for i in range(graph.agent_count)]
    buckets, order, slot_count = [], [], 0
    for n in sorted({len(js) for js in nbrs}):
        agents = [i for i, js in enumerate(nbrs) if len(js) == n]
        buckets.append(_Bucket(
            agents=np.array(agents),
            degree=n,
            rows=slice(len(order), len(order) + len(agents)),
            slots=slice(slot_count, slot_count + n * len(agents)),
        ))
        order += agents
        slot_count += n * len(agents)
    pairs = [(i, j) for i in order for j in nbrs[i]]
    slot = {pair: k for k, pair in enumerate(pairs)}
    # noise draws follow agent order, as a per-agent loop draws them: the
    # agent's n distances, then its heading
    first_draw = np.cumsum([0] + [len(js) + 1 for js in nbrs])
    return _Layout(
        buckets=tuple(buckets),
        slot=slot,
        tail_slots=np.array([slot[(t, h)] for t, h in graph.edges]),
        head_slots=np.array([slot[(h, t)] for t, h in graph.edges]),
        slot_agents=np.array([i for i, _ in pairs]),
        slot_nbrs=np.array([j for _, j in pairs]),
        range_draws=np.array([first_draw[i] + nbrs[i].index(j) for i, j in pairs]),
        heading_draws=first_draw[order] + np.array([len(nbrs[i]) for i in order]),
        draw_count=int(first_draw[-1]),
    )


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Every agent's filter, for B seeds, as stacked arrays with one bucket
    per agent degree n (see `_layout`): means (B * A, 2n), headings
    (B * A,), covariances (B * A, 2n+1, 2n+1), one entry per bucket in
    ascending degree.  Row s * A + i holds the bucket's agent i of seed s."""

    graph: Graph
    means: tuple[np.ndarray, ...]
    headings: tuple[np.ndarray, ...]
    covariances: tuple[np.ndarray, ...]

    @property
    def seeds(self) -> int:
        return len(self.headings[0]) // len(_layout(self.graph).buckets[0].agents)

    def take(self, keep: np.ndarray) -> "FilterBank":
        """The bank of the seeds where the boolean mask `keep` is set."""
        rows = [np.repeat(keep, len(b.agents)) for b in _layout(self.graph).buckets]
        return FilterBank(self.graph, *(tuple(x[r] for x, r in zip(arrays, rows)) for arrays in
                                        (self.means, self.headings, self.covariances)))

    @cached_property
    def filters(self) -> tuple[EstimatorState, ...]:
        """Per-agent filter states of a one-seed bank, in agent order."""
        if self.seeds != 1:
            raise ValueError(f"a bank of {self.seeds} seeds has no single set of filters")
        out = [None] * self.graph.agent_count
        for b, bucket in enumerate(_layout(self.graph).buckets):
            for row, i in enumerate(bucket.agents):
                out[i] = EstimatorState(GroupElement(self.means[b][row], self.headings[b][row]),
                                        self.covariances[b][row])
        return tuple(out)

    @cached_property
    def offsets(self) -> np.ndarray:
        """The offset table of each seed: every tracked neighbor offset,
        (B, sum of degrees, 2)."""
        return np.concatenate([m.reshape(self.seeds, -1, 2) for m in self.means], axis=1)


@dataclass(eq=False)
class WorldState:
    """B seeds of one config: true positions (B, agents, 2), their filter
    bank, the elapsed time, and one generator and one event log per seed.
    After a step, v holds each seed's average velocities over it,
    (B, agents, 2)."""

    r: np.ndarray
    bank: FilterBank
    t: float
    rngs: list
    events: list
    v: np.ndarray | None = None

    @property
    def filters(self) -> tuple[EstimatorState, ...]:
        return self.bank.filters

    def take(self, keep: np.ndarray) -> "WorldState":
        """The seeds that the boolean mask `keep` selects."""
        return WorldState(r=self.r[keep], bank=self.bank.take(keep), t=self.t,
                          rngs=list(compress(self.rngs, keep)),
                          events=list(compress(self.events, keep)),
                          v=None if self.v is None else self.v[keep])


@dataclass(eq=False)
class MetricsSeries:
    """Per-step records extracted by `run`; one row per simulated step."""

    t: np.ndarray
    distances: np.ndarray       # (steps, edges) inter-agent distances
    est_errors: np.ndarray      # (steps, edges) worst estimate error per edge
    dist_errors: np.ndarray     # (steps, edges) squared-distance errors e_k
    centroid_speed: np.ndarray  # (steps,)
    angular_rate: np.ndarray    # (steps,) least-squares rigid rotation rate
    max_speed: np.ndarray       # (steps,) fastest agent
    desired: np.ndarray         # (edges,) desired distances d_k
    edge_labels: tuple[str, ...]
    events: tuple[str, ...] = ()  # skipped filter updates and capped sub-steps

    @property
    def steps(self) -> int:
        return self.t.size


def edge_labels(graph: Graph) -> tuple[str, ...]:
    """1-based edge labels like '12' for metric column names."""
    return tuple(f"{t + 1}{h + 1}" for t, h in graph.edges)


def _vector_norms(x: np.ndarray) -> np.ndarray:
    """Norm of each 2-vector along x's last axis, each computed as a dot
    product the way np.linalg.norm treats a single vector, to its last bit."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _edge_estimates(offsets: np.ndarray, graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per edge (t, h) of offset tables (..., slots, 2), the tail's estimate
    of r_t - r_h and the head's of r_h - r_t, as (..., edges, 2) arrays."""
    layout = _layout(graph)
    return -offsets[..., layout.tail_slots, :], -offsets[..., layout.head_slots, :]


def _law_inputs(world: WorldState, config: ScenarioConfig):
    """The variant's (E_t, E_h, a) for `controller._control_law`: the frozen
    directions each edge's tail and head steer along, per seed, and the
    bias.  The ideal law steers along the true offsets, which move with the
    positions; its directions are None."""
    if config.variant == "ideal":
        return None, None, 0.0
    est_tail, est_head = _edge_estimates(world.bank.offsets, config.graph)
    if config.variant == "estimated":
        return est_tail, -est_head, 0.0
    return est_tail, est_tail, config.mismatch.values


def _columns(x: np.ndarray) -> np.ndarray:
    """(B, k, 2) per-seed rows as (k, 2B): seed b in columns 2b and 2b + 1."""
    return x.swapaxes(0, 1).reshape(x.shape[1], -1)


@lru_cache(maxsize=8)
def _kernel_entries(config: ScenarioConfig, seeds: int) -> tuple:
    """For B seeds side by side in the control kernel, flattened from
    (edges, 2B): each entry's squared desired distance and bias, and the
    index of the other coordinate of its (x, y) pair."""
    per_edge = 2 * seeds
    a = np.repeat(config.mismatch.values, per_edge) if config.mismatch is not None else 0.0
    swap = np.arange(config.graph.edge_count * per_edge) ^ 1
    return np.repeat(config.distances.values ** 2, per_edge), a, swap


def _control_field(world: WorldState, config: ScenarioConfig):
    """Velocity field r -> u with the estimate snapshot of `world` frozen;
    the distance errors are re-measured wherever the integrator evaluates
    it.  r and u are the seeds' positions and velocities side by side,
    flattened from (agents, 2B) (see `_columns`); for one seed that is its
    flat positions.

    It evaluates the public control laws' kernel without their per-call
    validation; a regression test holds the two bit-identical.
    """
    at, ah = _scatter_matrices(config.graph)
    # r_tail - r_head per edge as one product: every row holds exactly two
    # nonzero terms, so the result is bit-identical to indexing both ends
    diff = (at - ah).T
    agents = config.graph.agent_count
    dv2, a, swap = _kernel_entries(config, world.bank.seeds)
    tail_dirs, head_dirs, _ = _law_inputs(world, config)
    dirs = None if tail_dirs is None else (_columns(tail_dirs).ravel(), _columns(head_dirs).ravel())

    def field(r):
        # .dot: the gemm of @ without its dispatch cost (see _control_law)
        z = diff.dot(r.reshape(agents, -1)).ravel()
        sq = z * z
        # x^2 + y^2 in both entries of each pair: a sum of two terms is the
        # same either way round
        e = sq + sq[swap] - dv2
        return _control_law(at, ah, *(dirs or (z, z)), e, a)
    return field


def _stiffness(world: WorldState, config: ScenarioConfig) -> np.ndarray:
    """Per seed, an upper estimate of the control field's Jacobian scale,
    used to pick the sub-step count that keeps the 4th-order scheme inside
    its stability region."""
    tails, heads = _edge_arrays(config.graph)
    z1 = world.r[:, tails] - world.r[:, heads]
    zn = np.linalg.norm(z1, axis=2)
    e = np.abs((z1 ** 2).sum(axis=2) - config.distances.values ** 2)
    tail_dirs, head_dirs, a = _law_inputs(world, config)
    if tail_dirs is None:
        dirs = zn
    else:
        dirs = np.maximum(_vector_norms(tail_dirs), _vector_norms(head_dirs))
    per_edge = 2.0 * dirs * zn + e + np.abs(a)
    per_agent = np.zeros(world.r.shape[:2])
    # tails then heads, each in edge order: the sums a per-edge loop makes
    np.add.at(per_agent, (slice(None), tails), per_edge)
    np.add.at(per_agent, (slice(None), heads), per_edge)
    return per_agent.max(axis=1)


def _integrate(u_of, r: np.ndarray, dt: float, substeps) -> np.ndarray:
    """Classical 4th-order scheme over dt in `substeps` equal sub-steps.

    With one count per entry of r every entry takes its sub-steps in the
    same rounds, each with its own h = dt/n; an entry whose count is reached
    holds its value while the rest go on, so each ends exactly where it
    would alone.
    """
    substeps = np.asarray(substeps)
    h = dt / substeps
    half_h, sixth_h = 0.5 * h, h / 6.0
    everyone = substeps.min()
    for k in range(substeps.max()):
        k1 = u_of(r)
        k2 = u_of(r + half_h * k1)
        k3 = u_of(r + half_h * k2)
        k4 = u_of(r + h * k3)
        r_next = r + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        r = r_next if k < everyone else np.where(k < substeps, r_next, r)
    return r


def init_world(config: ScenarioConfig, seeds=None) -> WorldState:
    """The world every seed of `seeds` starts from; None means
    (config.seed,).

    Each seed s gets its own generator, np.random.default_rng(s), which
    makes all of that seed's draws.  Positions come from the config when
    given, otherwise uniform draws in a centered spawn box, re-drawn until
    every agent pair is at least min_separation apart; SpawnError after
    MAX_SPAWN_DRAWS draws.  Filter means come from explicit initial
    estimates when given, otherwise from per-coordinate uniform offsets of
    the truth within offset_bound, drawn agent after agent in neighbor
    order.  Every filter starts at the true heading 0 with covariance
    diag(var, ..., var, heading measurement variance), var being
    initial_var or else offset_bound^2 / 3, the variance of that draw.
    """
    seeds = (config.seed,) if seeds is None else tuple(seeds)
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    count, o = len(seeds), config.graph.agent_count
    r = np.empty((count, o, 2))
    if config.initial_positions is not None:
        r[:] = config.initial_positions
    else:
        half = 0.5 * config.spawn_box
        for s, rng in enumerate(rngs):
            for _ in range(MAX_SPAWN_DRAWS):
                r[s] = rng.uniform(-half, half, size=(o, 2))
                if _closest_pair(r[s])[2] >= config.min_separation:
                    break
            else:
                raise SpawnError(f"min_separation = {config.min_separation} cannot be met "
                                 f"inside spawn_box = {config.spawn_box}: no spawn in "
                                 f"{MAX_SPAWN_DRAWS} draws kept every agent pair that far apart")

    layout = _layout(config.graph)
    if config.initial_estimates is None:
        offsets = r[:, layout.slot_nbrs] - r[:, layout.slot_agents]
        draws = [rng.uniform(-config.offset_bound, config.offset_bound, size=offsets.shape[1:])
                 for rng in rngs]
        offsets[:, np.argsort(layout.slot_agents, kind="stable")] += draws
    else:
        offsets = np.tile(-np.array([config.initial_estimates[pair] for pair in layout.slot]),
                          (count, 1, 1))
    var = config.initial_var if config.initial_var is not None else config.offset_bound ** 2 / 3.0
    hvar = config.noise.meas_heading_var
    buckets = layout.buckets
    bank = FilterBank(graph=config.graph,
                      means=tuple(offsets[:, b.slots].reshape(count * len(b.agents), -1)
                                  for b in buckets),
                      headings=tuple(np.zeros(count * len(b.agents)) for b in buckets),
                      covariances=tuple(np.tile(np.diag([var] * (2 * b.degree) + [hvar]),
                                                (count * len(b.agents), 1, 1)) for b in buckets))
    return WorldState(r=r, bank=bank, t=0.0, rngs=rngs, events=[()] * count)


def _divergence(t: float) -> DivergenceError:
    return DivergenceError(f"positions diverged during the step ending at t={t:.6g}")


def _move(world: WorldState, config: ScenarioConfig) -> tuple[WorldState, np.ndarray]:
    """Phases (1)-(2) for every seed: the world at its new positions, with
    its average velocities over the step and any capped sub-step count
    logged, and the mask of the seeds whose positions diverged."""
    dt = config.dt
    t_new = world.t + dt
    u_of = _control_field(world, config)
    # a non-finite stiffness is capped like a finite one above the cap
    wanted = [max(1, math.ceil(dt * s / 2.0)) if s < math.inf else s
              for s in _stiffness(world, config).tolist()]
    substeps = [w if w <= MAX_SUBSTEPS else MAX_SUBSTEPS for w in wanted]
    events = world.events
    if wanted != substeps:
        capped = f"t={t_new:.6g} substeps capped at {MAX_SUBSTEPS}, stiffness asked for"
        events = [ev if w == n else ev + (f"{capped} {w}",)
                  for ev, w, n in zip(events, wanted, substeps)]
    agents = config.graph.agent_count
    counts = set(substeps)
    if len(counts) == 1:
        (substeps,) = counts
    else:
        # each seed's count for each of its entries in the flattened columns
        substeps = np.tile(np.repeat(substeps, 2), agents)
    with np.errstate(over="ignore", invalid="ignore"):
        r_new = _integrate(u_of, _columns(world.r).ravel(), dt, substeps)
        r_new = np.ascontiguousarray(r_new.reshape(agents, -1, 2).swapaxes(0, 1))
        v = (r_new - world.r) / dt
        diverged = ~(np.abs(r_new) <= 1e9).all(axis=(1, 2))
    return replace(world, r=r_new, v=v, t=t_new, events=events), diverged


def _sense(world: WorldState, config: ScenarioConfig) -> WorldState:
    """Phases (3)-(5) for every seed of a world that `_move` advanced: one
    batched predict/update per degree bucket, whose rows hold that bucket's
    agents of every seed.  Refused updates are logged in agent order."""
    if not config.estimator_enabled:
        return world
    noise = config.noise
    layout = _layout(config.graph)
    bank, seeds = world.bank, len(world.r)
    # velocities and measurements of every seed and slot at once, then
    # sliced per bucket; the true heading is 0, so its measurement is noise
    rel_world = world.v[:, layout.slot_nbrs] - world.v[:, layout.slot_agents]
    diffs = world.r[:, layout.slot_nbrs] - world.r[:, layout.slot_agents]
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
        # rows seed after seed, as the bank stacks them
        v_body = rel_world[:, bucket.slots].reshape(rows, n, 2) @ _rotations(bank.headings[b])
        p, theta, cov = predict_batch(bank.means[b], bank.headings[b], bank.covariances[b],
                                      v_body.reshape(rows, 2 * n), np.zeros(rows), config.dt, noise)
        y = np.concatenate([ranges[:, bucket.slots].reshape(rows, n),
                            heading_meas[:, bucket.rows].reshape(rows, 1)], axis=1)
        p, theta, cov, errors = update_batch(p, theta, cov, y, noise)
        for row, exc in errors.items():
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
    bank = FilterBank(config.graph, tuple(means), tuple(headings), tuple(covariances))
    return replace(world, bank=bank, events=events)


def _metrics(r: np.ndarray, v: np.ndarray, offsets: np.ndarray, config: ScenarioConfig) -> tuple:
    """The six per-step series of `MetricsSeries`, in field order, from
    positions and velocities (..., agents, 2) and offset tables
    (..., slots, 2) that share their leading axes; each reduction runs over
    the same trailing axes whatever leads."""
    tails, heads = _edge_arrays(config.graph)
    est_tail, est_head = _edge_estimates(offsets, config.graph)
    v_mean = v.mean(axis=-2)
    z1 = r[..., tails, :] - r[..., heads, :]
    centered = r - r.mean(axis=-2, keepdims=True)
    v_rel = v - v_mean[..., None, :]
    denom = (centered ** 2).sum(axis=(-2, -1))
    spin = (centered[..., 0] * v_rel[..., 1] - centered[..., 1] * v_rel[..., 0]).sum(axis=-1)
    return (np.linalg.norm(z1, axis=-1),
            np.maximum(_vector_norms(est_tail - z1), _vector_norms(est_head + z1)),
            (z1 ** 2).sum(axis=-1) - config.distances.values ** 2,
            _vector_norms(v_mean),
            np.divide(spin, denom, out=np.zeros_like(spin), where=denom > 0),
            np.linalg.norm(v, axis=-1).max(axis=-1))


def run(config: ScenarioConfig, seeds=None):
    """Simulate duration/dt steps and record per-step metrics.

    Without `seeds`, run config.seed: return its MetricsSeries, or raise
    DivergenceError if its positions diverge.  With `seeds`, run every seed
    s of that sequence in lockstep, each exactly as
    `run(replace(config, seed=s))` runs it alone, and return a tuple with
    one entry per seed: its MetricsSeries, or the DivergenceError that
    ended it, with the message that run would raise.  A diverged seed
    is dropped; the others go on.

    Each step's positions, velocities and offset table are kept for up to
    BLOCK_STEPS steps, and the metrics of those steps are extracted in one
    pass (`_metrics`) when the block fills, before a diverged seed leaves
    and after the last step.
    """
    single = seeds is None
    seeds = (config.seed,) if single else tuple(seeds)
    if not seeds:
        return ()
    steps, graph = config.steps, config.graph
    world = init_world(config, seeds)

    count, m = len(seeds), graph.edge_count
    # the MetricsSeries arrays in field order: three per edge, then three per step
    series = [np.empty((count, steps, m)) for _ in range(3)] + [np.empty((count, steps)) for _ in range(3)]
    results = [None] * count
    live = np.arange(count)   # the seed each row of the world runs
    rows = slice(None)        # where those rows are recorded; all seeds until one diverges
    block, start = [], 0      # (r, v, offsets) of steps start, start + 1, ...

    def flush():
        nonlocal start
        if block:
            stop = start + len(block)
            for out, values in zip(series, _metrics(*map(np.stack, zip(*block)), config)):
                out[rows, start:stop] = values.swapaxes(0, 1)
            block.clear()
            start = stop

    for _ in range(steps):
        world, diverged = _move(world, config)
        if diverged.any():
            flush()
            for b in live[diverged]:
                results[b] = _divergence(world.t)
            live, world = live[~diverged], world.take(~diverged)
            rows = live
            if not live.size:
                break
        world = _sense(world, config)
        block.append((world.r, world.v, world.bank.offsets))
        if len(block) == BLOCK_STEPS:
            flush()
    flush()

    t = np.arange(1, steps + 1) * config.dt
    labels = edge_labels(graph)
    for row, b in enumerate(live):
        results[b] = MetricsSeries(t, *(out[b] for out in series), desired=config.distances.values,
                                   edge_labels=labels, events=world.events[row])
    if not single:
        return tuple(results)
    if isinstance(results[0], DivergenceError):
        raise results[0]
    return results[0]


def detect_outcome(series: MetricsSeries, thresholds: OutcomeThresholds | None = None) -> str:
    """Classify the final window of a run.

    Checked in order: converged (shape and estimates both good);
    shape_ok_estimates_stale (shape good, estimates not); stuck_wrong_shape
    (everyone stopped with a sustained wrong shape); translating_drift
    (sustained centroid motion with a sustained wrong shape); otherwise
    undetermined.
    """
    th = thresholds if thresholds is not None else OutcomeThresholds()
    sl = th.window(series.steps)
    dist_dev = np.abs(series.distances[sl] - series.desired).max()
    est_err = series.est_errors[sl].max()
    wrong_shape_sustained = np.abs(series.dist_errors[sl]).max(axis=1).min() > th.error_floor
    stopped = series.max_speed[sl].max() < th.speed_tol
    drifting = series.centroid_speed[sl].min() > th.centroid_tol

    if dist_dev < th.dist_tol and est_err < th.est_tol:
        return "converged"
    if dist_dev < th.dist_tol:
        return "shape_ok_estimates_stale"
    if stopped and wrong_shape_sustained:
        return "stuck_wrong_shape"
    if drifting and wrong_shape_sustained:
        return "translating_drift"
    return "undetermined"


def _triangle_graph() -> Graph:
    return Graph.from_one_based(3, [(1, 2), (2, 3), (1, 3)])


def _equilateral(side: float, angle: float = 0.0, center=(0.0, 0.0)) -> np.ndarray:
    base = np.array([
        [0.0, 0.0],
        [side, 0.0],
        [0.5 * side, 0.5 * np.sqrt(3.0) * side],
    ])
    base = base - base.mean(axis=0)
    return base @ rotation(angle).T + np.asarray(center, dtype=float)


def scenario_nominal() -> ScenarioConfig:
    """Three agents, complete graph, target distance 10, mismatch 1.

    Random spread in a 20 x 20 box and estimator offsets within +-2; the
    shared-estimate mismatch law should settle into a rotating equilateral
    formation with converged estimates.
    """
    graph = _triangle_graph()
    return ScenarioConfig(
        graph=graph,
        distances=DesiredDistances.uniform(3, 10.0),
        variant="algorithm1",
        mismatch=MismatchConfig.uniform(3, 1.0),
        dt=0.01,
        duration=100.0,
        seed=0,
        offset_bound=2.0,
        spawn_box=20.0,
        min_separation=1.0,
    )


def scenario_issue1() -> ScenarioConfig:
    """Wrong estimates whose control contributions cancel: stuck wrong shape.

    True positions form an equilateral triangle of side 8 (every squared
    error is -36) and each agent's two estimates are antiparallel with the
    true magnitudes, so the two error-weighted terms cancel exactly: nobody
    moves, measurements match the estimated ranges, and the filters hold
    the bad directions forever.  Without relative motion nothing excites
    the unobservable tangential directions, so the wrong shape persists.
    """
    graph = _triangle_graph()
    r = _equilateral(8.0)
    directions = {0: 0.3, 1: 1.7, 2: 2.9}  # one ray per agent, otherwise arbitrary
    estimates = {}
    for i in range(3):
        u = np.array([np.cos(directions[i]), np.sin(directions[i])])
        js = sorted_neighbors(graph, i)
        for sign, j in zip((1.0, -1.0), js):
            estimates[(i, j)] = sign * np.linalg.norm(r[i] - r[j]) * u
    return ScenarioConfig(
        graph=graph,
        distances=DesiredDistances.uniform(3, 10.0),
        variant="estimated",
        dt=0.01,
        duration=10.0,
        seed=11,
        initial_positions=r,
        initial_estimates=estimates,
        initial_var=4.0 / 3.0,
        offset_bound=0.0,
    )


def scenario_issue2() -> ScenarioConfig:
    """Fixed wrong estimates driving a pure translation.

    Same wrong equilateral shape as issue 1, but each agent's two estimate
    directions are chosen so its error-weighted sum equals the common
    velocity (c, c): the whole formation translates at constant speed and
    the distance errors never change.  The estimator is off, as in issue 1;
    relative measurements would (eventually) perturb this kernel motion.
    """
    graph = _triangle_graph()
    side = 8.0
    r = _equilateral(side)
    c = 0.1
    e = side ** 2 - 10.0 ** 2
    target = np.array([c, c])
    # unit pair with u1 + u2 = -target / (side * e), split along the normal
    w = -target / (side * e)
    t = np.sqrt(1.0 - 0.25 * float(w @ w))
    n_hat = np.array([-w[1], w[0]])
    n_hat /= np.linalg.norm(n_hat)
    u_pair = (0.5 * w + t * n_hat, 0.5 * w - t * n_hat)
    estimates = {}
    for i in range(3):
        for u, j in zip(u_pair, sorted_neighbors(graph, i)):
            estimates[(i, j)] = side * u
    return ScenarioConfig(
        graph=graph,
        distances=DesiredDistances.uniform(3, 10.0),
        variant="estimated",
        dt=0.01,
        duration=8.0,
        seed=22,
        initial_positions=r,
        initial_estimates=estimates,
        initial_var=4.0 / 3.0,
        offset_bound=0.0,
        estimator_enabled=False,
    )


def scenario_issue3() -> ScenarioConfig:
    """Distances converge before the estimates do.

    Agents start close to the target shape with loosely initialized
    estimators; the shape snaps into place almost immediately, motion stops,
    and the unexcited filters keep their stale tangential errors.
    """
    graph = _triangle_graph()
    return ScenarioConfig(
        graph=graph,
        distances=DesiredDistances.uniform(3, 10.0),
        variant="estimated",
        dt=0.01,
        duration=12.0,
        seed=33,
        initial_positions=_equilateral(10.2, angle=0.4, center=(1.0, 2.0)),
        offset_bound=2.0,
    )
