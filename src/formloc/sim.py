"""Closed-loop engine that steps the seeds of one `scenario.ScenarioConfig`.

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
the output.  `scenario` says what a run is; this module only runs it.

A `WorldState` holds B seeds of one config, advancing in lockstep: the
positions, the filters and every other per-seed array have a leading seed
axis.  The filters are flat arrays in the bank order of the one-seed
`_Layout` the state carries: an offset table, a heading array and
per-degree covariance stacks, and every estimate read is a gather from the
offset table.  Phase (4) runs the filters' elementwise work (`estimator`'s
per-row part) once over the flat arrays, and their matmuls, stacked solve
and covariance algebra once per degree bucket, on views of them.  Its
measurements come in bank order too: one heading measurement per bank row,
not per agent.  `init_world(config, seeds)` builds a state and
`run(config, seeds)` steps it.
Each seed keeps its own sub-step count, generator and event log, so it
comes out exactly as it would alone; a seed that diverges leaves the
batch.  One seed is the case B = 1 of the same code.

Every agent's true heading is fixed at 0 (zero angular rate), so its
heading measurement is noise around 0, and the filters predict at zero
heading rate.  Only the group layer (`lie_group`) supports heading rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import compress

import numpy as np

from .controller import _control_law, _scatter_matrices
from .estimator import (
    EstimatorState,
    _innovations,
    _predict_degree,
    _quarter_rotations,
    _rotations,
    _update_degree,
)
from .lie_group import GroupElement
from .network import Graph, _edge_arrays, sorted_neighbors
from .scenario import MetricsSeries, OutcomeSummary, ScenarioConfig

__all__ = [
    "DivergenceError",
    "WorldState",
    "init_world",
    "run",
]

MAX_SUBSTEPS = 10000
BLOCK_STEPS = 64  # at most this many steps' metrics `run` extracts in one pass
# ... and at most this many bytes of kept (r, v, offsets), but at least one
# step.  A step of B nominal seeds keeps 192 * B bytes: 256 seeds over 12 s
# peaked at 38.4 MiB (summaries) and 65.9 MiB (series) with this budget's
# 5-step blocks, 50.8 and 78.7 MiB with 64-step ones, each in 2.0-2.2 s
# (process ru_maxrss, 2-core x86-64).  B = 16 triangles and one 20-agent,
# 37-edge graph still fill 64-step blocks.
BLOCK_BYTES = 256 * 1024


class DivergenceError(RuntimeError):
    """True positions left the representable range.

    The estimate-driven control laws follow frozen direction estimates
    between measurement updates; for unlucky estimate draws on widely
    spread agents that flow has no Lyapunov function and can escape to
    infinity within one sampling interval.  `events` is that seed's event log.
    """

    def __init__(self, message: str, events: tuple[str, ...] = ()):
        super().__init__(message)
        self.events = events


@dataclass(frozen=True, eq=False)
class _Bucket:
    """The agents of one degree n, in ascending order, and where the filter
    arrays hold them."""

    agents: np.ndarray   # (A,)
    degree: int          # n
    rows: slice          # its A rows in bank order
    slots: slice         # their A * n slots of the offset table


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where each seed of a world of a graph holds each filter, and every
    index a step gathers with along the axes after the seed axis.  Bank
    order lists the rows (agents) bucket after bucket; the offset table
    holds each row's means as n slots."""

    buckets: tuple[_Bucket, ...]
    nbrs: np.ndarray           # (slots,) the neighbor each slot tracks
    trackers: np.ndarray       # (slots,) the agent that tracks it
    range_draws: np.ndarray    # (slots,) its distance noise draw
    heading_draws: np.ndarray  # (rows,) each row's heading noise draw
    tail_slots: np.ndarray     # (edges,) slot of the tail's offset to the head
    head_slots: np.ndarray     # (edges,) slot of the head's offset to the tail
    draw_count: int            # noise draws per seed and step: degree + 1 per agent
    tails: np.ndarray          # (edges,) `network._edge_arrays`
    heads: np.ndarray
    at: np.ndarray             # (agents, edges) `controller._scatter_matrices`
    ah: np.ndarray
    diff: np.ndarray           # (edges, agents) (at - ah)^T: r_tail - r_head per edge


@lru_cache(maxsize=16)
def _layout(graph: Graph) -> _Layout:
    """Looked up only where a world is built (`init_world`); a step, and a
    world that keeps some of its seeds, reads the layout the world carries."""
    nbrs = [sorted_neighbors(graph, i) for i in range(graph.agent_count)]
    # noise draws follow agent order, as a per-agent loop draws them: the
    # agent's n distances, then its heading
    first_draw = np.cumsum([0] + [len(js) + 1 for js in nbrs])
    buckets, row, slot = [], 0, 0
    for n in sorted({len(js) for js in nbrs}):
        agents = np.array([i for i, js in enumerate(nbrs) if len(js) == n])
        buckets.append(_Bucket(agents, n, slice(row, row + len(agents)),
                               slice(slot, slot + n * len(agents))))
        row, slot = row + len(agents), slot + n * len(agents)
    order = [i for bucket in buckets for i in bucket.agents]
    slots = [(i, k, j) for i in order for k, j in enumerate(nbrs[i])]
    trackers, ks, slot_nbrs = (np.array(x) for x in zip(*slots))
    slot_of = {(i, j): s for s, (i, _, j) in enumerate(slots)}
    tails, heads = _edge_arrays(graph)
    at, ah = _scatter_matrices(graph)
    return _Layout(
        buckets=tuple(buckets),
        nbrs=slot_nbrs,
        trackers=trackers,
        range_draws=first_draw[trackers] + ks,
        heading_draws=first_draw[order] + [len(nbrs[i]) for i in order],
        tail_slots=np.array([slot_of[edge] for edge in graph.edges]),
        head_slots=np.array([slot_of[edge[::-1]] for edge in graph.edges]),
        draw_count=int(first_draw[-1]),
        tails=tails,
        heads=heads,
        at=at,
        ah=ah,
        # each row holds exactly two nonzero terms, so its product with the
        # positions is bit-identical to indexing both ends
        diff=(at - ah).T,
    )


@dataclass(eq=False)
class WorldState:
    """B seeds of one config: true positions (B, agents, 2), every agent's
    filter, the elapsed time, and one generator and one event log per seed.
    The filters lie in the bank order of `layout` after the seed axis: the
    offset table (B, slots, 2) of every tracked neighbor offset, the
    headings (B, agents), and per bucket of degree n the covariances
    (B, A, 2n+1, 2n+1).  After a step, v holds each seed's average
    velocities over it, (B, agents, 2).  A step returns a new state and
    never assigns a field of the old one, so `filters` may be cached."""

    r: np.ndarray
    layout: _Layout
    offsets: np.ndarray
    headings: np.ndarray
    covariances: tuple[np.ndarray, ...]
    t: float
    rngs: list
    events: list
    v: np.ndarray | None = None

    def bucket(self, b: int) -> tuple:
        """Bucket b's means (B, A, 2n), headings (B, A) and covariances, as
        views of the state's arrays; the means are a view of a C-contiguous
        offset table, as `init_world` and every step build it."""
        bucket = self.layout.buckets[b]
        return (self.offsets[:, bucket.slots].reshape(len(self.offsets), -1, 2 * bucket.degree),
                self.headings[:, bucket.rows], self.covariances[b])

    def take(self, keep: np.ndarray) -> "WorldState":
        """The seeds that the boolean mask `keep` selects."""
        return WorldState(r=self.r[keep], layout=self.layout, offsets=self.offsets[keep],
                          headings=self.headings[keep],
                          covariances=tuple(c[keep] for c in self.covariances), t=self.t,
                          rngs=list(compress(self.rngs, keep)),
                          events=list(compress(self.events, keep)),
                          v=None if self.v is None else self.v[keep])

    @cached_property
    def filters(self) -> tuple[EstimatorState, ...]:
        """Per-agent filter states of a one-seed world, in agent order,
        built on first read."""
        if len(self.offsets) != 1:
            raise ValueError(f"a world of {len(self.offsets)} seeds has no single set of filters")
        out = [None] * self.headings.shape[1]
        for b, bucket in enumerate(self.layout.buckets):
            means, headings, covariances = self.bucket(b)
            for row, i in enumerate(bucket.agents):
                out[i] = EstimatorState(GroupElement(means[0, row], headings[0, row]),
                                        covariances[0, row])
        return tuple(out)


def edge_labels(graph: Graph) -> tuple[str, ...]:
    """1-based edge labels like '12' for metric column names."""
    return tuple(f"{t + 1}{h + 1}" for t, h in graph.edges)


def _vector_norms(x: np.ndarray) -> np.ndarray:
    """Norm of each 2-vector along x's last axis, each computed as a dot
    product the way np.linalg.norm treats a single vector, to its last bit."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _edge_estimates(offsets: np.ndarray, layout: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """Per edge (t, h) of offset tables (..., slots, 2) in the bank order
    of `layout`, the tail's estimate of r_t - r_h and the head's of
    r_h - r_t, as (..., edges, 2) arrays."""
    return -offsets[..., layout.tail_slots, :], -offsets[..., layout.head_slots, :]


def _law_inputs(world: WorldState, config: ScenarioConfig):
    """The variant's (E_t, E_h, a) for `controller._control_law`: the frozen
    directions each edge's tail and head steer along, per seed, and the
    bias.  The ideal law steers along the true offsets, which move with the
    positions; its directions are None."""
    if config.variant == "ideal":
        return None, None, 0.0
    est_tail, est_head = _edge_estimates(world.offsets, world.layout)
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


def _control_field(world: WorldState, config: ScenarioConfig, law: tuple):
    """Velocity field r -> u with the estimate snapshot of `world` frozen
    in `law`, its `_law_inputs`; the distance errors are re-measured
    wherever the integrator evaluates it.  r and u are the seeds' positions
    and velocities side by side, flattened from (agents, 2B) (see
    `_columns`); for one seed that is its flat positions.

    It evaluates the public control laws' kernel without their per-call
    validation; a regression test holds the two bit-identical.
    """
    at, ah, diff = world.layout.at, world.layout.ah, world.layout.diff
    agents = config.graph.agent_count
    dv2, a, swap = _kernel_entries(config, len(world.r))
    tail_dirs, head_dirs, _ = law
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


def _stiffness(world: WorldState, config: ScenarioConfig, law: tuple) -> np.ndarray:
    """Per seed, an upper estimate of the Jacobian scale of the control
    field with `_law_inputs` `law`, used to pick the sub-step count that
    keeps the 4th-order scheme inside its stability region."""
    tails, heads = world.layout.tails, world.layout.heads
    z1 = world.r[:, tails] - world.r[:, heads]
    zn = np.linalg.norm(z1, axis=2)
    e = np.abs((z1 ** 2).sum(axis=2) - config.distances.values ** 2)
    tail_dirs, head_dirs, a = law
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
    (config.seed,), and an empty sequence is refused.

    Each seed s gets its own generator, np.random.default_rng(s), for all of
    its draws: its positions (`ScenarioConfig.draw_positions`), then its
    filter offsets.  Filter means come from explicit initial estimates when
    given, otherwise from per-coordinate uniform offsets of the truth within
    offset_bound, drawn agent after agent in neighbor order.  Every filter
    starts at the true heading 0 with covariance diag(var, ..., var, heading
    measurement variance), var being initial_var or else offset_bound^2 / 3,
    the variance of that draw.
    """
    seeds = (config.seed,) if seeds is None else tuple(seeds)
    if not seeds:
        raise ValueError("seeds is empty: a world needs at least one seed")
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    count, agents = len(seeds), config.graph.agent_count
    r = np.empty((count, agents, 2))
    for s, rng in enumerate(rngs):
        r[s] = config.draw_positions(rng)

    layout = _layout(config.graph)
    if config.initial_estimates is None:
        # C-contiguous, so every bucket's means are views of it: the fancy
        # indexing alone leaves the seed axis in the middle of the layout
        offsets = np.ascontiguousarray(r[:, layout.nbrs] - r[:, layout.trackers])
        # each seed draws one offset per tracked neighbor, agent after agent
        draws = [rng.uniform(-config.offset_bound, config.offset_bound,
                             size=(2 * config.graph.edge_count, 2)) for rng in rngs]
        offsets[:, np.argsort(layout.trackers, kind="stable")] += draws
    else:
        offsets = np.tile(-np.array([config.initial_estimates[pair]
                                     for pair in zip(layout.trackers, layout.nbrs)]), (count, 1, 1))
    var = config.initial_var if config.initial_var is not None else config.offset_bound ** 2 / 3.0
    hvar = config.noise.meas_heading_var
    covariances = tuple(np.tile(np.diag([var] * (2 * b.degree) + [hvar]),
                                (count, len(b.agents), 1, 1)) for b in layout.buckets)
    return WorldState(r=r, layout=layout, offsets=offsets, headings=np.zeros((count, agents)),
                      covariances=covariances, t=0.0, rngs=rngs, events=[()] * count)


def _divergence(t: float, events: tuple[str, ...]) -> DivergenceError:
    return DivergenceError(f"positions diverged during the step ending at t={t:.6g}", events)


def _move(world: WorldState, config: ScenarioConfig) -> tuple[WorldState, np.ndarray]:
    """Phases (1)-(2) for every seed: the world at its new positions, with
    its average velocities over the step and any capped sub-step count
    logged, and the mask of the seeds whose positions diverged."""
    dt = config.dt
    t_new = world.t + dt
    law = _law_inputs(world, config)
    u_of = _control_field(world, config, law)
    # a non-finite stiffness is capped like a finite one above the cap
    wanted = [max(1, math.ceil(dt * s / 2.0)) if s < math.inf else s
              for s in _stiffness(world, config, law).tolist()]
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
    """Phases (3)-(5) for every seed of a world that `_move` advanced.

    The filters' elementwise work (rotations, innovations, mean increments)
    runs once over the flat filter arrays, so the measurements are gathered
    in bank order (`_Layout`) after the seed axis: `heading_meas` holds one
    entry per bank row, not per agent.  The per-degree matrix algebra runs
    in two bucket loops, one `_predict_degree` and one `_update_degree` call
    per bucket, each on views of the filters before it; each loop fills
    fresh arrays that make up the next filters.  A refused filter keeps its
    prediction, and its update is logged in agent order."""
    if not config.estimator_enabled:
        return world
    noise, dt = config.noise, config.dt
    layout = world.layout
    # velocities and measurements of every seed and slot at once; the true
    # heading is 0, so its measurement is noise
    rel_world = world.v[:, layout.nbrs] - world.v[:, layout.trackers]
    diffs = world.r[:, layout.nbrs] - world.r[:, layout.trackers]
    ranges = 0.5 * (diffs ** 2).sum(axis=-1)
    heading_meas = np.zeros(world.headings.shape)
    if config.measurement_noise:
        draws = np.array([rng.standard_normal(layout.draw_count) for rng in world.rngs])
        ranges += np.sqrt(noise.meas_distance_var) * draws[:, layout.range_draws]
        heading_meas += np.sqrt(noise.meas_heading_var) * draws[:, layout.heading_draws]

    theta = world.headings  # no agent turns: a predict keeps the headings
    rot, quarter = _rotations(theta), _quarter_rotations(theta)
    offsets, covariances = np.empty(world.offsets.shape), []
    for b, bucket in enumerate(layout.buckets):
        means, _, cov = world.bucket(b)
        rows = bucket.rows
        v_body = rel_world[:, bucket.slots].reshape(means.shape[:-1] + (-1, 2)) @ rot[:, rows]
        p, cov = _predict_degree(means, cov, v_body.reshape(means.shape), rot[:, rows],
                                 quarter[:, rows], dt, noise)
        offsets[:, bucket.slots] = p.reshape(len(p), -1, 2)
        covariances.append(cov)
    predicted = replace(world, offsets=offsets, covariances=tuple(covariances))
    range_innov, heading_innov = _innovations(offsets, theta, ranges, heading_meas)

    offset_deltas, heading_deltas, covariances = np.empty_like(offsets), np.empty_like(theta), []
    skipped = [[] for _ in world.rngs]
    for b, bucket in enumerate(layout.buckets):
        p, _, cov = predicted.bucket(b)
        # C-contiguous: a strided innovation takes another matmul kernel,
        # whose last bits differ at B > 1
        innovation = np.empty(p.shape[:-1] + (bucket.degree + 1,))
        innovation[..., :-1] = range_innov[:, bucket.slots].reshape(len(p), -1, bucket.degree)
        innovation[..., -1] = heading_innov[:, bucket.rows]
        delta, cov, errors = _update_degree(p, cov, innovation, noise)
        offset_deltas[:, bucket.slots] = delta[..., :-1].reshape(len(delta), -1, 2)
        heading_deltas[:, bucket.rows] = delta[..., -1]
        covariances.append(cov)
        for (seed, member), exc in errors.items():
            skipped[seed].append((int(bucket.agents[member]), exc))
    events = world.events
    if any(skipped):
        events = [ev + tuple(f"t={world.t:.6g} agent={i + 1} update skipped: {exc}"
                             for i, exc in sorted(refused, key=lambda item: item[0]))
                  for ev, refused in zip(events, skipped)]
    return replace(world, offsets=offsets + offset_deltas, headings=theta + heading_deltas,
                   covariances=tuple(covariances), events=events)


def _metrics(r: np.ndarray, v: np.ndarray, offsets: np.ndarray, layout: _Layout,
             config: ScenarioConfig) -> tuple:
    """The six per-step series of `MetricsSeries`, in field order, from
    positions and velocities (..., B, agents, 2) and offset tables
    (..., B, slots, 2) in the bank order of `layout` that share their
    leading axes; each reduction runs over the same trailing axes whatever
    leads."""
    tails, heads = layout.tails, layout.heads
    est_tail, est_head = _edge_estimates(offsets, layout)
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


def run(config: ScenarioConfig, seeds=None, *, summary: bool = False):
    """Simulate duration/dt steps and record per-step metrics.

    Without `seeds`, run config.seed: return its MetricsSeries, or raise
    DivergenceError if its positions diverge.  With `seeds`, run every seed
    s of that sequence in lockstep, each exactly as
    `run(replace(config, seed=s))` runs it alone, and return a tuple with
    one entry per seed: its MetricsSeries, or the DivergenceError that
    ended it, with the message that run would raise.  A diverged seed
    is dropped; the others go on.

    With `summary`, a seed's result is its `OutcomeSummary` over the window
    of config.thresholds in place of its series, bit for bit
    `OutcomeSummary.of(series, config.thresholds)`, and no array grows with
    the step count: memory is O(edges) per seed plus one block.

    Each step's positions, velocities and offset table are kept for up to
    BLOCK_STEPS steps and BLOCK_BYTES bytes, and the metrics of those steps
    are extracted in one pass (`_metrics`) when the block fills, before a
    diverged seed leaves and after the last step.  A summary extracts only
    the window's steps and folds them into running per-seed maxima and
    minima.
    """
    single = seeds is None
    seeds = (config.seed,) if single else tuple(seeds)
    # summaries start at the window; series at the first step
    first = config.thresholds.window(config.steps).start if summary else 0
    if not seeds:
        return ()
    steps, graph = config.steps, config.graph
    count, m = len(seeds), graph.edge_count
    if count * steps * m * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"{count} seeds of {steps} steps and {m} edges: the metric series "
                         "exceed the largest array numpy can index")
    world = init_world(config, seeds)

    if summary:
        # per seed, its `OutcomeSummary.reductions` folded so far, then its
        # last centroid speed
        folds = (np.maximum, np.maximum, np.minimum, np.maximum, np.minimum)
        outs = [np.full(count, -np.inf if fold is np.maximum else np.inf) for fold in folds]
        outs.append(np.empty(count))
    else:
        # the MetricsSeries arrays in field order: three per edge, then three per step
        outs = [np.empty((count, steps, m)) for _ in range(3)] + [np.empty((count, steps)) for _ in range(3)]
    results = [None] * count
    live = np.arange(count)   # the seed each row of the world runs
    block, start = [], 0      # (r, v, offsets) of steps start, start + 1, ...
    row_bytes = world.r.nbytes * 2 + world.offsets.nbytes
    block_steps = max(1, min(BLOCK_STEPS, BLOCK_BYTES // row_bytes))

    def flush():
        nonlocal start
        stop = start + len(block)
        rows = block[max(0, first - start):]
        if rows:
            # a block ends before a seed leaves, so its steps share `live`
            metrics = _metrics(*map(np.stack, zip(*rows)), world.layout, config)
            if summary:
                reductions = OutcomeSummary.reductions(metrics, config.distances.values)
                for out, fold, values in zip(outs, folds, reductions):
                    out[live] = fold(out[live], values)
                outs[-1][live] = metrics[3][-1]
            else:
                for out, values in zip(outs, metrics):
                    out[live, stop - len(rows):stop] = values.swapaxes(0, 1)
        block.clear()
        start = stop

    for _ in range(steps):
        world, diverged = _move(world, config)
        if diverged.any():
            flush()
            for row in np.flatnonzero(diverged):
                results[live[row]] = _divergence(world.t, world.events[row])
            live, world = live[~diverged], world.take(~diverged)
            if not live.size:
                break
        world = _sense(world, config)
        block.append((world.r, world.v, world.offsets))
        if len(block) == block_steps:
            flush()
    flush()

    if summary:
        for row, b in enumerate(live):
            results[b] = OutcomeSummary(*(float(out[b]) for out in outs),
                                        window_frac=config.thresholds.window_frac,
                                        events=world.events[row])
    else:
        t = np.arange(1, steps + 1) * config.dt
        labels = edge_labels(graph)
        for row, b in enumerate(live):
            results[b] = MetricsSeries(t, *(out[b] for out in outs), desired=config.distances.values,
                                       edge_labels=labels, events=world.events[row])
    if not single:
        return tuple(results)
    if isinstance(results[0], DivergenceError):
        raise results[0]
    return results[0]
