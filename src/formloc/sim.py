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

A `WorldState` holds B seeds of one config, advancing in lockstep, and
carries that config: every phase takes the world alone and reads dt, the
noise and the variant from it, so no step pairs a world with another
config.  The positions, the filters and every other per-seed array have a
leading seed axis.  The filters are flat arrays in the bank order of the
one-seed `_Layout` the state carries: an offset table, a heading array and
per-degree covariance stacks, and every estimate read is a gather from the
offset table.  The layout's buckets also carry each degree's filter
constants, built with the world.  Phase (4) builds the heading rotations (`lie_group`) and
runs the innovations (`estimator`'s per-row part) once over the flat
arrays, and per degree bucket one predict, on views of the filters, and
one update, on that predict's own means and covariances; the update adds
its increments bucket by bucket into the next state's arrays.  Its
measurements come in bank order too: one heading measurement per bank row,
not per agent.  `init_world(config, seeds)` builds a state and
`run(config, seeds)` steps it.  `run` is one step loop
(`_run`) that extracts the metrics of a block of steps at a time and hands
them to one of two reducers: `_series` stores them as each seed's
`MetricsSeries`, `_summary` folds the outcome window's steps into each
seed's `OutcomeSummary`.
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

from .controller import _control_law
from .estimator import EstimatorState, _constants, _innovations, _predict_degree, _update_degree
from .lie_group import GroupElement, _quarter_rotations, rotation
from .network import Graph
from .scenario import MetricsSeries, OutcomeSummary, ScenarioConfig, check_seed

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
# 37-edge graph still fill 64-step blocks.  Extracting a block (`_metrics`)
# briefly allocates about 2.4 times its kept bytes again (tracemalloc: a
# 115 KiB peak for 64 steps of 4 nominal seeds, which keep 48 KiB), so a
# full block can need about 0.9 MiB in all.
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
    """The agents of one degree n, in ascending order, where the filter
    arrays hold them, and the arrays their filters share
    (`estimator._constants`), built with the world for its noise and dt."""

    agents: np.ndarray   # (A,)
    degree: int          # n
    rows: slice          # its A rows in bank order
    slots: slice         # their A * n slots of the offset table
    constants: tuple     # the degree's `_constants(n, config.noise, config.dt)`


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where each seed of a world of a graph holds each filter, and the
    indices a step gathers its filter arrays with along the axes after the
    seed axis.  Bank order lists the rows (agents) bucket after bucket; the
    offset table holds each row's means as n slots.  `diff` forms every
    edge offset r_tail - r_head the engine reads; the scatter arrays are the
    graph's own (`Graph.scatter`), which a step reads from
    `world.config.graph`, an attribute load rather than a lookup."""

    buckets: tuple[_Bucket, ...]
    nbrs: np.ndarray           # (slots,) the neighbor each slot tracks
    trackers: np.ndarray       # (slots,) the agent that tracks it
    range_draws: np.ndarray    # (slots,) its distance noise draw
    heading_draws: np.ndarray  # (rows,) each row's heading noise draw
    tail_slots: np.ndarray     # (edges,) slot of the tail's offset to the head
    head_slots: np.ndarray     # (edges,) slot of the head's offset to the tail
    draw_count: int            # noise draws per seed and step: degree + 1 per agent
    diff: np.ndarray           # (edges, agents) (at - ah)^T: r_tail - r_head per edge


def _layout(config: ScenarioConfig) -> _Layout:
    """The layout of config's graph, its buckets carrying each degree's
    filter constants for config's noise and dt.  Built only where a world
    is built (`init_world`); a step, and a world that keeps some of its
    seeds, reads the layout the world carries, so no step looks a constant
    up by the graph or the noise."""
    nbrs = config.graph.adjacency
    # noise draws follow agent order, as a per-agent loop draws them: the
    # agent's n distances, then its heading
    first_draw = np.cumsum([0] + [len(js) + 1 for js in nbrs])
    buckets, row, slot = [], 0, 0
    for n in sorted({len(js) for js in nbrs}):
        agents = np.array([i for i, js in enumerate(nbrs) if len(js) == n])
        rows, slots = slice(row, row + len(agents)), slice(slot, slot + n * len(agents))
        buckets.append(_Bucket(agents, n, rows, slots, _constants(n, config.noise, config.dt)))
        row, slot = rows.stop, slots.stop
    order = [i for bucket in buckets for i in bucket.agents]
    slots = [(i, k, j) for i in order for k, j in enumerate(nbrs[i])]
    trackers, ks, slot_nbrs = (np.array(x) for x in zip(*slots))
    slot_of = {(i, j): s for s, (i, _, j) in enumerate(slots)}
    return _Layout(
        buckets=tuple(buckets),
        nbrs=slot_nbrs,
        trackers=trackers,
        range_draws=first_draw[trackers] + ks,
        heading_draws=first_draw[order] + [len(nbrs[i]) for i in order],
        tail_slots=np.array([slot_of[edge] for edge in config.graph.edges]),
        head_slots=np.array([slot_of[edge[::-1]] for edge in config.graph.edges]),
        draw_count=int(first_draw[-1]),
        # each row holds exactly two nonzero terms, 1 and -1, so its product
        # with finite positions is r_tail - r_head to the last bit, but for
        # the sign of an exact zero (always +0); `_stiffness` and `_metrics`
        # only square the offsets and their differences from estimates
        diff=np.subtract(*config.graph.scatter).T,
    )


@dataclass(eq=False)
class WorldState:
    """B seeds of `config`: true positions (B, agents, 2), every agent's
    filter, the elapsed time, and one generator and one event log per seed.
    The filters lie in the bank order of `layout` after the seed axis: the
    offset table (B, slots, 2) of every tracked neighbor offset, the
    headings (B, agents), and per bucket of degree n the covariances
    (B, A, 2n+1, 2n+1).  After a step, v holds each seed's average
    velocities over it, (B, agents, 2).  A step returns a new state and
    never assigns a field of the old one, so `filters` may be cached.  A
    step reads dt, the noise and the variant from `config`, the config the
    world was built from, whose noise and dt its layout's filter constants
    hold."""

    config: ScenarioConfig
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
        """The seeds that the boolean mask `keep` selects; the config, the
        layout and the time are the world's own."""
        return replace(self, r=self.r[keep], offsets=self.offsets[keep], headings=self.headings[keep],
                       covariances=tuple(c[keep] for c in self.covariances),
                       rngs=list(compress(self.rngs, keep)), events=list(compress(self.events, keep)),
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
    """1-based edge labels for metric column names: '12' for agents 1 and
    2, and from 10 agents up '1_12', as joined digits could name two edges."""
    sep = "_" if graph.agent_count >= 10 else ""
    return tuple(f"{t + 1}{sep}{h + 1}" for t, h in graph.edges)


def _vector_norms(x: np.ndarray) -> np.ndarray:
    """Norm of each 2-vector along x's last axis, each computed as a dot
    product the way np.linalg.norm treats a single vector, to its last bit."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _law_inputs(world: WorldState):
    """The (E_t, E_h) of the world's variant for `controller._control_law`:
    the frozen directions each edge's tail and head steer along, per seed.
    The ideal law steers along the true offsets, which move with the
    positions; its directions are None.  Algorithm 1's E_t and E_h are one
    array, and its readers transpose and normalize that array once.  The
    bias is not a law input: `_kernel_entries` and `_stiffness` read it
    from `world.config.mismatch`."""
    if world.config.variant == "ideal":
        return None, None
    est_tail = -world.offsets[:, world.layout.tail_slots]
    if world.config.variant == "estimated":
        # minus the head's estimate, -(-offset), is the offset itself
        return est_tail, world.offsets[:, world.layout.head_slots]
    return est_tail, est_tail


def _columns(x: np.ndarray) -> np.ndarray:
    """(B, k, 2) per-seed rows as (k, 2B): seed b in columns 2b and 2b + 1."""
    return x.swapaxes(0, 1).reshape(x.shape[1], -1)


@lru_cache(maxsize=8)
def _kernel_entries(config: ScenarioConfig, seeds: int) -> tuple:
    """For B seeds side by side in the control kernel, flattened from
    (edges, 2B): each entry's squared desired distance and bias, and the
    index of the other coordinate of its (x, y) pair.  Last, for
    `_stiffness`, the flat (seed, agent) index of each edge's tail and then
    head, seed after seed.  It stays a cache keyed on (config, B) because
    each alternative measured worse on a 2-core x86-64 box: a 2-D kernel
    with (edges, 1) columns took 4.5-5.3 µs per field evaluation against
    3.1 µs (nominal 12 s at B = 1 15-20 % slower), rebuilding the entries
    every step 4.5 µs each (+3-4 %), and carrying them on the world, sliced
    by `take`, more code."""
    per_edge = 2 * seeds
    a = np.repeat(config.mismatch.values, per_edge) if config.mismatch is not None else 0.0
    swap = np.arange(config.graph.edge_count * per_edge) ^ 1
    scatter = np.arange(seeds)[:, None] * config.graph.agent_count + np.concatenate(config.graph.ends)
    return np.repeat(config.distances.values ** 2, per_edge), a, swap, scatter.ravel()


def _control_field(world: WorldState, law: tuple):
    """Velocity field r -> u of the world's config with the estimate
    snapshot of `world` frozen in `law`, its `_law_inputs`; the distance
    errors are re-measured wherever the integrator evaluates it.  r and u
    are the seeds' positions and velocities side by side, flattened from
    (agents, 2B) (see `_columns`); for one seed that is its flat positions.

    It evaluates the public control laws' kernel without their per-call
    validation; a regression test holds the two bit-identical.
    """
    (at, ah), diff = world.config.graph.scatter, world.layout.diff
    agents = world.config.graph.agent_count
    dv2, a, swap, _ = _kernel_entries(world.config, len(world.r))
    tail_dirs, head_dirs = law
    dirs = None
    if tail_dirs is not None:
        tail = _columns(tail_dirs).ravel()
        dirs = tail, tail if head_dirs is tail_dirs else _columns(head_dirs).ravel()

    def field(r):
        # .dot: the gemm of @ without its dispatch cost (see _control_law)
        z = diff.dot(r.reshape(agents, -1)).ravel()
        sq = z * z
        # x^2 + y^2 in both entries of each pair: a sum of two terms is the
        # same either way round
        e = sq + sq[swap] - dv2
        return _control_law(at, ah, *(dirs or (z, z)), e, a)
    return field


def _stiffness(world: WorldState, law: tuple) -> np.ndarray:
    """Per seed, s: the largest over agents of the sum, over the agent's
    edges, of 2 |E| |z| + |e| + |a| for the control field with
    `_law_inputs` `law`, |E| being the larger norm of the edge's two
    directions and a the edge's bias, read from `world.config.mismatch` as
    `_kernel_entries` reads it for the field (0 without a mismatch).
    `_move` takes n = ceil(dt s / 2) sub-steps.  s is no upper bound of the
    field Jacobian's spectral radius (0.67 of it at the median on nominal
    seeds 0-7), but there n came to 1.04 times the sub-steps that linear
    stability of the 4th-order scheme needs."""
    sq = ((world.layout.diff @ world.r) ** 2).sum(axis=2)
    zn = np.sqrt(sq)  # np.linalg.norm's own sum, to the last bit
    e = np.abs(sq - world.config.distances.values ** 2)
    tail_dirs, head_dirs = law
    if tail_dirs is None:
        dirs = zn
    else:
        dirs = _vector_norms(tail_dirs)
        if head_dirs is not tail_dirs:
            dirs = np.maximum(dirs, _vector_norms(head_dirs))
    a = world.config.mismatch.values if world.config.mismatch is not None else 0.0
    per_edge = 2.0 * dirs * zn + e + np.abs(a)
    seeds, agents = world.r.shape[:2]
    # tails then heads, each in edge order: the sums a per-edge loop makes
    per_agent = np.bincount(_kernel_entries(world.config, seeds)[-1],
                            np.concatenate((per_edge, per_edge), axis=1).ravel(), seeds * agents)
    return per_agent.reshape(seeds, agents).max(axis=1)


def _integrate(u_of, r: np.ndarray, dt: float, substeps) -> np.ndarray:
    """Classical 4th-order scheme over dt in `substeps` equal sub-steps.

    `substeps` is one int for every entry of r, or an array of them.  With
    one count per entry of r every entry takes its sub-steps in the
    same rounds, each with its own h = dt/n; an entry whose count is reached
    holds its value while the rest go on, so each ends exactly where it
    would alone.
    """
    if isinstance(substeps, int):
        # a Python float h: the same IEEE arithmetic as a numpy scalar
        everyone = rounds = substeps
    else:
        everyone, rounds = substeps.min(), substeps.max()
    h = dt / substeps
    half_h, sixth_h = 0.5 * h, h / 6.0
    for k in range(rounds):
        k1 = u_of(r)
        k2 = u_of(r + half_h * k1)
        k3 = u_of(r + half_h * k2)
        k4 = u_of(r + h * k3)
        r_next = r + sixth_h * (k1 + (k2 + k2) + (k3 + k3) + k4)
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
        check_seed(seed)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    count, agents = len(seeds), config.graph.agent_count
    r = np.empty((count, agents, 2))
    for s, rng in enumerate(rngs):
        r[s] = config.draw_positions(rng)

    layout = _layout(config)
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
    return WorldState(config=config, r=r, layout=layout, offsets=offsets,
                      headings=np.zeros((count, agents)), covariances=covariances, t=0.0,
                      rngs=rngs, events=[()] * count)


def _divergence(t: float, events: tuple[str, ...]) -> DivergenceError:
    return DivergenceError(f"positions diverged during the step ending at t={t:.6g}", events)


def _move(world: WorldState) -> tuple[WorldState, np.ndarray]:
    """Phases (1)-(2) for every seed: the world at its new positions, with
    its average velocities over the step and any capped sub-step count
    logged, and the mask of the seeds whose positions diverged."""
    dt = world.config.dt
    t_new = world.t + dt
    law = _law_inputs(world)
    u_of = _control_field(world, law)
    # a non-finite dt * s / 2, from a non-finite stiffness or an overflowing
    # product, is capped like a finite one above the cap
    wanted = [max(1, math.ceil(x)) if x < math.inf else x
              for x in [dt * s / 2.0 for s in _stiffness(world, law).tolist()]]
    substeps = [w if w <= MAX_SUBSTEPS else MAX_SUBSTEPS for w in wanted]
    events = world.events
    if wanted != substeps:
        capped = f"t={t_new:.6g} substeps capped at {MAX_SUBSTEPS}, stiffness asked for"
        events = [ev if w == n else ev + (f"{capped} {w}",)
                  for ev, w, n in zip(events, wanted, substeps)]
    agents = world.config.graph.agent_count
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


def _sense(world: WorldState) -> WorldState:
    """Phases (3)-(5) for every seed of a world that `_move` advanced.

    The rotations (`lie_group.rotation`, `lie_group._quarter_rotations`) and
    the innovations run once over the flat filter arrays, so the
    measurements are gathered in bank order (`_Layout`) after the seed
    axis: `heading_meas` holds one entry per bank row, not per agent.  The
    per-degree matrix algebra runs in two bucket loops, both handed each
    bucket's constants (`_Bucket.constants`).  The first reads
    each bucket's views of the filters once and keeps its `_predict_degree`
    means and covariances; the flat innovations read those means from a
    fresh offset table.  The second hands each bucket's prediction to
    `_update_degree` and writes p + delta and theta + delta into that table
    and a fresh heading array, which make up the next filters with the new
    covariances.  A refused filter keeps its prediction, and its update is
    logged in agent order."""
    if not world.config.estimator_enabled:
        return world
    layout, config = world.layout, world.config
    # velocities and measurements of every seed and slot at once; the true
    # heading is 0, so its measurement is noise
    rel_world = world.v[:, layout.nbrs] - world.v[:, layout.trackers]
    diffs = world.r[:, layout.nbrs] - world.r[:, layout.trackers]
    ranges = 0.5 * (diffs ** 2).sum(axis=-1)
    heading_meas = np.zeros(world.headings.shape)
    if config.measurement_noise:
        draws = np.array([rng.standard_normal(layout.draw_count) for rng in world.rngs])
        ranges += np.sqrt(config.noise.meas_distance_var) * draws[:, layout.range_draws]
        heading_meas += np.sqrt(config.noise.meas_heading_var) * draws[:, layout.heading_draws]

    theta = world.headings  # no agent turns: a predict keeps the headings
    rot, quarter = rotation(theta), _quarter_rotations(theta)
    offsets, predicted = np.empty(world.offsets.shape), []
    for b, bucket in enumerate(layout.buckets):
        means, _, cov = world.bucket(b)
        rows = bucket.rows
        v_body = rel_world[:, bucket.slots].reshape(means.shape[:-1] + (-1, 2)) @ rot[:, rows]
        p, cov = _predict_degree(means, cov, v_body.reshape(means.shape), rot[:, rows],
                                 quarter[:, rows], config.dt, bucket.constants)
        offsets[:, bucket.slots] = p.reshape(len(p), -1, 2)
        predicted.append((p, cov))
    range_innov, heading_innov = _innovations(offsets, theta, ranges, heading_meas)

    # the innovations were the predicted table's last reader
    headings, covariances = np.empty_like(theta), []
    skipped = [[] for _ in world.rngs]
    for bucket, (p, cov) in zip(layout.buckets, predicted):
        # C-contiguous: a strided innovation takes another matmul kernel,
        # whose last bits differ at B > 1
        innovation = np.empty(p.shape[:-1] + (bucket.degree + 1,))
        innovation[..., :-1] = range_innov[:, bucket.slots].reshape(len(p), -1, bucket.degree)
        innovation[..., -1] = heading_innov[:, bucket.rows]
        delta, cov, errors = _update_degree(p, cov, innovation, bucket.constants)
        offsets[:, bucket.slots] = (p + delta[..., :-1]).reshape(len(p), -1, 2)
        headings[:, bucket.rows] = theta[:, bucket.rows] + delta[..., -1]
        covariances.append(cov)
        for (seed, member), exc in errors.items():
            skipped[seed].append((int(bucket.agents[member]), exc))
    events = world.events
    if any(skipped):
        events = [ev + tuple(f"t={world.t:.6g} agent={i + 1} update skipped: {exc}"
                             for i, exc in sorted(refused, key=lambda item: item[0]))
                  for ev, refused in zip(events, skipped)]
    return replace(world, offsets=offsets, headings=headings, covariances=tuple(covariances),
                   events=events)


def _metrics(r: np.ndarray, v: np.ndarray, offsets: np.ndarray, world: WorldState) -> tuple:
    """The six per-step series of `MetricsSeries`, in field order, from
    positions and velocities (..., B, agents, 2) and offset tables
    (..., B, slots, 2) of `world`'s seeds, in the bank order of its layout,
    that share their leading axes; each reduction runs over the same
    trailing axes whatever leads.  The desired distances are its config's."""
    layout = world.layout
    # per edge, the tail's estimate of r_t - r_h and the head's of r_h - r_t
    est_tail, est_head = -offsets[..., layout.tail_slots, :], -offsets[..., layout.head_slots, :]
    v_mean = v.mean(axis=-2)
    z1 = layout.diff @ r
    centered = r - r.mean(axis=-2, keepdims=True)
    v_rel = v - v_mean[..., None, :]
    denom = (centered ** 2).sum(axis=(-2, -1))
    spin = (centered[..., 0] * v_rel[..., 1] - centered[..., 1] * v_rel[..., 0]).sum(axis=-1)
    return (np.linalg.norm(z1, axis=-1),
            np.maximum(_vector_norms(est_tail - z1), _vector_norms(est_head + z1)),
            (z1 ** 2).sum(axis=-1) - world.config.distances.values ** 2,
            _vector_norms(v_mean),
            np.divide(spin, denom, out=np.zeros_like(spin), where=denom > 0),
            np.linalg.norm(v, axis=-1).max(axis=-1))


def _series(config: ScenarioConfig, count: int) -> tuple:
    """`_run`'s reducer for series: from the first step, each block's
    metrics go into `count` seeds' `MetricsSeries` arrays."""
    steps, m = config.steps, config.graph.edge_count
    # the MetricsSeries arrays in field order: three per edge, then three per step
    outs = [np.empty((count, steps, m)) for _ in range(3)] + [np.empty((count, steps)) for _ in range(3)]
    # shared by every seed's series; no times for a batch of no seeds
    t = np.arange(1, steps + 1) * config.dt if count else None

    def fold(live, stop, metrics):
        for out, values in zip(outs, metrics):
            out[live, stop - len(values):stop] = values.swapaxes(0, 1)

    def result(b, seed_config, events):
        return MetricsSeries(t, *(out[b] for out in outs), config=seed_config, events=events)
    return 0, fold, result


def _summary(config: ScenarioConfig, count: int) -> tuple:
    """`_run`'s reducer for summaries: from the window's first step, each
    block's `OutcomeSummary.reductions` fold into `count` seeds' running
    maxima and minima, and its last step's centroid speed is kept."""
    # per seed, its `OutcomeSummary.reductions` folded so far, then its last
    # centroid speed
    folds = (np.maximum, np.maximum, np.minimum, np.maximum, np.minimum)
    outs = [np.full(count, -np.inf if f is np.maximum else np.inf) for f in folds] + [np.empty(count)]

    def fold(live, stop, metrics):
        for out, f, x in zip(outs, folds, OutcomeSummary.reductions(metrics, config)):
            out[live] = f(out[live], x)
        outs[-1][live] = metrics[3][-1]

    def result(b, seed_config, events):
        return OutcomeSummary(*(float(out[b]) for out in outs), config=seed_config, events=events)
    return config.thresholds.window(config.steps).start, fold, result


def run(config: ScenarioConfig, seeds=None, *, summary: bool = False):
    """Simulate duration/dt steps and record per-step metrics.

    Without `seeds`, run config.seed: return its MetricsSeries, which
    carries `config`, or raise DivergenceError if its positions diverge.
    With `seeds`, run every seed s of that sequence in lockstep, each
    exactly as `run(replace(config, seed=s))` runs it alone, and return a
    tuple with one entry per seed: its MetricsSeries, carrying
    `replace(config, seed=s)` (`config` itself when s is config.seed), or
    the DivergenceError that ended it, with the message that run would
    raise.  A diverged seed is dropped; the others go on.

    With `summary`, a seed's result is its `OutcomeSummary` over the window
    of config.thresholds in place of its series, bit for bit
    `OutcomeSummary.of(series)`, carrying the same config, and no array
    grows with the step count: memory is O(edges) per seed plus one block.

    Each step's positions, velocities and offset table are kept for up to
    BLOCK_STEPS steps and BLOCK_BYTES bytes, and the metrics of those steps
    are extracted in one pass (`_metrics`) when the block fills, before a
    diverged seed leaves and after the last step.  One step loop (`_run`)
    serves both modes; a reducer, `_series` or `_summary`, says from which
    step it reads and folds each block's metrics into its own arrays: the
    series, or running per-seed maxima and minima of the window's steps.
    """
    return _run(config, seeds, _summary if summary else _series)


def _run(config: ScenarioConfig, seeds, reducer):
    """`run`'s step loop, its results made by `reducer`.

    `reducer(config, count)` is called once, before the world is built,
    and returns (first, fold, result): the first step (0-based) whose
    metrics it reads; `fold(live, stop, metrics)`, which takes the
    `_metrics` of one block's steps from `first` on and before step `stop`
    (0-based), for the seeds `live` that the world's rows run; and
    `result(b, seed_config, events)`, seed b's result, carrying the config
    it ran, once its last step is folded.  A seed that diverges gets its
    DivergenceError in place of a result."""
    single = seeds is None
    seeds = (config.seed,) if single else tuple(seeds)
    steps, m, count = config.steps, config.graph.edge_count, len(seeds)
    # a summary run takes only the batches whose series a series run could
    # hold, so that the two modes accept the same batches
    if count * steps * m * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"{count} seeds of {steps} steps and {m} edges: their metric series "
                         "would exceed the largest array numpy can index, and run refuses "
                         "such a batch with or without summary")
    # before the empty batch: a summary of a run shorter than its window is
    # refused for no seeds too
    first, fold, result = reducer(config, count)
    if not seeds:
        return ()
    world = init_world(config, seeds)

    results = [None] * count
    live = np.arange(count)   # the seed each row of the world runs
    block, start = [], 0      # (r, v, offsets) of steps start, start + 1, ...
    block_steps = max(1, min(BLOCK_STEPS, BLOCK_BYTES // (world.r.nbytes * 2 + world.offsets.nbytes)))

    def flush():
        nonlocal start
        stop = start + len(block)
        rows = block[max(0, first - start):]
        if rows:
            # a block ends before a seed leaves, so its steps share `live`
            fold(live, stop, _metrics(*map(np.stack, zip(*rows)), world))
        block.clear()
        start = stop

    for _ in range(steps):
        world, diverged = _move(world)
        if diverged.any():
            flush()
            for row in np.flatnonzero(diverged):
                results[live[row]] = _divergence(world.t, world.events[row])
            live, world = live[~diverged], world.take(~diverged)
            if not live.size:
                break
        world = _sense(world)
        block.append((world.r, world.v, world.offsets))
        if len(block) == block_steps:
            flush()
    flush()

    for row, b in enumerate(live):
        seed = seeds[b]
        results[b] = result(b, config if seed == config.seed else replace(config, seed=seed),
                            world.events[row])
    if not single:
        return tuple(results)
    if isinstance(results[0], DivergenceError):
        raise results[0]
    return results[0]
