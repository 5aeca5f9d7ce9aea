"""What a run is: its config, the paper's four cases, and the outcome labels.

`ScenarioConfig` holds and validates everything a run needs, and draws each
seed's start positions from that seed's generator.  A run's result, its
`MetricsSeries` or `OutcomeSummary`, carries the config that seed ran, and
`detect_outcome` labels the final window of a run from the result alone,
by that config's `OutcomeThresholds`: the summary holds the few reductions
over that window it reads.
The paper's four cases share one system, three agents on the complete
graph with every target distance d = 10, so each preset is that triangle
plus only the fields in which it differs from `ScenarioConfig`'s defaults.
`sim` is the engine that runs a config; it imports this module, never the
other way round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .controller import MismatchConfig
from .estimator import NoiseConfig
from .lie_group import rotation
from .network import AgentError, DesiredDistances, Graph, sorted_neighbors

__all__ = [
    "MetricsSeries",
    "OutcomeSummary",
    "OutcomeThresholds",
    "ScenarioConfig",
    "SpawnError",
    "detect_outcome",
    "scenario_issue1",
    "scenario_issue2",
    "scenario_issue3",
    "scenario_nominal",
]

VARIANTS = ("ideal", "estimated", "algorithm1")
MAX_SPAWN_DRAWS = 10000


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
        # at 0 or below a tolerance rules out the labels it admits; below 0 a
        # floor marks every run as drifting, or every shape as wrong
        for name in ("dist_tol", "est_tol", "speed_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("centroid_tol", "error_floor"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")

    def window(self, steps: int) -> slice:
        """The final steps of a run of `steps` steps that outcomes are judged on."""
        if steps * self.window_frac < 1.0:
            raise ValueError(f"a run of {steps} steps is shorter than the evaluation window "
                             f"(window_frac {self.window_frac})")
        return slice(steps - int(round(steps * self.window_frac)), steps)


def check_seed(seed) -> None:
    """Refuse a seed that is not a non-negative integer, for `ScenarioConfig`
    and for each seed of a `sim.init_world` batch: a bool or a float is not
    a seed, a numpy integer is."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


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
        # `run` holds one (steps, edges) float64 series per seed, so a count
        # numpy cannot index is refused here, before anything reads `steps`
        ratio = self.duration / self.dt
        if not math.isfinite(ratio) or round(ratio) * self.graph.edge_count * 8 > np.iinfo(np.intp).max:
            raise ValueError(f"dt {self.dt} over duration {self.duration} gives {ratio:.3g} steps, "
                             "too many for one run's (steps, edges) series")
        if self.steps < 1:
            raise ValueError(f"duration {self.duration} is shorter than one step of dt {self.dt}")
        if abs(ratio - self.steps) > 1e-9 * ratio:
            raise ValueError(f"duration {self.duration} is not a whole number of steps of dt "
                             f"{self.dt}: it gives {ratio:.6g} steps")
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
        # sqrt(max float) is the largest bound whose square is finite; comparing
        # with it, unlike squaring, cannot overflow
        if self.initial_var is None and self.offset_bound > math.sqrt(np.finfo(float).max):
            raise ValueError(f"offset_bound {self.offset_bound} gives no finite initial variance "
                             "offset_bound^2 / 3; lower it or set initial_var")
        if self.spawn_box <= 0:
            raise ValueError(f"spawn_box must be positive, got {self.spawn_box}")
        if self.min_separation < 0:
            raise ValueError(f"min_separation must be non-negative, got {self.min_separation}")
        check_seed(self.seed)
        if self.initial_var is not None and not 0.0 < self.initial_var < np.inf:
            raise ValueError(f"initial_var must be positive and finite, got {self.initial_var}")
        # from the edge ends, so a huge agent count costs no per-agent table
        covered = {a for edge in self.graph.edges for a in edge}
        if len(covered) < self.graph.agent_count:
            i = next(i for i in range(self.graph.agent_count) if i not in covered)
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

    def draw_positions(self, rng: np.random.Generator) -> np.ndarray:
        """One seed's (agents, 2) start positions: initial_positions if given,
        else uniform draws from rng in the centered spawn box until every agent
        pair is min_separation apart; SpawnError after MAX_SPAWN_DRAWS draws."""
        if self.initial_positions is not None:
            return self.initial_positions
        half = 0.5 * self.spawn_box
        for _ in range(MAX_SPAWN_DRAWS):
            r = rng.uniform(-half, half, size=(self.graph.agent_count, 2))
            if _closest_pair(r)[2] >= self.min_separation:
                return r
        raise SpawnError(f"min_separation = {self.min_separation} cannot be met "
                         f"inside spawn_box = {self.spawn_box}: no spawn in "
                         f"{MAX_SPAWN_DRAWS} draws kept every agent pair that far apart")


@dataclass(eq=False)
class MetricsSeries:
    """Per-step records extracted by `run`, one row per simulated step, and
    the config that seed ran: its graph, desired distances and thresholds."""

    t: np.ndarray
    distances: np.ndarray       # (steps, edges) inter-agent distances
    est_errors: np.ndarray      # (steps, edges) worst estimate error per edge
    dist_errors: np.ndarray     # (steps, edges) squared-distance errors e_k
    centroid_speed: np.ndarray  # (steps,)
    angular_rate: np.ndarray    # (steps,) least-squares rigid rotation rate
    max_speed: np.ndarray       # (steps,) fastest agent
    config: ScenarioConfig      # with the seed this series ran
    events: tuple[str, ...] = ()  # skipped filter updates and capped sub-steps

    @property
    def steps(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class OutcomeSummary:
    """One run's `reductions` over its final window, its last centroid
    speed, its events, and the config that seed ran, whose thresholds chose
    the window and judge the run: everything an outcome label reads, in
    O(1) memory per run."""

    dist_dev: float             # max | |r_ij| - d_k |
    est_error: float            # max estimate error
    shape_error: float          # min over the window's steps of max_k |e_k|
    max_speed: float
    min_centroid_speed: float
    last_centroid_speed: float  # of the run's last step
    config: ScenarioConfig      # with the seed this summary ran
    events: tuple[str, ...] = ()

    @staticmethod
    def reductions(metrics, config: ScenarioConfig) -> tuple:
        """The first five fields from the six per-step series of
        `MetricsSeries` in field order, each reduced over its first (step)
        axis and its edges, against config's desired distances.  Maxima and
        minima are exact, so reducing a window block by block and folding
        the blocks with np.maximum and np.minimum gives the same bits, NaN
        included."""
        distances, est_errors, dist_errors, centroid_speed, _, max_speed = metrics
        return (np.abs(distances - config.distances.values).max(axis=(0, -1)),
                est_errors.max(axis=(0, -1)),
                np.abs(dist_errors).max(axis=-1).min(axis=0),
                max_speed.max(axis=0),
                centroid_speed.min(axis=0))

    @classmethod
    def of(cls, series: MetricsSeries) -> "OutcomeSummary":
        """The summary of a series over the window of its config's thresholds."""
        sl = series.config.thresholds.window(series.steps)
        metrics = (series.distances[sl], series.est_errors[sl], series.dist_errors[sl],
                   series.centroid_speed[sl], series.angular_rate[sl], series.max_speed[sl])
        return cls(*map(float, cls.reductions(metrics, series.config)),
                   last_centroid_speed=float(series.centroid_speed[-1]),
                   config=series.config, events=series.events)


def detect_outcome(result: MetricsSeries | OutcomeSummary) -> str:
    """Classify the final window of a run, given as its series or as its
    `OutcomeSummary`, by the thresholds of the config it carries; to judge
    it by others, replace that config's thresholds.

    Checked in order: converged (shape and estimates both good);
    shape_ok_estimates_stale (shape good, estimates not); stuck_wrong_shape
    (everyone stopped with a sustained wrong shape); translating_drift
    (sustained centroid motion with a sustained wrong shape); otherwise
    undetermined.
    """
    s = result if isinstance(result, OutcomeSummary) else OutcomeSummary.of(result)
    th = s.config.thresholds
    wrong_shape_sustained = s.shape_error > th.error_floor
    stopped = s.max_speed < th.speed_tol
    drifting = s.min_centroid_speed > th.centroid_tol

    if s.dist_dev < th.dist_tol and s.est_error < th.est_tol:
        return "converged"
    if s.dist_dev < th.dist_tol:
        return "shape_ok_estimates_stale"
    if stopped and wrong_shape_sustained:
        return "stuck_wrong_shape"
    if drifting and wrong_shape_sustained:
        return "translating_drift"
    return "undetermined"


_TRIANGLE = Graph.from_one_based(3, [(1, 2), (2, 3), (1, 3)])


def _triangle(**fields) -> ScenarioConfig:
    """A config on the 3-agent complete graph with every target distance 10,
    the system of all four presets; `fields` are what sets a preset apart
    from `ScenarioConfig`'s defaults."""
    return ScenarioConfig(graph=_TRIANGLE, distances=DesiredDistances.uniform(3, 10.0), **fields)


def _equilateral(side: float, angle: float = 0.0, center=(0.0, 0.0)) -> np.ndarray:
    base = np.array([
        [0.0, 0.0],
        [side, 0.0],
        [0.5 * side, 0.5 * np.sqrt(3.0) * side],
    ])
    base = base - base.mean(axis=0)
    return base @ rotation(angle).T + np.asarray(center, dtype=float)


def _held(r: np.ndarray, estimates: dict, **fields) -> ScenarioConfig:
    """issue1's and issue2's setup: the estimated law from the pinned
    positions r and estimates, every filter started with variance 4/3 and
    no drawn offset."""
    return _triangle(variant="estimated", initial_positions=r, initial_estimates=estimates,
                     initial_var=4.0 / 3.0, offset_bound=0.0, **fields)


def scenario_nominal() -> ScenarioConfig:
    """Three agents, complete graph, target distance 10, mismatch 1.

    Random spread in a 20 x 20 box and estimator offsets within +-2; the
    shared-estimate mismatch law aims at a rotating equilateral formation
    with converged estimates.  Not every spawn seed gets there: under this
    version's sub-step rule, seeds 0-255 at 12 s
    (`python3 scripts/seed_sweep.py --seeds 256 --duration 12`) give 187
    converged, 36 shape_ok_estimates_stale, 23 translating_drift and 10
    diverged.
    """
    return _triangle(mismatch=MismatchConfig.uniform(3, 1.0))


def scenario_issue1() -> ScenarioConfig:
    """Wrong estimates whose control contributions cancel: stuck wrong shape.

    True positions form an equilateral triangle of side 8 (every squared
    error is -36) and each agent's two estimates are antiparallel with the
    true magnitudes, so the two error-weighted terms cancel exactly: nobody
    moves, measurements match the estimated ranges, and the filters hold
    the bad directions forever.  Without relative motion nothing excites
    the unobservable tangential directions, so the wrong shape persists.
    """
    r = _equilateral(8.0)
    directions = {0: 0.3, 1: 1.7, 2: 2.9}  # one ray per agent, otherwise arbitrary
    estimates = {}
    for i in range(3):
        u = np.array([np.cos(directions[i]), np.sin(directions[i])])
        js = sorted_neighbors(_TRIANGLE, i)
        for sign, j in zip((1.0, -1.0), js):
            estimates[(i, j)] = sign * np.linalg.norm(r[i] - r[j]) * u
    return _held(r, estimates, duration=10.0, seed=11)


def scenario_issue2() -> ScenarioConfig:
    """Fixed wrong estimates driving a pure translation.

    Same wrong equilateral shape as issue 1, but each agent's two estimate
    directions are chosen so its error-weighted sum equals the common
    velocity (c, c): the whole formation translates at constant speed and
    the distance errors never change.  The estimator is off: relative
    measurements would (eventually) perturb this kernel motion.  In issue 1
    the filters run, but its ranges match its estimated ranges, so they keep
    the wrong directions.
    """
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
        for u, j in zip(u_pair, sorted_neighbors(_TRIANGLE, i)):
            estimates[(i, j)] = side * u
    return _held(r, estimates, duration=8.0, seed=22, estimator_enabled=False)


def scenario_issue3() -> ScenarioConfig:
    """Distances converge before the estimates do.

    Agents start close to the target shape with loosely initialized
    estimators; the shape snaps into place almost immediately, motion stops,
    and the unexcited filters keep their stale tangential errors.
    """
    return _triangle(variant="estimated", duration=12.0, seed=33,
                     initial_positions=_equilateral(10.2, angle=0.4, center=(1.0, 2.0)))
