"""Closed-loop engine: config validation, physics invariants, the pinned
fast-path regression, outcome classification, and the scenario presets.

Tolerances on frozen scenario numbers are loose on purpose; the pinned
facts are the outcome labels and orders of magnitude, not exact floats.
"""

import math
import re

import numpy as np
import pytest
from dataclasses import fields, replace
from hypothesis import given, settings, strategies as st

from formloc.controller import (
    MismatchConfig,
    estimated_control,
    ideal_control,
    mismatch_control,
)
from formloc.estimator import EstimatorState, NoiseConfig
from formloc.lie_group import GroupElement, rotation
from formloc.network import DesiredDistances, Graph, distance_errors, edge_offsets, sorted_neighbors
from formloc.scenario import (
    MetricsSeries,
    OutcomeSummary,
    OutcomeThresholds,
    ScenarioConfig,
    SpawnError,
    detect_outcome,
    scenario_issue1,
    scenario_issue2,
    scenario_issue3,
    scenario_nominal,
)
from formloc.sim import DivergenceError, _control_field, _law_inputs, edge_labels, init_world, run
from oracles import bank_of, estimate_of, initialize, step
from test_bank import rigid_graph, rigid_scenarios, shaped_config


def _basic_config(graph, **kw):
    defaults = dict(
        graph=graph,
        distances=DesiredDistances.uniform(graph.edge_count, 10.0),
        variant="algorithm1",
        mismatch=MismatchConfig.uniform(graph.edge_count, 1.0),
        dt=0.01,
        duration=1.0,
        seed=0,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


# -------------------------------------------------------------- validation


def test_config_rejects_bad_combinations(triangle):
    good = dict(graph=triangle, distances=DesiredDistances.uniform(3, 10.0))
    with pytest.raises(ValueError):
        ScenarioConfig(variant="nope", **good)
    with pytest.raises(ValueError):
        ScenarioConfig(variant="algorithm1", mismatch=None, **good)
    with pytest.raises(ValueError):
        ScenarioConfig(variant="algorithm1", mismatch=MismatchConfig.uniform(2, 1.0), **good)
    with pytest.raises(ValueError):
        ScenarioConfig(variant="estimated", mismatch=MismatchConfig.uniform(3, 1.0), **good)
    with pytest.raises(ValueError):
        _basic_config(triangle, dt=0.0)
    with pytest.raises(ValueError):
        _basic_config(triangle, duration=-1.0)
    with pytest.raises(ValueError, match="^duration 5.14 is not a whole number of steps"):
        _basic_config(triangle, duration=5.14, dt=0.3)
    # ratios a few ulps off a whole count still pass
    for duration, steps in ((100.0, 10000), (0.03, 3), (1.31, 131), (4.0, 400)):
        assert _basic_config(triangle, duration=duration).steps == steps
    with pytest.raises(ValueError):
        _basic_config(triangle, distances=DesiredDistances.uniform(2, 10.0))
    with pytest.raises(ValueError):
        _basic_config(triangle, offset_bound=-0.1)
    with pytest.raises(ValueError):
        _basic_config(triangle, spawn_box=0.0)


@pytest.mark.parametrize("name", ["dt", "duration", "offset_bound", "spawn_box",
                                  "min_separation"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_config_rejects_nonfinite_scalars(triangle, name, value):
    # nan slipped past every sign check; inf ended in an OverflowError
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        _basic_config(triangle, **{name: value})


@pytest.mark.parametrize("seed, shown", [(True, "True"), (False, "False"), (2.0, "2.0"),
                                         (np.float64(2.0), repr(np.float64(2.0))), ("3", "'3'")])
def test_config_and_world_refuse_a_non_integer_seed(triangle, seed, shown):
    # True ran as seed 1 and wrote `seed = true`, a manifest the loader then
    # refused; 2.0 failed inside numpy's SeedSequence
    message = f"^seed must be an integer, got {re.escape(shown)}$"
    with pytest.raises(ValueError, match=message):
        _basic_config(triangle, seed=seed)
    with pytest.raises(ValueError, match=message):
        init_world(_basic_config(triangle), (0, seed))
    with pytest.raises(ValueError, match=message):
        run(_basic_config(triangle, duration=0.01), seeds=[seed])


def test_numpy_integer_seeds_are_seeds(triangle):
    config = _basic_config(triangle, seed=np.int64(3))
    np.testing.assert_array_equal(init_world(config).r, init_world(replace(config, seed=3)).r)
    np.testing.assert_array_equal(init_world(config, np.arange(2, dtype=np.uint8)).r,
                                  init_world(config, (0, 1)).r)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        _basic_config(triangle, seed=np.int32(-1))
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        init_world(config, (np.int64(-1),))


def test_config_rejects_isolated_agent():
    lonely = Graph(3, ((0, 1),))  # agent 2 has no edge
    with pytest.raises(ValueError):
        ScenarioConfig(graph=lonely, distances=DesiredDistances.uniform(1, 10.0),
                       variant="ideal", mismatch=None)


def test_config_refuses_a_non_planar_initial_estimate(triangle):
    est = {(i, j): (1.0, 0.0) for t, h in triangle.edges for i, j in ((t, h), (h, t))}
    est[(0, 1)] = (1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"^estimate for pair \(0, 1\) must be planar$"):
        _basic_config(triangle, initial_estimates=est)


def test_config_validates_explicit_initialization(triangle):
    with pytest.raises(ValueError):
        _basic_config(triangle, initial_positions=np.zeros(5))
    est = {(0, 1): (1.0, 0.0)}
    with pytest.raises(ValueError):
        _basic_config(triangle, initial_estimates=est)  # incomplete
    bad_pair = {(i, j): (1.0, 0.0) for i in range(3) for j in range(3) if i != j}
    bad_pair[(0, 0)] = (0.0, 0.0)
    with pytest.raises(ValueError):
        _basic_config(triangle, initial_estimates=bad_pair)
    # non-finite entries used to be accepted and end in a DivergenceError at t = 0.01
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^initial_positions must be finite"):
            _basic_config(triangle, initial_positions=[[value, 0.0], [10.0, 0.0], [5.0, 8.0]])
        est = {(i, j): (1.0, 0.0) for t, h in triangle.edges for i, j in ((t, h), (h, t))}
        est[(2, 1)] = (0.0, -value)
        with pytest.raises(ValueError, match=r"^initial_estimates for pair \(2, 1\) must be"):
            _basic_config(triangle, initial_estimates=est)
    # explicit positions used to skip min_separation, which only the random spawn kept
    close = [[0.0, 0.0], [10.0, 0.0], [10.0, 0.5]]
    with pytest.raises(ValueError, match=r"^initial_positions of agents 1 and 2 are 0\.5 apart"):
        _basic_config(triangle, initial_positions=close)
    _basic_config(triangle, initial_positions=close, min_separation=0.5)


def test_thresholds_validation():
    with pytest.raises(ValueError):
        OutcomeThresholds(window_frac=0.0)
    with pytest.raises(ValueError):
        OutcomeThresholds(window_frac=1.5)


@pytest.mark.parametrize("name, value, message", [
    # no run could be converged or shape_ok_estimates_stale
    ("dist_tol", -1.0, "dist_tol must be positive, got -1.0"),
    ("est_tol", 0.0, "est_tol must be positive, got 0.0"),
    # no run could be stuck_wrong_shape
    ("speed_tol", -5.0, "speed_tol must be positive, got -5.0"),
    # every run would be drifting, or every shape wrong
    ("centroid_tol", -1.0, "centroid_tol must be non-negative, got -1.0"),
    ("error_floor", -1.0, "error_floor must be non-negative, got -1.0"),
])
def test_thresholds_refuse_tolerances_that_fix_a_label(name, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OutcomeThresholds(**{name: value})


def test_thresholds_accept_zero_floors():
    # at 0, a centroid at rest is not drifting and a shape error of 0 is not wrong
    zero = replace(scenario_nominal(), thresholds=OutcomeThresholds(centroid_tol=0.0, error_floor=0.0))
    for args, label in [((8.0, 5.0, -36.0, 0.0, 0.0), "stuck_wrong_shape"),
                        ((8.0, 5.0, 0.0, 0.0, 0.5), "undetermined")]:
        assert detect_outcome(replace(_series(*args), config=zero)) == label


@pytest.mark.parametrize("kind, name, value", [
    (kind, f.name, value) for kind in (NoiseConfig, OutcomeThresholds)
    for f in fields(kind) for value in (math.nan, math.inf)])
def test_noise_and_thresholds_reject_nonfinite_fields(kind, name, value):
    # a nan variance skipped every update; a nan tolerance made every
    # comparison in detect_outcome false
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        kind(**{name: value})


def test_edge_labels(triangle):
    assert edge_labels(triangle) == ("12", "23", "13")


def test_edge_labels_stay_distinct_from_ten_agents_up():
    # joined digits made edges 1-12 and 11-2 both '112'
    graph = Graph.from_one_based(12, [(1, 12), (11, 2), (1, 2), (11, 12)])
    assert edge_labels(graph) == ("1_12", "11_2", "1_2", "11_12")
    assert edge_labels(Graph.from_one_based(9, [(1, 9), (9, 2)])) == ("19", "92")


def test_filters_refuse_a_world_of_several_seeds(triangle):
    world = init_world(_basic_config(triangle), seeds=(0, 1))
    with pytest.raises(ValueError, match="^a world of 2 seeds has no single set of filters$"):
        world.filters


# -------------------------------------------------------------- init_world


def test_init_world_deterministic_and_separated(triangle):
    config = _basic_config(triangle, min_separation=3.0)
    a = init_world(config, (5,))
    b = init_world(config, (5,))
    np.testing.assert_array_equal(a.r, b.r)
    for i in range(3):
        np.testing.assert_array_equal(a.filters[i].mean.p, b.filters[i].mean.p)
    r = a.r[0]
    d01 = np.linalg.norm(r[0] - r[1])
    d02 = np.linalg.norm(r[0] - r[2])
    d12 = np.linalg.norm(r[1] - r[2])
    assert min(d01, d02, d12) >= 3.0
    assert a.t == 0.0 and a.events == [()]


def test_init_world_gives_up_on_impossible_spawn(triangle):
    # three agents 100 apart never fit in a 20-wide box; the loop used to spin
    config = _basic_config(triangle, min_separation=100.0, spawn_box=20.0)
    with pytest.raises(SpawnError, match="min_separation = 100.0 .* spawn_box = 20.0"):
        init_world(config)


def reference_init(config, rng):
    """`init_world` with one scalar filter per agent, stacked (the oracle):
    its positions and its filter fields (`bank_of`)."""
    graph, o = config.graph, config.graph.agent_count
    if config.initial_positions is not None:
        r = np.array(config.initial_positions)
    else:
        half = 0.5 * config.spawn_box
        while True:
            r = rng.uniform(-half, half, size=(o, 2))
            gaps = [np.sqrt(((r[a] - r[b]) ** 2).sum()) for a in range(o) for b in range(a + 1, o)]
            if min(gaps) >= config.min_separation:
                break
    var = config.initial_var if config.initial_var is not None else config.offset_bound ** 2 / 3.0
    filters = []
    for i in range(o):
        nbrs = list(sorted_neighbors(graph, i))
        truth = GroupElement((r[nbrs] - r[i]).ravel(), 0.0)
        if config.initial_estimates is None:
            filters.append(initialize(truth, config.offset_bound, rng,
                                      initial_var=config.initial_var, noise=config.noise))
        else:
            p_hat = np.concatenate([-config.initial_estimates[(i, j)] for j in nbrs])
            cov = np.diag(np.append(np.full(p_hat.size, var), config.noise.meas_heading_var))
            filters.append(EstimatorState(GroupElement(p_hat, 0.0), cov))
    return r, bank_of(config, filters)


@settings(max_examples=60, deadline=None)
@given(rigid_scenarios(), st.sampled_from([0.0, 0.4, 2.0]),
       st.one_of(st.none(), st.floats(1e-3, 10.0)), st.booleans(), st.booleans())
def test_init_world_matches_per_agent_oracle(config, offset_bound, initial_var, explicit, spawn):
    rng = np.random.default_rng(config.seed)
    estimates = None
    if explicit:
        estimates = {(i, j): rng.uniform(-5.0, 5.0, size=2)
                     for t, h in config.graph.edges for i, j in ((t, h), (h, t))}
    config = replace(config, offset_bound=offset_bound, initial_var=initial_var,
                     initial_estimates=estimates,
                     initial_positions=None if spawn else config.initial_positions)
    # init_world draws from a generator of config.seed that it makes itself
    rng_ref = np.random.default_rng(config.seed)
    got = init_world(config)
    r, want = reference_init(config, rng_ref)
    np.testing.assert_array_equal(got.r[0], r)
    for name in ("offsets", "headings", "covariances"):
        for a, b in zip(getattr(got, name), want[name], strict=True):
            assert a.shape == b.shape and np.array_equal(a, b), name
    # both consumed the same draws, in the same order
    assert got.rngs[0].random() == rng_ref.random()


def test_init_world_offsets_within_bound(triangle):
    config = _basic_config(triangle, offset_bound=0.5)
    world = init_world(config, (3,))
    r = world.r[0]
    nbrs = [(1, 2), (0, 2), (0, 1)]
    for i in range(3):
        truth = np.concatenate([r[j] - r[i] for j in nbrs[i]])
        assert np.abs(world.filters[i].mean.p - truth).max() <= 0.5


def test_init_world_honors_explicit_state(triangle):
    r = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]])
    est = {}
    for i in range(3):
        for j in range(3):
            if i != j:
                est[(i, j)] = r[i] - r[j] + 0.25
    config = _basic_config(triangle, initial_positions=r, initial_estimates=est,
                           initial_var=2.0)
    world = init_world(config)
    np.testing.assert_array_equal(world.r[0], r)
    for i in range(3):
        for j in range(3):
            if i != j:
                np.testing.assert_array_equal(
                    estimate_of(world, triangle, i, j), r[i] - r[j] + 0.25
                )
        cov = world.filters[i].covariance
        np.testing.assert_allclose(np.diag(cov)[:4], 2.0)
        assert cov[4, 4] == config.noise.meas_heading_var


# --------------------------------------------- control-field regression


def test_control_field_bitwise_matches_public_laws(triangle, rng):
    """The engine's field must replicate the public control laws bit for
    bit, on the triangle and on minimally rigid graphs of mixed degree; any
    drift here silently changes every pinned scenario."""
    graphs = [triangle] + [rigid_graph(rng, agents) for agents in (4, 6, 8)]
    for graph in graphs[1:]:
        assert len({len(sorted_neighbors(graph, i)) for i in range(graph.agent_count)}) > 1
    for graph in graphs:
        o, m = graph.agent_count, graph.edge_count
        d = DesiredDistances(rng.uniform(3.0, 10.0, size=m))
        est = {}
        for t, h in graph.edges:
            est[(t, h)] = rng.uniform(-5, 5, size=2)
            est[(h, t)] = rng.uniform(-5, 5, size=2)

        ideal_cfg = _basic_config(graph, variant="ideal", mismatch=None,
                                  distances=d, initial_estimates=est,
                                  initial_positions=rng.uniform(-8, 8, size=(o, 2)),
                                  min_separation=0.0)
        # one world per variant, each stepping under its own config; the
        # positions and estimates are explicit, so the three hold the same arrays
        world = init_world(ideal_cfg)

        points = [world.r.ravel()] + [world.r.ravel() + rng.normal(size=2 * o) for _ in range(5)]

        field = _control_field(world, _law_inputs(world))
        for rf in points:
            np.testing.assert_array_equal(field(rf), ideal_control(graph, rf, d))

        world = init_world(replace(ideal_cfg, variant="estimated"))
        field = _control_field(world, _law_inputs(world))
        snapshot = {pair: estimate_of(world, graph, *pair) for pair in est}
        for rf in points:
            e = distance_errors(edge_offsets(graph, rf), d)
            np.testing.assert_array_equal(field(rf), estimated_control(graph, snapshot, e))

        a = MismatchConfig(rng.uniform(-2.0, 2.0, size=m))
        world = init_world(replace(ideal_cfg, variant="algorithm1", mismatch=a))
        field = _control_field(world, _law_inputs(world))
        shared = np.array([estimate_of(world, graph, t, h) for t, h in graph.edges])
        for rf in points:
            e = distance_errors(edge_offsets(graph, rf), d)
            np.testing.assert_array_equal(field(rf), mismatch_control(graph, shared, e, a))


# -------------------------------------------------------------------- step


def test_step_with_estimator_disabled_freezes_filters(triangle):
    config = _basic_config(triangle, estimator_enabled=False)
    world = init_world(config, (0,))
    after = step(world)
    # the filter arrays are the same objects: nothing is copied
    for name in ("offsets", "headings", "covariances"):
        assert getattr(after, name) is getattr(world, name)
    assert after.t == pytest.approx(config.dt)
    assert not np.array_equal(after.r, world.r)


def test_step_advances_filters_when_enabled(triangle):
    config = _basic_config(triangle)
    world = init_world(config, (0,))
    after = step(world)
    assert after.filters is not world.filters
    for f_new, f_old in zip(after.filters, world.filters):
        assert not np.array_equal(f_new.mean.p, f_old.mean.p)


@pytest.mark.parametrize("agents", [3, 8, 14, 20])
@pytest.mark.parametrize("variant", ["algorithm1", "ideal"])
def test_step_centroid_rate_identity(triangle, agents, variant):
    # with the estimate snapshot frozen, the centroid component of the
    # mismatch law is constant in r, so one step shifts the centroid by
    # exactly dt * (2 / agents) * sum_k a_k est_k; each edge of the ideal law
    # adds equal and opposite terms, so its velocities sum to zero
    if agents == 3:
        a = MismatchConfig(np.array([1.0, -0.5, 0.7])) if variant == "algorithm1" else None
        config = _basic_config(triangle, variant=variant, mismatch=a, duration=0.01)
    else:
        config = shaped_config(np.random.default_rng(agents), agents, variant, duration=0.01)
    world = init_world(config, (9,))
    predicted = np.zeros(2)
    if variant == "algorithm1":
        shared = np.array([estimate_of(world, config.graph, t, h) for t, h in config.graph.edges])
        predicted = config.dt * 2.0 / agents * (config.mismatch.values[:, None] * shared).sum(axis=0)
    after = step(world)
    got = after.r[0].mean(axis=0) - world.r[0].mean(axis=0)
    np.testing.assert_allclose(got, predicted, atol=1e-12)


def test_divergence_raises(triangle):
    # this spawn draw flees to infinity within the first simulated second
    config = replace(scenario_nominal(), seed=13, duration=1.0)
    with pytest.raises(DivergenceError):
        run(config)


# ------------------------------------------------------------ run metrics


def test_run_is_deterministic(triangle):
    config = replace(scenario_nominal(), duration=2.0)
    a = run(config)
    b = run(config)
    for name in ("t", "distances", "est_errors", "dist_errors",
                 "centroid_speed", "angular_rate", "max_speed"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.config is b.config is config
    assert a.steps == 200
    np.testing.assert_allclose(np.diff(a.t), config.dt, atol=1e-12)


def test_run_rejects_subl_step_duration(triangle):
    with pytest.raises(ValueError):
        run(_basic_config(triangle, dt=1.0, duration=0.3))


@pytest.mark.parametrize("agents", [3, 8, 14, 20])
def test_ideal_variant_dissipates_potential(triangle, agents):
    from formloc.controller import formation_potential

    # mild spread: per-step monotonicity of a gradient flow only survives
    # discretization while the step stays well inside the stability region
    if agents == 3:
        config = _basic_config(triangle, variant="ideal", mismatch=None,
                               duration=2.0, seed=4, spawn_box=6.0,
                               distances=DesiredDistances.uniform(3, 5.0))
    else:
        config = shaped_config(np.random.default_rng(agents), agents, "ideal", duration=2.0)
    world = init_world(config)
    d = config.distances
    v_start = v_prev = formation_potential(config.graph, world.r, d)
    for _ in range(config.steps):
        world = step(world)
        v = formation_potential(config.graph, world.r, d)
        assert v <= v_prev + 1e-12
        v_prev = v
    # the Henneberg graphs near their shapes converge more slowly than the
    # triangle: in 2 s they shed at least four orders of magnitude
    assert v < (1e-12 if agents == 3 else 1e-4 * v_start)


def test_ideal_variant_endpoint_stable_under_dt_halving(triangle):
    config = _basic_config(triangle, variant="ideal", mismatch=None,
                           duration=1.0, seed=4)

    def endpoint(cfg):
        world = init_world(cfg)
        for _ in range(int(round(cfg.duration / cfg.dt))):
            world = step(world)
        return world.r

    coarse = endpoint(config)
    fine = endpoint(replace(config, dt=config.dt / 2))
    assert np.abs(coarse - fine).max() < 1e-9


# ---------------------------------------------------------- detect_outcome


def _series(dist, est, e, cspd, vmax, steps=100):
    # the nominal triangle: three edges, each with d = 10
    m = 3
    return MetricsSeries(
        t=np.arange(1, steps + 1) * 0.01,
        distances=np.full((steps, m), dist),
        est_errors=np.full((steps, m), est),
        dist_errors=np.full((steps, m), e),
        centroid_speed=np.full(steps, cspd),
        angular_rate=np.zeros(steps),
        max_speed=np.full(steps, vmax),
        config=scenario_nominal(),
    )


def test_detect_outcome_labels():
    for args, label in [
        # distances 10 with e = 0 mean the target d = 10 is met exactly
        ((10.0, 0.01, 0.0, 0.0, 0.0), "converged"),
        ((10.0, 5.0, 0.0, 0.0, 0.0), "shape_ok_estimates_stale"),
        # distances 8 against d = 10: e = -36, far outside every tolerance
        ((8.0, 5.0, -36.0, 0.0, 0.0), "stuck_wrong_shape"),
        ((8.0, 5.0, -36.0, 0.14, 0.2), "translating_drift"),
        ((8.0, 5.0, -36.0, 0.0, 0.5), "undetermined"),
    ]:
        series = _series(*args)
        assert detect_outcome(series) == label
        assert detect_outcome(OutcomeSummary.of(series)) == label


def test_detect_outcome_needs_window():
    with pytest.raises(ValueError):
        detect_outcome(_series(10.0, 0.0, 0.0, 0.0, 0.0, steps=5))


def test_a_run_is_judged_by_its_own_thresholds():
    # issue3 ends with its shape formed and its estimates about 2 off; with
    # est_tol = 10 its own config calls that converged
    config = replace(scenario_issue3(), thresholds=OutcomeThresholds(est_tol=10.0))
    series = run(config)
    assert series.config is config
    assert detect_outcome(series) == "converged"
    summary, = run(config, seeds=[33], summary=True)
    assert summary.config is config
    assert detect_outcome(summary) == "converged"
    assert detect_outcome(run(scenario_issue3(), summary=True)) == "shape_ok_estimates_stale"


def test_detect_outcome_threshold_override():
    s = _series(10.0, 5.0, 0.0, 0.0, 0.0)
    loose = replace(s.config, thresholds=OutcomeThresholds(est_tol=10.0))
    assert detect_outcome(s) == "shape_ok_estimates_stale"
    assert detect_outcome(replace(s, config=loose)) == "converged"
    assert detect_outcome(replace(OutcomeSummary.of(s), config=loose)) == "converged"


# ---------------------------------------------------------------- presets


def test_nominal_converges_to_rotating_formation():
    series = run(replace(scenario_nominal(), duration=12.0))
    assert detect_outcome(series) == "converged"
    w = series.steps // 10
    assert np.abs(series.angular_rate[-w:]).min() > 1e-3  # mismatch-forced spin
    assert series.est_errors[-w:].max() < 0.1
    assert np.abs(series.distances[-w:] - 10.0).max() < 0.5


def test_issue1_sticks_in_wrong_shape():
    series = run(scenario_issue1())
    assert detect_outcome(series) == "stuck_wrong_shape"
    w = series.steps // 10
    assert series.max_speed[-w:].max() < 1e-4
    assert np.abs(series.dist_errors[-w:]).max() > 0.1
    # the cancelling construction pins the agents at the side-8 triangle
    np.testing.assert_allclose(series.distances[-1], 8.0, atol=1e-6)


def test_issue2_translates_without_shape_progress():
    series = run(scenario_issue2())
    assert detect_outcome(series) == "translating_drift"
    w = series.steps // 10
    assert series.centroid_speed[-w:].min() > 1e-3
    # engineered drift velocity (c, c) with c = 0.1
    np.testing.assert_allclose(series.centroid_speed, 0.1 * np.sqrt(2.0), atol=1e-6)
    np.testing.assert_allclose(series.dist_errors, -36.0, atol=1e-6)


def test_issue3_forms_shape_with_stale_estimates():
    series = run(scenario_issue3())
    assert detect_outcome(series) == "shape_ok_estimates_stale"
    w = series.steps // 10
    assert np.abs(series.distances[-w:] - 10.0).max() < 0.5
    assert series.est_errors[-w:].max() > 0.1


@pytest.mark.parametrize("config", [replace(scenario_nominal(), seed=0),
                                    replace(scenario_nominal(), seed=5), scenario_issue3()],
                         ids=["nominal-0", "nominal-5", "issue3"])
def test_closed_loop_is_rotation_equivariant(config):
    # the drawn start as explicit state, so both runs draw the same noise;
    # every series is a distance, a speed or a rate, which a rotation keeps
    config = replace(config, duration=2.0)
    world = init_world(config)
    est = {(int(i), int(j)): -offset for i, j, offset in
           zip(world.layout.trackers, world.layout.nbrs, world.offsets[0])}
    turn = rotation(0.7)
    plain = run(replace(config, initial_positions=world.r[0], initial_estimates=est))
    turned = run(replace(config, initial_positions=world.r[0] @ turn.T,
                         initial_estimates={pair: turn @ e for pair, e in est.items()}))
    for f in fields(MetricsSeries):
        want, got = getattr(plain, f.name), getattr(turned, f.name)
        if isinstance(want, np.ndarray):
            assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max(), f.name
        elif f.name != "config":  # each run carries its own start state
            assert got == want, f.name


def test_unlucky_spawn_stalls_at_coarse_sampling_only():
    # one spawn draw races outward faster than dt = 0.01 measurements can
    # correct; the same draw converges once the loop samples 5x faster
    coarse = run(replace(scenario_nominal(), seed=5, duration=12.0))
    assert detect_outcome(coarse) == "shape_ok_estimates_stale"
    assert coarse.est_errors[-1].max() > 1.0
    assert coarse.centroid_speed[-1] > 1.0

    fine = run(replace(scenario_nominal(), seed=5, duration=12.0, dt=0.002))
    assert detect_outcome(fine) == "converged"
