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
import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
    _constants,
    _predict_degree,
)
from formloc.lie_group import AlgebraElement, _quarter_rotations, rotation
from formloc.network import DesiredDistances, Graph, distance_errors, edge_offsets, sorted_neighbors
from formloc.scenario import MetricsSeries, ScenarioConfig, detect_outcome, scenario_nominal
from formloc.sim import (
    MAX_SUBSTEPS,
    DivergenceError,
    WorldState,
    _integrate,
    _kernel_entries,
    _law_inputs,
    _layout,
    _move,
    _sense,
    _stiffness,
    init_world,
    run,
)
from oracles import bank_of, bucket_sense, predict, step, stiffness, update

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
    return WorldState(r=r_new[None], **bank_of(config, new_filters), t=t_new, rngs=[rng],
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
    return MetricsSeries(t=(np.arange(steps) + 1) * config.dt, config=config, events=world.events[0],
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
    got = step(world)
    want = reference_step(world, config, rng_ref)
    _assert_worlds_match(got, want)
    # both generators consumed the same draws, in the same order
    assert got.rngs[0].random() == rng_ref.random()


@settings(max_examples=15, deadline=None)
@given(rigid_scenarios())
def test_bank_run_keeps_outcome_label(config):
    def label(runner):
        try:
            return detect_outcome(runner(config))
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
        world = step(world)
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
        world = step(world)
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


def _explicit_estimates(agents, variant, **kw):
    """The `shaped_config` of `agents` agents that the relabeling and
    translation tests share, each filter starting from the true offset to
    each neighbor moved by up to 1 per coordinate, and the generator that
    drew it."""
    rng = np.random.default_rng(agents)
    config = shaped_config(rng, agents, variant, duration=0.5, **kw)
    r = config.initial_positions
    return replace(config, initial_estimates={
        (i, j): r[i] - r[j] + rng.uniform(-1.0, 1.0, size=2)
        for i in range(agents) for j in sorted_neighbors(config.graph, i)}), rng


@pytest.mark.parametrize("variant, dt", [
    pytest.param(v, dt, id=v if dt == 0.01 else f"{v}-dt{dt}")
    for dt in (0.01, 0.002) for v in ("ideal", "algorithm1", "estimated")])
@pytest.mark.parametrize("agents", range(4, 10))
def test_relabeling_agents_and_edges_keeps_every_metric(agents, variant, dt):
    # renaming the agents and reordering the edges moves every index of
    # `_layout` (bank order, slots, tail and head slots) and of the graph
    # (`Graph.ends`, `Graph.scatter`, `Graph.adjacency`) but not the
    # physics, which oracles built on the same layout cannot check.  It does
    # reorder floating-point sums: an agent adds its edges' terms in edge
    # order and a filter lists its neighbors in label order.  Over these
    # 0.5 s that moved no metric by more than 3.9e-9 relative (the
    # estimated law at dt 0.002; 7.5e-10 at dt 0.01), while a wrong index
    # moves one by O(1).  Explicit estimates and no measurement noise leave
    # no draw whose order could depend on the labels.
    config, rng = _explicit_estimates(agents, variant, dt=dt)
    other, order = _relabeled(config, rng)
    want, got = run(config), run(other)
    for name in ("distances", "est_errors", "dist_errors"):
        assert np.allclose(getattr(got, name), getattr(want, name)[:, order], rtol=1e-8, atol=1e-8), name
    for name in ("centroid_speed", "angular_rate", "max_speed"):
        assert np.allclose(getattr(got, name), getattr(want, name), rtol=1e-8, atol=1e-8), name


@pytest.mark.parametrize("variant", ["ideal", "algorithm1"])
@pytest.mark.parametrize("agents", range(4, 10))
def test_translating_every_position_keeps_every_metric(agents, variant):
    # every metric depends on positions only through their differences, so
    # moving the spawn by one vector changes none of them, up to roundoff:
    # each shifted coordinate is rounded to its spacing, about 4.5e-13 near
    # 2e3, and a velocity differenced over one step carries that over dt.
    # The loop may grow it over the 50 steps; 1e3 times that per-step
    # velocity error (4.5e-8) is 35 times the largest move measured,
    # 1.3e-9 in an algorithm1 est_errors, while a position read where an
    # offset belongs moves a metric by about the shift.
    config, _ = _explicit_estimates(agents, variant)
    moved = replace(config, initial_positions=config.initial_positions + [1e3, -2e3])
    tol = 1e3 * np.spacing(np.abs(moved.initial_positions).max()) / config.dt
    want, got = run(config), run(moved)
    for name in ("distances", "est_errors", "dist_errors", "centroid_speed", "angular_rate",
                 "max_speed"):
        assert np.abs(getattr(got, name) - getattr(want, name)).max() <= tol, name


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
        world = replace(world, **bank_of(config, filters))
        got = step(world)
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


def _sense_matching_oracle(world, steps=4):
    """Advance `world` by `steps` steps, checking each step's filter phase
    bit for bit against the phase run bucket by bucket; returns the last
    world."""
    for _ in range(steps):
        moved, diverged = _move(world)
        moved = moved.take(~diverged)
        if not len(moved.r):
            break
        want = bucket_sense(replace(moved, rngs=copy.deepcopy(moved.rngs)))
        world = _sense(moved)
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
    _sense_matching_oracle(init_world(config, range(seeds)))


@pytest.mark.parametrize("seeds", [1, 3])
def test_filter_phase_with_a_degree_one_agent(seeds):
    # agent 4 has one neighbor: its bucket stacks one (1, 2) offset block per seed
    config = ScenarioConfig(graph=_REST_GRAPH, distances=DesiredDistances.uniform(4, 5.0),
                            variant="estimated", mismatch=None, measurement_noise=True,
                            noise=NoiseConfig(meas_distance_var=0.1, meas_heading_var=0.01))
    _sense_matching_oracle(init_world(config, range(seeds)), steps=6)


@settings(max_examples=40, deadline=None)
@given(rigid_scenarios(), st.sampled_from((1, 3)))
def test_stiffness_matches_scatter_oracle(config, seeds):
    # one bincount over tails then heads makes the sums of the two add.at
    # scatters, and sqrt of the squared sums is np.linalg.norm, bit for bit
    graph = config.graph
    assume(len({len(sorted_neighbors(graph, i)) for i in range(graph.agent_count)}) > 1)
    world = init_world(config, range(seeds))
    for _ in range(3):
        law = _law_inputs(world)
        assert _stiffness(world, law).tobytes() == stiffness(world, law).tobytes()
        world, diverged = _move(world)
        world = _sense(world.take(~diverged))
        if not len(world.r):
            break


@settings(max_examples=200, deadline=None)
@given(data=st.data(), agents=st.integers(2, 20), seed=st.integers(0, 2 ** 32 - 1),
       steps=st.integers(1, 4), seeds=st.sampled_from((1, 3)))
def test_edge_offset_product_is_the_gather(data, agents, seed, steps, seeds):
    # `_stiffness` reads (B, agents, 2) positions and `_metrics` (K, B,
    # agents, 2) ones.  Each row of `diff` holds 1 and -1, so the product is
    # r_tail - r_head to the last bit, except that an exact zero is +0 where
    # the gather's -0 - +0 is -0; both readers square each offset, alone or
    # against an estimate, before any output.
    graph = rigid_graph(np.random.default_rng(seed), agents)
    coords = st.one_of(st.sampled_from((0.0, -0.0, 1.0)), st.floats(-1e9, 1e9))
    r = data.draw(arrays(float, (steps, seeds, agents, 2), elements=coords))
    tails, heads = graph.ends
    want = r[..., tails, :] - r[..., heads, :] + 0.0
    config = ScenarioConfig(graph=graph, distances=DesiredDistances.uniform(graph.edge_count, 1.0),
                            variant="ideal")
    diff = _layout(config).diff
    assert (diff @ r).tobytes() == want.tobytes()
    assert (diff @ r[0]).tobytes() == want[0].tobytes()


@pytest.mark.parametrize("seeds", [1, 3])
def test_steps_look_nothing_up_by_graph(seeds, monkeypatch):
    # the world carries its layout, so once a world is built no step, and no
    # seed leaving the batch, hashes its graph; only the lookup keyed on the
    # config (`_kernel_entries`) may stay
    config = ScenarioConfig(graph=_REST_GRAPH, distances=DesiredDistances.uniform(4, 5.0),
                            mismatch=MismatchConfig.uniform(4, 0.5), measurement_noise=True)
    world = step(init_world(config, range(seeds)))
    hashed = []
    graph_hash = Graph.__hash__

    def counting_hash(graph):
        hashed.append(graph)
        return graph_hash(graph)

    monkeypatch.setattr(Graph, "__hash__", counting_hash)
    for _ in range(3):
        world = step(world)
    kept = world.take(np.arange(seeds) % 2 == 0)
    step(kept)
    assert len(hashed) == 0
    # the world carries the config it was built from, and so does each part
    assert kept.layout is world.layout and kept.config is world.config is config


def test_steps_hash_no_noise(monkeypatch):
    # each degree's filter constants are built with the world, so no step
    # looks them up by the noise
    config = ScenarioConfig(graph=_REST_GRAPH, distances=DesiredDistances.uniform(4, 5.0),
                            mismatch=MismatchConfig.uniform(4, 0.5), measurement_noise=True)
    world = step(init_world(config, range(3)))
    hashed = []
    noise_hash = NoiseConfig.__hash__

    def counting_hash(noise):
        hashed.append(noise)
        return noise_hash(noise)

    monkeypatch.setattr(NoiseConfig, "__hash__", counting_hash)
    for _ in range(3):
        world = step(world)
    assert len(hashed) == 0


def test_no_cache_keeps_a_graph_alive():
    # a process that runs many graphs (an atlas, a metamorphic sweep) must
    # not keep each one alive: only the bounded caches may hold a graph, and
    # running more other graphs and configs than they hold evicts it
    def path(agents):
        # at rest: every agent 1 from the next, as desired
        graph = Graph(agents, tuple((k, k + 1) for k in range(agents - 1)))
        return ScenarioConfig(graph=graph, distances=DesiredDistances.uniform(agents - 1, 1.0),
                              variant="ideal", initial_positions=np.arange(agents)[:, None] * [1.0, 0.0],
                              duration=0.02)

    def used(config):
        graph = config.graph
        run(config)
        init_world(config)
        ideal_control(graph, config.initial_positions, config.distances)
        sorted_neighbors(graph, 0)
        return weakref.ref(graph)

    # no other test builds paths this long, so the first is a graph no cache
    # has seen and every other one adds an entry
    ref = used(path(29))
    others = _kernel_entries.cache_info().maxsize + 1
    for agents in range(30, 30 + others):
        used(path(agents))
    gc.collect()
    assert ref() is None


def test_no_run_keeps_a_noise_alive():
    # a sweep over the noise must not keep each noise it ran alive: after
    # more distinct noises than a 64-entry cache would hold, the first is
    # collected
    config = replace(scenario_nominal(), duration=0.02)
    first = NoiseConfig(meas_distance_var=0.5)
    ref = weakref.ref(first)
    for k in range(65):
        run(replace(config, noise=NoiseConfig(meas_distance_var=1.0 + k) if k else first))
    del first
    gc.collect()
    assert ref() is None


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
    row = (seeds - 1, list(_layout(config).buckets[bucket].agents).index(agent))
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
            world = _sense_matching_oracle(world, steps=1)
            p, cov = _predict_degree(p, cov, np.zeros(p.shape), rotation(theta),
                                     _quarter_rotations(theta), config.dt,
                                     _constants(2, config.noise, config.dt))
        means, headings, covs = world.bucket(bucket)
        np.testing.assert_array_equal(means[row], p[row])
        np.testing.assert_array_equal(headings[row], theta[row])
        np.testing.assert_array_equal(covs[row], cov[row])
        assert [len(ev) for ev in world.events] == [0] * (seeds - 1) + [step_count]
        assert world.events[-1][-1].startswith(
            f"t={world.t:.6g} agent=2 update skipped: innovation covariance {reason}")
