"""Seed axis: `init_world(config, seeds)` and `run(config, seeds)` against
one seed at a time.

A `WorldState` stacks every seed's positions and filters (the true
headings are fixed at 0 and not stored) and gives each seed its own
sub-step count, generator and event log, so every seed must come out bit
for bit as it does alone: the same start, the same arrays, the same
events, and the same `DivergenceError` message when it diverges.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from formloc.network import DesiredDistances, Graph
from formloc.scenario import MetricsSeries, ScenarioConfig, detect_outcome, scenario_nominal
from formloc.sim import DivergenceError, WorldState, _move, _sense, init_world, run
from oracles import bank_of, step
from test_bank import _poison, _rest_world, rigid_scenarios

ROOT = Path(__file__).resolve().parents[1]
ARRAYS = ("t", "distances", "est_errors", "dist_errors", "centroid_speed",
          "angular_rate", "max_speed", "desired")


def serial(config, seed):
    """What `run` gives for one seed alone: its series or its divergence."""
    try:
        return run(replace(config, seed=seed))
    except DivergenceError as exc:
        return exc


def assert_same(got, want):
    if isinstance(want, DivergenceError):
        assert isinstance(got, DivergenceError)
        assert str(got) == str(want)
        assert got.events == want.events
        return
    for name in ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.edge_labels == want.edge_labels
    assert got.events == want.events


@st.composite
def batches(draw):
    """A `rigid_scenarios` config, half the time with random spawns (stiff,
    with sub-step counts that differ between seeds), and a few seeds."""
    config = draw(rigid_scenarios())
    if draw(st.booleans()):
        config = replace(config, initial_positions=None, spawn_box=12.0)
    seeds = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=3))
    return config, seeds


@settings(max_examples=25, deadline=None)
@given(batches())
# a degree-5 bucket at B = 2: an innovation built with np.concatenate from the
# bank's strided views came out non-C-contiguous, and the gain product took
# other last bits than at B = 1
@example((ScenarioConfig(
    graph=Graph(6, ((2, 0), (0, 3), (3, 2), (0, 4), (4, 2), (4, 5), (5, 0), (1, 0), (5, 1))),
    distances=DesiredDistances([10.05644370853702, 15.514804070731389, 7.422840393995118,
                                13.795957578847776, 5.455073817889031, 5.286221310016589,
                                11.17308587526706, 11.331799337957776, 8.42364394575707]),
    variant="ideal", mismatch=None, duration=0.5, offset_bound=1.0,
    initial_positions=np.array([[-1.4591616128792573, -8.27669225162777],
                                [-5.5684908956188135, 2.7806992800495367],
                                [1.9755159363059127, 1.8178325013636398],
                                [-1.0821834631118645, 8.823446004539875],
                                [7.408955813837822, 3.111731413150637],
                                [2.0510872024369453, 3.203747749534435]])), [0, 0]))
def test_batch_matches_serial_runs(case):
    config, seeds = case
    got = run(config, seeds=seeds)
    assert len(got) == len(seeds)
    for seed, result in zip(seeds, got):
        assert_same(result, serial(config, seed))


def test_diverging_seed_leaves_the_batch():
    # nominal seed 13 escapes within its first second; 12 and 14 run on
    config = replace(scenario_nominal(), duration=12.0)
    got = run(config, seeds=(12, 13, 14))
    assert isinstance(got[1], DivergenceError)
    with pytest.raises(DivergenceError) as alone:
        run(replace(config, seed=13))
    assert str(got[1]) == str(alone.value)
    # the step-by-step loop names the same step
    world = init_world(config, (13,))
    with pytest.raises(DivergenceError) as stepped:
        while True:
            world = step(world, config)
    assert str(got[1]) == str(stepped.value) == "positions diverged during the step ending at t=0.65"
    for seed, result in ((12, got[0]), (14, got[2])):
        assert isinstance(result, MetricsSeries)
        assert_same(result, serial(config, seed))


def test_diverged_seed_keeps_its_events():
    # nominal seed 64 hits the sub-step cap in the step where it diverges;
    # its error carries that event at B = 1, in a batch and from the oracle
    config = replace(scenario_nominal(), duration=1.0)
    capped = ("t=0.52 substeps capped at 10000, stiffness asked for 46707",)
    got = run(config, seeds=(13, 64, 0))
    with pytest.raises(DivergenceError) as alone:
        run(replace(config, seed=64))
    world = init_world(config, (64,))
    with pytest.raises(DivergenceError) as stepped:
        while True:
            world = step(world, config)
    assert got[1].events == alone.value.events == stepped.value.events == capped
    assert str(got[1]) == str(alone.value) == "positions diverged during the step ending at t=0.52"
    # seed 13 diverges at t=0.65 without an event
    assert isinstance(got[0], DivergenceError) and got[0].events == ()


def _first_substeps(config, seed):
    """Sub-steps the ideal law's first step asks for, from the formula:
    per agent the sum over its edges of 2|z|^2 + |e|, then dt * max / 2."""
    r = init_world(config, (seed,)).r[0]
    per_agent = np.zeros(config.graph.agent_count)
    for (t, h), d in zip(config.graph.edges, config.distances.values):
        zz = float((r[t] - r[h]) @ (r[t] - r[h]))
        per_agent[[t, h]] += 2.0 * zz + abs(zz - d * d)
    return max(1, math.ceil(config.dt * per_agent.max() / 2.0))


def test_seeds_with_different_substep_counts():
    config = replace(scenario_nominal(), variant="ideal", mismatch=None, dt=0.05,
                     duration=1.0)
    seeds = range(6)
    assert len({_first_substeps(config, seed) for seed in seeds}) > 2
    for seed, result in zip(seeds, run(config, seeds=seeds)):
        assert_same(result, serial(config, seed))


def test_events_stay_with_their_seed():
    # seed 0 sits 2e9 out, past the divergence bound, and leaves the batch;
    # the others refuse different updates on top of their own earlier events
    config, world = _rest_world()
    plans = ({}, {1: "singular"}, {}, {0: "singular", 3: "nonfinite"})
    seeds = np.arange(len(plans))
    with np.errstate(invalid="ignore"):  # inf - inf in the symmetry checks
        filters = []
        for plan in plans:
            filters.append(world.filters)
            for agent, kind in plan.items():
                filters[-1] = _poison(filters[-1], agent, kind)
        batch = WorldState(r=world.r + np.where(seeds == 0, 2e9, 0.0)[:, None, None],
                           **bank_of(config.graph, *filters), t=0.0,
                           rngs=[None] * len(plans),
                           events=[(f"earlier event of seed {b}",) for b in seeds])
        worlds = [batch.take(seeds == b) for b in seeds]
        moved, diverged = _move(batch, config)
        got = _sense(moved.take(~diverged), config)
        with pytest.raises(DivergenceError):
            step(worlds[0], config)
        want = [step(w, config) for w in worlds[1:]]

    assert diverged.tolist() == [True, False, False, False]
    for row, (plan, alone) in enumerate(zip(plans[1:], want)):
        refused = [int(e.split("agent=")[1].split()[0]) - 1 for e in got.events[row][1:]]
        assert refused == sorted(plan)
        assert [got.events[row]] == alone.events
        np.testing.assert_array_equal(got.r[row], alone.r[0])
        with np.errstate(invalid="ignore"):
            mine, its = got.take(np.arange(len(want)) == row).filters, alone.filters
        for f_mine, f_alone in zip(mine, its, strict=True):
            np.testing.assert_array_equal(f_mine.mean.p, f_alone.mean.p)
            np.testing.assert_array_equal(f_mine.mean.theta, f_alone.mean.theta)
            np.testing.assert_array_equal(f_mine.covariance, f_alone.covariance)


def test_refused_updates_keep_their_predictions_in_a_batch():
    # offsets drawn 1e160 wide overflow every innovation covariance, so every
    # filter refuses every update and keeps its prediction, in a batch as
    # alone; a batch used to write its predictions back into a copy of the
    # offset table and keep the NaN updates
    config = replace(scenario_nominal(), variant="ideal", mismatch=None, offset_bound=1e160,
                     initial_var=1.0, measurement_noise=True, duration=0.05)
    seeds = range(3)
    world = init_world(config, seeds)
    for b in range(len(world.layout.buckets)):
        assert np.shares_memory(world.bucket(b)[0], world.offsets)
    with np.errstate(over="ignore", invalid="ignore"):
        got = run(config, seeds=seeds)
        for seed, result in zip(seeds, got):
            assert len(result.events) == config.steps * config.graph.agent_count
            assert_same(result, serial(config, seed))


def test_no_seeds_is_an_empty_batch():
    assert run(scenario_nominal(), seeds=()) == ()


def test_init_world_refuses_no_seeds(monkeypatch):
    def no_generator(seed):
        raise AssertionError(f"generator built for seed {seed}")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(ValueError, match="^seeds is empty"):
        init_world(scenario_nominal(), ())


def test_negative_seed_is_rejected_before_any_generator(monkeypatch):
    def no_generator(seed):
        raise AssertionError(f"generator built for seed {seed}")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        init_world(scenario_nominal(), (0, -1))
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        run(scenario_nominal(), seeds=[-1])


def test_batch_too_big_to_index_is_refused_before_any_generator(monkeypatch):
    # one seed's (steps, edges) series fits in an array; 10000 of them do not
    def no_generator(seed):
        raise AssertionError(f"generator built for seed {seed}")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    config = replace(scenario_nominal(), duration=1e12)
    with pytest.raises(ValueError, match="^10000 seeds of 100000000000000 steps and 3 edges"):
        run(config, seeds=range(10000))


@st.composite
def seed_tuples(draw):
    """The nominal config or a `rigid_scenarios` one, each half the time
    with random spawns, and a tuple of seeds, repeats allowed."""
    config = draw(st.one_of(st.just(scenario_nominal()), rigid_scenarios()))
    if draw(st.booleans()):
        config = replace(config, initial_positions=None, spawn_box=12.0)
    seeds = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=4))
    return config, tuple(seeds)


@settings(max_examples=40, deadline=None)
@given(seed_tuples())
def test_init_world_seeds_match_one_seed_at_a_time(case):
    config, seeds = case
    world = init_world(config, seeds)
    assert len(world.rngs) == len(world.events) == len(seeds) and world.t == 0.0
    for b, seed in enumerate(seeds):
        alone = init_world(config, (seed,))
        mine = world.take(np.arange(len(seeds)) == b)
        assert np.array_equal(world.r[b], alone.r[0])
        for name in ("offsets", "headings", "covariances"):
            for got, want in zip(getattr(mine, name), getattr(alone, name), strict=True):
                assert got.shape == want.shape and np.array_equal(got, want), name
        # both generators took the same draws
        assert world.rngs[b].random() == alone.rngs[0].random()


# ------------------------------------------------------ scripts/seed_sweep.py


def _sweep(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "seed_sweep.py"), *args],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("seeds, duration", [(4, 2.0), (14, 1.0)])  # seed 13 diverges
def test_seed_sweep_prints_the_serial_tally(seeds, duration):
    config = replace(scenario_nominal(), duration=duration)
    window = config.thresholds.window(config.steps)
    lines, tally = [], {}
    for seed in range(seeds):
        result = serial(config, seed)
        if isinstance(result, DivergenceError):
            outcome = "diverged"
            lines.append(f"seed {seed:>3}: diverged")
        else:
            outcome = detect_outcome(result, config.thresholds)
            lines.append(f"seed {seed:>3}: {outcome:<26} "
                         f"est={result.est_errors[window].max():.3g} "
                         f"cspd={result.centroid_speed[-1]:.3g}")
        tally[outcome] = tally.get(outcome, 0) + 1
    lines += ["", f"dt=0.01 duration={duration} seeds={seeds}"]
    for outcome, count in sorted(tally.items(), key=lambda item: -item[1]):
        lines.append(f"  {outcome:<26} {count:>4}  ({100.0 * count / seeds:.0f}%)")

    proc = _sweep("--seeds", str(seeds), "--duration", str(duration), "--verbose")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n".join(lines) + "\n"


@pytest.mark.parametrize("args", [
    ("--seeds", "-1"),
    ("--dt", "0"),
    ("--dt", "-0.01"),
    ("--duration", "0"),
    ("--duration", "-2"),
    ("--seeds", "2", "--dt", "1e-320"),  # its step count overflowed
    ("--seeds", "10000", "--duration", "1e12"),  # one seed's series fits, 10000 of them do not
])
def test_seed_sweep_rejects_bad_arguments(args):
    proc = _sweep(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:")
    assert "Traceback" not in proc.stderr
