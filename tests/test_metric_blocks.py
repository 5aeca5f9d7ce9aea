"""Block-wise metric extraction in `run` against `oracles.per_step_run`,
which extracts every metric right after its step, and `run`'s streamed
outcome summaries against the summaries of its series.

`run` keeps each step's positions, velocities and offsets for up to
`BLOCK_STEPS` steps and extracts the metrics of those steps in one pass, so
the cases straddle block ends: runs one step short of a block, exactly one
block and one step past it, seeds that leave the batch in the middle of a
block and on its first step, and graphs with mixed degrees.  Every array
and event must come out bit for bit as the per-step loop gives it.  With
`summary=True`, `run` folds the window's blocks into running maxima and
minima instead, and each seed's summary must equal
`OutcomeSummary.of` its series bit for bit, whether the window starts
mid-block or a seed leaves before or inside it.  Both come from one step
loop, `sim._run`, with another block reducer; a reducer defined here, which
counts the steps it was handed, runs through that loop too.
"""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from formloc.scenario import (
    OutcomeSummary,
    OutcomeThresholds,
    detect_outcome,
    scenario_issue2,
    scenario_nominal,
)
from formloc.sim import BLOCK_STEPS, DivergenceError, _run, run
from oracles import per_step_run
from test_batch import assert_same, assert_same_config, batches

ROOT = Path(__file__).resolve().parents[1]

K = BLOCK_STEPS


def _results(runner, config, seeds):
    """What `runner(config, seeds)` gives, as a tuple with one entry per
    seed, a raised DivergenceError in place of its series."""
    try:
        out = runner(config, seeds)
    except DivergenceError as exc:
        out = exc
    return (out,) if seeds is None else out


def _assert_summaries_match(config, seeds, series):
    """Check `run(config, seeds, summary=True)` against the summaries of
    `series`, `run`'s results without it; a run shorter than its window
    has no summary."""
    th = config.thresholds
    if config.steps * th.window_frac < 1.0:
        with pytest.raises(ValueError, match="shorter than the evaluation window"):
            run(config, seeds, summary=True)
        return
    got = _results(partial(run, summary=True), config, seeds)
    assert len(got) == len(series)
    for g, s in zip(got, series):
        if isinstance(s, DivergenceError):
            assert_same(g, s)
            continue
        want = OutcomeSummary.of(s)
        for f in fields(OutcomeSummary):
            a, b = getattr(g, f.name), getattr(want, f.name)
            if isinstance(b, float):
                assert type(a) is float and np.float64(a).tobytes() == np.float64(b).tobytes(), f.name
            elif f.name == "config":
                assert_same_config(a, b)
            else:
                assert a == b, f.name
        assert detect_outcome(g) == detect_outcome(s)


def _assert_runs_match(config, seeds):
    """Check `run` against the oracle and its summaries against its series,
    and return `run`'s results."""
    got, want = (_results(runner, config, seeds) for runner in (run, per_step_run))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same(g, w)
    _assert_summaries_match(config, seeds, got)
    return got


@pytest.mark.parametrize("seeds", [None, (0, 1, 2)], ids=["B1", "B3"])
@pytest.mark.parametrize("steps", [1, K - 1, K, K + 1, 2 * K + 3])
def test_block_ends_match_per_step_extraction(steps, seeds):
    config = replace(scenario_nominal(), duration=steps * 0.01, measurement_noise=True)
    assert config.steps == steps
    _assert_runs_match(config, seeds)


@pytest.mark.parametrize("seeds", [(12, 13, 54), (54,), (13,), None])
def test_seeds_leaving_mid_block_and_on_a_block_start(seeds):
    # nominal seed 54 diverges on step 21 (mid-block), seed 13 on step 65,
    # the first step of the second block: before the outcome window of a run
    # of 2K + 3 steps, inside that of one of K + 6 (its last 7 steps)
    for steps in (2 * K + 3, K + 6):
        config = replace(scenario_nominal(), duration=steps * 0.01)
        if seeds is None:
            config = replace(config, seed=13)
        got = _assert_runs_match(config, seeds)
        if seeds == (12, 13, 54):
            assert [type(r).__name__ for r in got] == ["MetricsSeries", "DivergenceError",
                                                       "DivergenceError"]
            assert str(got[1]).endswith(f"t={(K + 1) * 0.01:g}") and str(got[2]).endswith("t=0.21")


def test_step_loop_folds_every_step_once_into_any_reducer():
    # a reducer that counts the steps each seed was folded; seed 54 leaves
    # on step 21 and seed 13 on step K + 1, as in the test above
    folded = []

    def counting(config, count):
        folded.append(np.zeros(count, dtype=int))

        def fold(live, stop, metrics):
            folded[-1][live] += len(metrics[0])
            # every live seed was folded from step 0 on, so up to `stop`
            assert (folded[-1][live] == stop).all()

        return 0, fold, lambda b, seed_config, events: int(folded[-1][b])

    seeds, steps = (12, 13, 54), 2 * K + 3
    config = replace(scenario_nominal(), duration=steps * 0.01)
    got = _run(config, seeds, counting)
    assert got[0] == steps
    assert folded[-1].tolist() == [steps, K, 20]
    for g, w in zip(got[1:], run(config, seeds)[1:], strict=True):
        assert isinstance(w, DivergenceError)
        assert_same(g, w)


@pytest.mark.parametrize("seeds", [None, (0, 1, 2)], ids=["B1", "B3"])
def test_estimator_disabled_matches_per_step_extraction(seeds):
    for config in (replace(scenario_nominal(), duration=(K + 1) * 0.01, estimator_enabled=False),
                   replace(scenario_issue2(), duration=(2 * K + 3) * 0.01)):
        _assert_runs_match(config, seeds)


@settings(max_examples=15, deadline=None)
@given(batches(), st.booleans(), st.sampled_from([1, 7, 16]), st.sampled_from([0.1, 0.5, 1.0]))
def test_mixed_degree_graphs_match_per_step_extraction(case, estimator, block, window_frac):
    # shorter blocks put several block ends inside these 50-step runs, and
    # inside their outcome windows of 5, 25 and 50 steps
    config, seeds = case
    config = replace(config, estimator_enabled=estimator,
                     thresholds=OutcomeThresholds(window_frac=window_frac))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("formloc.sim.BLOCK_STEPS", block)
        _assert_runs_match(config, seeds)


def test_summary_memory_does_not_grow_with_the_duration():
    # numpy reports its buffers to tracemalloc.  Both windows (64 and 160
    # steps) span a whole 64-step block, so both runs extract the largest
    # block there is.  The series of these 4 seeds would add 384 bytes a
    # step (peaks of about 490 and 850 KiB); a summary keeps six floats a seed
    def peak(duration):
        config = replace(scenario_nominal(), duration=duration)
        tracemalloc.start()
        try:
            run(config, seeds=range(4), summary=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(6.4)  # warm-up: the first run also traces the numpy.random import
    assert peak(16.0) <= 1.2 * peak(6.4)


@pytest.mark.parametrize("argv", [
    ["scripts/seed_sweep.py", "--seeds", "2", "--duration", "0.5"],
    ["-m", "formloc", "run", "--scenario", "issue3"],
])
def test_benchmark_setup_probe_reaches_run(argv, tmp_path):
    # the benchmark times set-up as the wall time until the probe stops the
    # process, with exit 0, at the first call of `formloc.sim:run`.  An entry
    # point that ends without that call fails the benchmark run, or, ending
    # through sys.exit(0) as both of these do, also exits 0 but has printed
    # its report: the probe would then time the whole operation as set-up
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [str(ROOT / argv[0]), *argv[1:]] if argv[0].endswith(".py") else argv
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "launch.py"), "probe",
                           "formloc.sim:run", *argv], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
