"""Block-wise metric extraction in `run` against `oracles.per_step_run`,
which extracts every metric right after its step.

`run` keeps each step's positions, velocities and offsets for up to
`BLOCK_STEPS` steps and extracts the metrics of those steps in one pass, so
the cases straddle block ends: runs one step short of a block, exactly one
block and one step past it, seeds that leave the batch in the middle of a
block and on its first step, and graphs with mixed degrees.  Every array
and event must come out bit for bit as the per-step loop gives it.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from formloc.scenario import scenario_issue2, scenario_nominal
from formloc.sim import BLOCK_STEPS, DivergenceError, run
from oracles import per_step_run
from test_batch import assert_same, batches

K = BLOCK_STEPS


def _results(runner, config, seeds):
    """What `runner(config, seeds)` gives, as a tuple with one entry per
    seed, a raised DivergenceError in place of its series."""
    try:
        out = runner(config, seeds)
    except DivergenceError as exc:
        out = exc
    return (out,) if seeds is None else out


def _assert_runs_match(config, seeds):
    """Check `run` against the oracle and return `run`'s results."""
    got, want = (_results(runner, config, seeds) for runner in (run, per_step_run))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same(g, w)
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
    # the first step of the second block
    config = replace(scenario_nominal(), duration=(2 * K + 3) * 0.01)
    if seeds is None:
        config = replace(config, seed=13)
    got = _assert_runs_match(config, seeds)
    if seeds == (12, 13, 54):
        assert [type(r).__name__ for r in got] == ["MetricsSeries", "DivergenceError",
                                                   "DivergenceError"]
        assert str(got[1]).endswith(f"t={(K + 1) * 0.01:g}") and str(got[2]).endswith("t=0.21")


@pytest.mark.parametrize("seeds", [None, (0, 1, 2)], ids=["B1", "B3"])
def test_estimator_disabled_matches_per_step_extraction(seeds):
    for config in (replace(scenario_nominal(), duration=(K + 1) * 0.01, estimator_enabled=False),
                   replace(scenario_issue2(), duration=(2 * K + 3) * 0.01)):
        _assert_runs_match(config, seeds)


@settings(max_examples=15, deadline=None)
@given(batches(), st.booleans(), st.sampled_from([1, 7, 16]))
def test_mixed_degree_graphs_match_per_step_extraction(case, estimator, block):
    # shorter blocks put several block ends inside these 50-step runs
    config, seeds = case
    config = replace(config, estimator_enabled=estimator)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("formloc.sim.BLOCK_STEPS", block)
        _assert_runs_match(config, seeds)
