"""The engine's final window against Algorithm 1's steady rigid motion.

Mismatched biases drive a rigid formation into a steady rigid motion of a
slightly distorted shape.  `oracles.steady_motion` solves for it under
exact estimates, sharing only the control law with the engine, and the
engine's final window must match its distance deviations, centroid speed
and angular rate.

The engine's law does not steer along exact offsets: each step holds the
filters' estimates, which miss the offsets by at most the steady estimate
error eps (the window's largest `est_errors`) when the step starts, and
the offsets turn by |w| dt during the step.  So edge k's steering error is
at most eps + |z_k| |w| dt, and each tolerance is twice the first-order
response of that quantity to such errors, summed in absolute value over
the edges (`SteadyMotion.sensitivity`).  The factor 2 covers second-order
terms and the window's mean over a periodic motion.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from formloc import cli
from formloc.scenario import detect_outcome, scenario_nominal
from formloc.sim import init_world, run
from oracles import SETTLE, steady_motion

ROOT = Path(__file__).resolve().parents[1]


def _rigid20(instance, tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_generate",
                                                  ROOT / "perfbench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    path = tmp_path / f"rigid{instance}.ini"
    path.write_text(generate.rigid_ini(instance))
    return cli.config_from_ini(path)


# nominal: the triangle; rigid20 instances 0 and 3: 20 agents, 37 edges,
# whose distortions (0.68 and 1.19) exceed dist_tol = 0.5; the caps on the
# window's largest estimate error stand about 2 to 6 times above the values
# measured (1.7e-6, 9.8e-3 and 1.1e-3)
@pytest.mark.parametrize("case, eps_cap", [("nominal", 1e-5), ("rigid20-0", 2e-2),
                                           ("rigid20-3", 5e-3)])
def test_final_window_is_the_steady_rigid_motion(case, eps_cap, tmp_path):
    if case == "nominal":
        config = replace(scenario_nominal(), duration=SETTLE)
    else:
        config = replace(_rigid20(int(case.rsplit("-", 1)[1]), tmp_path), duration=SETTLE)
    near = init_world(config).r[0]  # the spawn picks the shape's realization
    oracle = steady_motion(config.graph, config.distances, config.mismatch, near)

    series = run(config)
    window = config.thresholds.window(series.steps)
    eps = series.est_errors[window].max()
    assert eps < eps_cap
    steering = np.repeat(eps + oracle.lengths * abs(oracle.rate) * config.dt, 2)
    tol = 2.0 * np.abs(oracle.sensitivity) @ steering
    m = config.graph.edge_count

    deviations = (series.distances[window] - series.config.distances.values).mean(axis=0)
    np.testing.assert_array_less(np.abs(deviations - oracle.deviations), tol[:m])
    assert abs(series.centroid_speed[window].mean() - oracle.speed) < tol[m]
    assert abs(series.angular_rate[window].mean() - oracle.rate) < tol[m + 1]
    # the label follows from the oracle: a steady motion whose distortion
    # exceeds dist_tol drifts with a wrong shape
    formed = np.abs(oracle.deviations).max() <= config.thresholds.dist_tol
    assert (detect_outcome(series) == "converged") == formed
