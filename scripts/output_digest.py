#!/usr/bin/env python3
"""Print a sha256 for every output the engine's byte-identity checks cover.

Two checkouts print the same lines exactly when these outputs are byte-identical:

- `metrics.csv`, `manifest.txt` and the stdout and stderr text of
  `formloc reproduce` for the four presets;
- the same of `formloc run --config` on the rigid20 instances 0-2 that
  `perfbench/generate.rigid_ini` writes;
- the text of `scripts/seed_sweep.py --seeds 16 --verbose` and `--seeds 60`;
- every metric array and event of `run(config, seeds=range(6))` with
  measurement noise, for nominal at 3 s and rigid20 instance 1 at 1 s (none
  of the runs above draws measurement noise);
- the same of `run(config, seeds=range(4))` with measurement noise on a
  4-agent graph whose agent 4 has one neighbor (degrees 3, 2, 2, 1), so its
  filter bucket has one row per seed;
- the same of `run(config, seeds=range(3))` with measurement noise for the
  ideal nominal at 0.05 s with offsets drawn 1e160 wide, whose innovation
  covariances overflow, so every filter refuses every update;
- the exit code and the stdout and stderr text of `formloc check-observability`
  on the trajectories `perfbench/generate.trajectory_lines(0, n)` writes for
  n = 1 and 5, and with `--n 3 --seed 0`.

Every run uses this checkout's `src/`.  Compare two checkouts with

    diff <(python3 A/scripts/output_digest.py) <(python3 B/scripts/output_digest.py)
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

import generate
from formloc.cli import SCENARIOS, config_from_ini
from formloc.network import DesiredDistances, Graph
from formloc.scenario import ScenarioConfig, scenario_nominal
from formloc.sim import DivergenceError, run

SERIES_ARRAYS = ("t", "distances", "est_errors", "dist_errors", "centroid_speed",
                 "angular_rate", "max_speed")


def _python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True)


def _show(digest: str, label: str) -> None:
    print(f"{digest}  {label}", flush=True)


def _text(label: str, temp: Path, *argv: str) -> None:
    """The exit code and the stdout and stderr text of `formloc *argv`."""
    proc = _python("-m", "formloc", *argv)
    print(f"exit {proc.returncode}  {label}", flush=True)
    # `temp` is a fresh temp path each time: hash the text without it
    text = proc.stdout + b"\n-- stderr --\n" + proc.stderr
    _show(hashlib.sha256(text.replace(str(temp).encode(), b"<out>")).hexdigest(),
          f"{label} stdout+stderr")


def _artifacts(label: str, out: Path, *argv: str) -> None:
    _text(label, out, *argv, "--out", str(out))
    for name in ("metrics.csv", "manifest.txt"):
        path = out / name
        _show(hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing",
              f"{label}/{name}")


def _series_digest(results) -> str:
    h = hashlib.sha256()
    for result in results:
        if isinstance(result, DivergenceError):
            h.update(str(result).encode())
            continue
        # then the desired distances of the config the series carries
        for array in [*(getattr(result, name) for name in SERIES_ARRAYS),
                      result.config.distances.values]:
            h.update(np.ascontiguousarray(array).tobytes())
        h.update(repr(result.events).encode())
    return h.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in sorted(SCENARIOS):
            _artifacts(f"presets/{name}", tmp / name, "reproduce", name)
        for instance in range(3):
            path = tmp / f"rigid20-{instance}.ini"
            path.write_text(generate.rigid_ini(instance))
            _artifacts(f"rigid20/{instance}", tmp / f"rigid20-{instance}", "run", "--config", str(path))
        for args in (("--seeds", "16", "--verbose"), ("--seeds", "60")):
            proc = _python("scripts/seed_sweep.py", *args)
            _show(hashlib.sha256(proc.stdout).hexdigest(),
                  f"seed_sweep {' '.join(args)} (exit {proc.returncode})")
        noisy = {"nominal 3 s": replace(scenario_nominal(), duration=3.0),
                 "rigid20/1 1 s": replace(config_from_ini(tmp / "rigid20-1.ini"), duration=1.0)}
        for label, config in noisy.items():
            config = replace(config, measurement_noise=True)
            _show(_series_digest(run(config, seeds=range(6))), f"run {label} noisy, seeds 0-5")
        pendant = ScenarioConfig(graph=Graph(4, ((0, 1), (1, 2), (2, 0), (0, 3))),
                                 distances=DesiredDistances.uniform(4, 5.0), variant="estimated",
                                 mismatch=None, measurement_noise=True, duration=3.0)
        _show(_series_digest(run(pendant, seeds=range(4))),
              "run degree-1 graph 3 s noisy, seeds 0-3")
        refusing = replace(scenario_nominal(), variant="ideal", mismatch=None, duration=0.05,
                           offset_bound=1e160, initial_var=1.0, measurement_noise=True)
        with np.errstate(over="ignore", invalid="ignore"):
            _show(_series_digest(run(refusing, seeds=range(3))),
                  "run nominal ideal 0.05 s offsets 1e160 noisy, seeds 0-2 (every update refused)")
        for n in (1, 5):
            path = tmp / f"traj-0-n{n}.csv"
            with open(path, "w") as fh:
                fh.writelines(generate.trajectory_lines(0, n))
            _text(f"check-observability trajectory #0 n={n}", path,
                  "check-observability", "--trajectory", str(path))
        _text("check-observability --n 3 --seed 0", tmp, "check-observability", "--n", "3", "--seed", "0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
