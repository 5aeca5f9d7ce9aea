#!/usr/bin/env python3
"""Explain the rigid20 workload's outcome labels by Algorithm 1's steady motion.

Mismatched biases drive a rigid formation into a steady rigid motion of a
slightly distorted shape.  For each instance of `perfbench/generate.rigid_ini`
(20 agents, 37 edges) this solves for that motion with
`tests/oracles.steady_motion`, from the instance's spawn, and prints its
distortion, max |z_k| - d_k, beside the engine's outcome label at the
instance's own duration and at the oracle's settle time.  A steady motion
whose distortion exceeds `dist_tol` moves on with a wrong shape, so such an
instance should be labelled `translating_drift` once it has settled.

Example:
    python3 scripts/rigid20_steady_motion.py --instances 60
"""

import argparse
import collections
import importlib.util
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from formloc import cli
from formloc.scenario import detect_outcome
from formloc.sim import DivergenceError, init_world, run

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from oracles import SETTLE, steady_motion  # noqa: E402


def _generate():
    spec = importlib.util.spec_from_file_location("perfbench_generate",
                                                  ROOT / "perfbench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate


def _label(config) -> str:
    try:
        return detect_outcome(run(config))
    except DivergenceError:
        return "diverged"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=60, help="instances 0..N-1")
    args = parser.parse_args()
    generate = _generate()
    tally = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for instance in range(args.instances):
            path = Path(tmp) / f"rigid20-{instance}.ini"
            path.write_text(generate.rigid_ini(instance))
            config = cli.config_from_ini(path)
            try:
                oracle = steady_motion(config.graph, config.distances, config.mismatch,
                                       init_world(config).r[0])
            except RuntimeError:
                oracle = None
            short, settled = _label(config), _label(replace(config, duration=SETTLE))
            if oracle is None:
                kind, text = "not found", "      -"
            else:
                distortion = float(np.abs(oracle.deviations).max())
                kind = "distorted" if distortion > config.thresholds.dist_tol else "formed"
                text = f"{distortion:7.3f}"
            tally[kind, short, settled] += 1
            print(f"#{instance:>2} {text} {kind:<9} {config.duration:g} s: {short:<24} "
                  f"{SETTLE:g} s: {settled}", flush=True)
    print(f"\nsteady motion (dist_tol = {config.thresholds.dist_tol:g}), "
          f"label at {config.duration:g} s, label at {SETTLE:g} s: instances")
    for (kind, short, settled), count in sorted(tally.items()):
        print(f"  {kind:<9} {short:<24} {settled:<24} {count:>3}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
