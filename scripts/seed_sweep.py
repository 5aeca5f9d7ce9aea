#!/usr/bin/env python3
"""Sweep spawn seeds for the shared-estimate scenario and tally outcomes.

Convergence of the closed loop is local: a wide random spawn can outrun the
measurement cadence, stall on a translation of the wrong shape, or escape
entirely.  This sweep maps that basin, running every seed in one batched
engine pass that keeps only each seed's outcome summary, so its memory does
not grow with the duration.  Divergent runs are reported as their own
category rather than crashing the sweep.

Example:
    python3 scripts/seed_sweep.py --seeds 60
    python3 scripts/seed_sweep.py --seeds 60 --dt 0.002   # finer sampling
"""

import argparse
import collections
import sys
from dataclasses import replace

from formloc.scenario import detect_outcome, scenario_nominal
from formloc.sim import DivergenceError, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=30, help="seeds 0..N-1")
    parser.add_argument("--dt", type=float, default=0.01)
    parser.add_argument("--duration", type=float, default=12.0)
    parser.add_argument("--verbose", action="store_true", help="one line per seed")
    args = parser.parse_args()
    if args.seeds < 0:
        parser.error(f"--seeds must be non-negative, got {args.seeds}")
    try:
        base = replace(scenario_nominal(), dt=args.dt, duration=args.duration)
        # refuses a run shorter than its outcome window, and a batch too big
        # for numpy to index
        results = run(base, seeds=range(args.seeds), summary=True)
    except ValueError as exc:
        parser.error(str(exc))

    tally = collections.Counter()
    for seed, result in enumerate(results):
        if isinstance(result, DivergenceError):
            tally["diverged"] += 1
            if args.verbose:
                print(f"seed {seed:>3}: diverged")
            continue
        outcome = detect_outcome(result, base.thresholds)
        tally[outcome] += 1
        if args.verbose:
            print(f"seed {seed:>3}: {outcome:<26} "
                  f"est={result.est_error:.3g} cspd={result.last_centroid_speed:.3g}")

    total = sum(tally.values())
    print(f"\ndt={args.dt} duration={args.duration} seeds={total}")
    for outcome, count in tally.most_common():
        print(f"  {outcome:<26} {count:>4}  ({100.0 * count / total:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
