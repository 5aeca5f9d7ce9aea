#!/usr/bin/env python3
"""Record reference.json: every operation of every input set, run once.

    python3 perfbench/record.py

Run this only on a commit whose outputs are known to be right; the
benchmark then fails any later operation whose exit code, outcome label or
final numbers differ.  It also stores each operation's work (closed-loop
steps, trajectory samples or state checks), so throughput counts what an
operation is supposed to do, not what a broken run printed.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import generate
import run

# Final numbers may differ by this much.  Scaling process_position_psd by
# (1 + 1e-12) moved them by at most 2.4e-12 and flipped no label (see
# README.md); the absolute term sits about 400 times above that.
TOLERANCE = {"rel": 1e-6, "abs": 1e-9}


def work_of(op: run.Op, obs: dict) -> int:
    if op.kind == "manifest":
        return int(obs["labels"]["steps"]) if obs["exit"] == 0 else 0
    if op.kind == "sweep":
        diverged = obs["labels"]["outcome"] == "diverged"
        return 0 if diverged else round(run.SWEEP_DURATION / run.SWEEP_DT)
    return generate.TRAJ_SAMPLES if op.kind == "gramian" else 1


def main() -> int:
    work = run.WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    entries = {}
    for workload in ("presets", "sweep", "rigid20", "observability"):
        seeds = range(run.INPUT_SETS) if workload in ("rigid20", "observability") else [0]
        for seed in seeds:
            ops, _ = run.build(workload, seed, work)
            for op in ops:
                res = run.run_op(op, work, time.perf_counter() + 600.0)
                if "Traceback" in res.stderr:
                    print(res.stderr, file=sys.stderr)
                    return 1
                for key, obs in run.observe(res).items():
                    entries[key] = dict(obs, work=work_of(op, obs))
                    print(f"{key:<32} exit {obs['exit']}  {obs['labels']}  {res.wall:.2f} s")
    reference = {
        "facts": run.run_facts(),
        "tolerance": TOLERANCE,
        "ops": dict(sorted(entries.items())),
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {run.REFERENCE} with {len(entries)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
