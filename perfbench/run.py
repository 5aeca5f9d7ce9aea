#!/usr/bin/env python3
"""Closed-loop benchmark of formloc through the entry points users run.

    python3 perfbench/run.py --workload presets --seed 0 --seconds 10 --trace 0

Workloads (why each was chosen is in BENCHMARK.json and README.md):
presets, sweep, rigid20, observability.  Every operation runs in a fresh
interpreter (`python3 -m formloc ...` or `python3 scripts/seed_sweep.py`)
with src/ on PYTHONPATH, one after another (closed loop, one client).  A
run repeats whole cycles of its workload's operations until --seconds have
passed (presets: at least three cycles), so the mix of operations never
depends on where the clock cuts.

--trace 0  untraced: end-to-end metrics (work_per_s, setup_s, peak_rss_mb).
--trace 1  one cycle in which every operation runs untraced and then traced:
           per-layer metrics from spans recorded around formloc's module
           functions (see layers.py), and the tracing overhead.

Every operation's exit code, outcome label and final numbers are checked
against reference.json, recorded at the commit that added the benchmark
(regenerate with record.py).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import generate
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"     # workloads and metric names, units and bounds
WORK = ROOT / ".perfbench_out"

PRESETS = ("nominal", "issue1", "issue2", "issue3")
SWEEP_SEEDS = 16
SWEEP_DT = 0.01
SWEEP_DURATION = 12.0
RIGID_PER_SET = 6
OBS_ROUNDS = 3
INPUT_SETS = 10          # --seed selects one of these recorded input sets
SETUP_PROBES = 9         # spread over the first cycle, after one warm-up
# One presets cycle is dominated by a single 10 s operation, so its rate is
# the median of three cycles; the others average many operations per cycle.
MIN_CYCLES = {"presets": 3}
RUN_LIMIT_S = 170.0      # the whole run must end within 180 s


@dataclass
class Op:
    """One program invocation; `keys` are the reference entries it answers."""

    label: str
    argv: list
    kind: str                   # manifest | sweep | gramian | rank
    keys: list
    out_dir: Path | None = None
    input: Path | None = None


@dataclass
class Result:
    op: Op
    code: int
    wall: float
    maxrss_kib: int
    stdout: str
    stderr: str


def build(workload: str, seed: int, work: Path) -> tuple[list[Op], list]:
    """Generate the workload's inputs for this seed and list one cycle of
    operations, plus the configs whose control laws the traced run times."""
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    base = seed % INPUT_SETS
    if workload == "presets":
        ops = [Op(f"reproduce {name}", ["-m", "formloc", "reproduce", name, "--out", str(out / name)],
                  "manifest", [f"presets/{name}"], out / name) for name in PRESETS]
        return ops, [(name, {}) for name in PRESETS]
    if workload == "sweep":
        argv = ["scripts/seed_sweep.py", "--seeds", str(SWEEP_SEEDS), "--dt", repr(SWEEP_DT),
                "--duration", repr(SWEEP_DURATION), "--verbose"]
        ops = [Op(f"seed_sweep 0-{SWEEP_SEEDS - 1}", argv, "sweep",
                  [f"sweep/seed {k}" for k in range(SWEEP_SEEDS)])]
        overrides = {"dt": SWEEP_DT, "duration": SWEEP_DURATION}
        return ops, [("nominal", dict(overrides, seed=k)) for k in range(SWEEP_SEEDS)]
    if workload == "rigid20":
        ops = []
        for j in range(RIGID_PER_SET):
            instance = RIGID_PER_SET * base + j
            path = inputs / f"rigid20-{instance}.ini"
            path.write_text(generate.rigid_ini(instance))
            ops.append(Op(f"run rigid20 #{instance}",
                          ["-m", "formloc", "run", "--config", str(path), "--out", str(out / str(instance))],
                          "manifest", [f"rigid20/{instance}"], out / str(instance), path))
        return ops, [("ini", op.input) for op in ops]
    if workload == "observability":
        ops = []
        for r in range(OBS_ROUNDS):
            instance = OBS_ROUNDS * base + r
            for n in generate.TRAJ_NEIGHBORS:
                path = inputs / f"traj-{instance}-n{n}.csv"
                with open(path, "w") as fh:
                    fh.writelines(generate.trajectory_lines(instance, n))
                ops.append(Op(f"trajectory #{instance} n={n}",
                              ["-m", "formloc", "check-observability", "--trajectory", str(path)],
                              "gramian", [f"observability/traj {instance} n{n}"], input=path))
        for n in generate.TRAJ_NEIGHBORS:
            state = OBS_ROUNDS * base
            ops.append(Op(f"rank --seed {state} n={n}",
                          ["-m", "formloc", "check-observability", "--n", str(n), "--seed", str(state)],
                          "rank", [f"observability/rank {state} n{n}"]))
        return ops, []
    raise ValueError(f"unknown workload {workload!r}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list, work: Path, timeout: float) -> tuple[int, float, int, str, str]:
    """Run `python3 *argv` from the repository root; return exit code, wall
    seconds, peak resident KiB of that process, stdout and stderr."""
    out_path, err_path = work / "op.out", work / "op.err"
    timeout = max(timeout, 1.0)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=_child_env(),
                                stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, out_path.read_text(), err_path.read_text()


def run_op(op: Op, work: Path, deadline: float, trace_file: Path | None = None) -> Result:
    argv = op.argv
    if trace_file is not None:
        argv = [str(HERE / "launch.py"), "trace", ",".join(layers.HOOKS), str(trace_file), *argv]
    code, wall, rss, out, err = spawn(argv, work, deadline - time.perf_counter())
    return Result(op, code, wall, rss, out, err)


def setup_probe(op: Op, work: Path, deadline: float) -> float:
    argv = [str(HERE / "launch.py"), "probe", ",".join(layers.FIRST_OPERATION), *op.argv]
    code, wall, _, _, err = spawn(argv, work, deadline - time.perf_counter())
    if code != 0:
        raise RuntimeError(f"set-up probe of {op.label} exited {code}: {err.strip()[-300:]}")
    return wall


# ---------------------------------------------------------------- checking

_SWEEP_LINE = re.compile(r"^seed\s+(\d+): (\S+)(?:\s+est=(\S+) cspd=(\S+))?\s*$", re.M)
_RESULT_NUMBERS = ("final_max_dist_error", "final_max_est_error", "steady_angular_rate")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def observe(res: Result) -> dict:
    """What the operation produced, per reference key:
    {"exit", "labels", "numbers", "input_sha256"}; numbers stay text."""
    op, out = res.op, res.stdout
    base = {"exit": res.code, "input_sha256": _sha256(op.input) if op.input else None}
    if op.kind == "sweep":
        found = {int(m[1]): m for m in _SWEEP_LINE.finditer(out)}
        obs = {}
        for key in op.keys:
            m = found.get(int(key.rpartition(" ")[2]))
            obs[key] = dict(base, labels={"outcome": m[2] if m else None},
                            numbers={"est": m[3], "cspd": m[4]} if m and m[3] else {})
        return obs
    labels, numbers = {}, {}
    if op.kind == "manifest":
        m = re.search(r"^outcome: (\S+)", out, re.M)
        labels["outcome"] = m[1] if m else None
        manifest = op.out_dir / "manifest.txt"
        if res.code == 0 and manifest.is_file():
            ini = configparser.ConfigParser()
            ini.read(manifest)
            labels["steps"] = ini["result"].get("steps")
            numbers = {k: ini["result"].get(k) for k in _RESULT_NUMBERS}
    elif op.kind == "gramian":
        m = re.search(r"^gramian rank: (.*)$", out, re.M)
        labels["rank"] = m[1] if m else None
        m = re.search(r"^unobservable neighbor blocks: (.*)$", out, re.M)
        labels["blocks"] = m[1] if m else ""
    else:
        m = re.search(r"^codistribution rank: (.*)$", out, re.M)
        labels["rank"] = m[1] if m else None
    return {op.keys[0]: dict(base, labels=labels, numbers=numbers)}


def numbers_agree(got: str | None, ref: str, tol: dict, rounded: bool = False) -> bool:
    """Within the reference tolerance; numbers the program rounds for
    printing (seed_sweep's %.3g) may also differ by one unit of their last
    digit, since a tiny move across a rounding boundary changes it."""
    try:
        a, b = float(got), float(ref)
    except (TypeError, ValueError):
        return False
    unit = float(Decimal(10) ** Decimal(ref).as_tuple().exponent) if rounded else 0.0
    return abs(a - b) <= max(unit * (1 + 1e-9), tol["rel"] * abs(b), tol["abs"])


def check(res: Result, reference: dict) -> dict:
    """Reference key -> list of mismatches (empty when the output is right)."""
    tol = reference["tolerance"]
    raised = "Traceback (most recent call last)" in res.stderr
    problems = {}
    for key, obs in observe(res).items():
        ref = reference["ops"].get(key)
        bad = []
        if ref is None:
            bad.append("no reference entry")
        else:
            if raised:
                bad.append("raised: " + res.stderr.strip().splitlines()[-1])
            if obs["exit"] != ref["exit"]:
                bad.append(f"exit {obs['exit']} != {ref['exit']}")
            if obs["input_sha256"] != ref["input_sha256"]:
                bad.append("generated input differs from the recorded one")
            for name, want in ref["labels"].items():
                if obs["labels"].get(name) != want:
                    bad.append(f"{name} {obs['labels'].get(name)!r} != {want!r}")
            for name, want in ref["numbers"].items():
                if not numbers_agree(obs["numbers"].get(name), want, tol, res.op.kind == "sweep"):
                    bad.append(f"{name} {obs['numbers'].get(name)} != {want}")
        problems[key] = bad
    return problems


# ---------------------------------------------------------------- facts


_BLAS_THREADS = """
import ctypes, numpy
libs = sorted({l.split()[-1] for l in open("/proc/self/maps") if "openblas" in l.lower()})
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            print(fn())
            raise SystemExit
print("unknown")
"""


def _blas_threads() -> str:
    """Threads OpenBLAS uses in a fresh process, read from the library numpy
    loads.  Asked in a child so this process stays small: a child's peak RSS
    as the kernel reports it is at least this process's RSS at spawn."""
    proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS], env=_child_env(),
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def run_facts() -> dict:
    try:
        load = float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        load = None
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    from importlib.metadata import PackageNotFoundError, version
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    import platform
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": _blas_threads(),
        "loadavg_1m": load,
    }


# ---------------------------------------------------------------- running


class Tally:
    """Gate results and completed work over the operations of a run."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = self.failed = 0
        self.failures = []

    def record(self, res: Result) -> int:
        """Check one operation; return the reference work it completed."""
        done = 0
        for key, bad in check(res, self.reference).items():
            self.attempted += 1
            if bad:
                self.failed += 1
                self.failures.append(f"{key}: {'; '.join(bad)}")
            else:
                done += self.reference["ops"][key]["work"]
        return done


def run_checked(op: Op, work: Path, tally: Tally, deadline: float,
                trace_file: Path | None = None) -> tuple[Result, int]:
    """Run one operation, gate its output; return it with the work it completed."""
    res = run_op(op, work, deadline, trace_file)
    done = tally.record(res)
    print(f"op {op.label}: {res.wall:.3f} s, exit {res.code}{', traced' if trace_file else ''}")
    return res, done


def run_cycle(ops, work, tally, deadline, probes=0):
    """Run every operation once; return (work done, summed wall, max RSS KiB,
    set-up probe times).  `probes` set-up probes are spread evenly between
    the operations, so they sample the same stretch of time."""
    done, wall, rss, probe_walls = 0, 0.0, 0, []
    for i, op in enumerate(ops):
        while len(probe_walls) < probes and len(probe_walls) * len(ops) <= i * probes:
            probe_walls.append(setup_probe(ops[0], work, deadline))
        res, d = run_checked(op, work, tally, deadline)
        done, wall, rss = done + d, wall + res.wall, max(rss, res.maxrss_kib)
    while len(probe_walls) < probes:
        probe_walls.append(setup_probe(ops[0], work, deadline))
    return done, wall, rss, probe_walls


def measure(ops, work, tally, seconds, deadline, min_cycles) -> dict:
    """End-to-end metrics: the median over cycles of work per second of
    operation wall time, the median set-up probe, the largest peak RSS."""
    setup_probe(ops[0], work, deadline)     # warm-up: bytecode caches, page cache
    rates, probes, rss = [], [], 0
    start = time.perf_counter()
    while True:
        c_start = time.perf_counter()
        done, wall, r, p = run_cycle(ops, work, tally, deadline, 0 if rates else SETUP_PROBES)
        rates.append(done / wall)
        probes, rss = probes + p, max(rss, r)
        now = time.perf_counter()
        if now + (now - c_start) > deadline or (
                now - start >= seconds and len(rates) >= min_cycles):
            break
    print(f"cycles {len(rates)}  work/s per cycle {' '.join(f'{x:.6g}' for x in rates)}  "
          f"setup probes {' '.join(f'{p:.4f}' for p in probes)}")
    return {
        "work_per_s": statistics.median(rates),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": rss / 1024.0,
    }


def measure_traced(ops, laws, work, tally, deadline) -> dict:
    """Each operation runs untraced and then traced, back to back, so the
    overhead compares the two under the same machine speed."""
    trace_dir = work / "trace"
    trace_dir.mkdir(exist_ok=True)
    plain_wall = traced_wall = 0.0
    files = []
    for i, op in enumerate(ops):
        plain, _ = run_checked(op, work, tally, deadline)
        traced, _ = run_checked(op, work, tally, deadline, trace_dir / f"op{i}.json")
        plain_wall, traced_wall = plain_wall + plain.wall, traced_wall + traced.wall
        files.append(trace_dir / f"op{i}.json")
    metrics, absent = layers.aggregate(f for f in files if f.is_file())
    law_values, law_absent = layers.time_control_laws(SRC, laws)
    metrics.update(law_values)
    metrics["trace.overhead_frac"] = 1.0 - plain_wall / traced_wall
    for name in [*absent, *law_absent]:
        print(f"absent hook: {name}")
    print(f"untraced {plain_wall:.3f} s  traced {traced_wall:.3f} s  spans in {trace_dir}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    missing = [p for p in (SRC / "formloc" / "cli.py", ROOT / "scripts" / "seed_sweep.py",
                           REFERENCE, BENCHMARK) if not p.is_file()]
    if missing:
        print("perfbench: missing " + ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in why:
        parser.error(f"--workload must be one of {', '.join(why)}")
    reference = json.loads(REFERENCE.read_text())
    facts = run_facts()

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops, laws = build(args.workload, args.seed, work)
    tally = Tally(reference)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"why: {why[args.workload]}")
    print("facts " + json.dumps(facts, sort_keys=True))
    if args.trace:
        values = measure_traced(ops, laws, work, tally, deadline)
        specs = bench["per_layer"]
    else:
        values = measure(ops, work, tally, args.seconds, deadline, MIN_CYCLES.get(args.workload, 1))
        specs = bench["end_to_end"]
    for line in tally.failures:
        print(f"FAILED {line}")
    print(f"failed_frac {tally.failed}/{tally.attempted}")
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} {value} {spec['unit']}")
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
