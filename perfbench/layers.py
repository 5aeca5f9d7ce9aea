"""Per-layer metrics from traced runs: hook list, span arithmetic, law timings.

The layers are formloc's modules.  Each hooked function yields
`<module>.<function>.{calls,busy_s,self_s}`; a function that no longer
exists (or is never called on a workload) reports zero calls.  A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

# Hooked at their defining module; the launcher also swaps every alias, so
# `formloc.sim.predict` and `formloc.estimator.step_jacobian` are caught.
HOOKS = (
    "formloc.cli:main",
    "formloc.cli:config_from_ini",
    "formloc.cli:write_metrics_csv+bytes",
    "formloc.cli:write_manifest",
    "formloc.sim:run",
    "formloc.sim:init_world",
    "formloc.sim:step",
    "formloc.estimator:predict",
    "formloc.estimator:update",
    "formloc.lie_group:step_body_velocity",
    "formloc.lie_group:step_jacobian",
    "formloc.observability:observation",
    "formloc.observability:observation_jacobian",
    "formloc.observability:empirical_gramian",
    "formloc.observability:codistribution_rank",
    "formloc.network:edge_offsets",
    "formloc.network:distance_errors",
)

# First operation of every entry point the workloads use; a set-up probe
# stops at whichever of these is called first.
FIRST_OPERATION = (
    "formloc.sim:run",
    "formloc.observability:empirical_gramian",
    "formloc.observability:codistribution_rank",
)

LAWS = ("mismatch_control", "estimated_control", "ideal_control")


def span_names() -> list[str]:
    names = []
    for spec in HOOKS:
        module, _, fn = spec.partition("+")[0].partition(":")
        names.append(f"{module.rpartition('.')[2]}.{fn}")
    return names


def self_times(spans) -> dict:
    """id -> duration minus the union of its children's intervals, for spans
    given as (id, name, start, end, parent) of one process."""
    children = {}
    for sid, _, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _ in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = end - start - covered
    return out


def busy_times(spans) -> dict:
    """name -> summed duration of spans without a same-named ancestor, so a
    recursive call is not counted twice."""
    by_id = {s[0]: s for s in spans}
    out = {}
    for sid, name, start, end, parent in spans:
        p = by_id.get(parent)
        while p is not None and p[1] != name:
            p = by_id.get(p[4])
        if p is None:
            out[name] = out.get(name, 0) + end - start
    return out


def aggregate(trace_files) -> tuple[dict, list[str]]:
    """Per-layer metric values over the span files of one traced cycle (one
    file per operation), and the hooks that were absent."""
    names = span_names()
    calls = dict.fromkeys(names, 0)
    busy = dict.fromkeys(names, 0)
    self_ns = dict.fromkeys(names, 0)
    steps_us, absent = [], set()
    written = failed_updates = divergences = 0
    for path in trace_files:
        data = json.loads(Path(path).read_text())
        absent.update(data["absent"])
        spans = [(sid, data["names"][ni], t0, t1, parent)
                 for sid, ni, t0, t1, parent in data["spans"]]
        errors = {int(k): v for k, v in data["errors"].items()}
        written += sum(data["extra"].values())
        selfs = self_times(spans)
        for name, ns in busy_times(spans).items():
            busy[name] += ns
        for sid, name, t0, t1, _ in spans:
            calls[name] += 1
            self_ns[name] += selfs[sid]
            if name == "sim.step":
                steps_us.append((t1 - t0) / 1e3)
                divergences += errors.get(sid) == "DivergenceError"
            elif name == "estimator.update":
                failed_updates += errors.get(sid) == "SingularUpdateError"
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.busy_s"] = busy[name] / 1e9
        metrics[f"{name}.self_s"] = self_ns[name] / 1e9
    steps_us.sort()
    metrics["cli.write_metrics_csv.bytes"] = written
    metrics["estimator.update.failed"] = failed_updates
    metrics["sim.step.p50_us"] = statistics.median(steps_us) if steps_us else 0.0
    metrics["sim.step.p99_us"] = statistics.quantiles(steps_us, n=100)[98] if len(steps_us) > 1 else 0.0
    metrics["sim.divergences"] = divergences
    return metrics, sorted(absent)


def _per_call_us(fn, *args, calls: int = 300, repeats: int = 7) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn(*args)
        samples.append((time.perf_counter_ns() - t0) / calls / 1e3)
    return statistics.median(samples)


def time_control_laws(src: Path, configs: list) -> tuple[dict, list[str]]:
    """Median µs per call of each public control law, evaluated on the
    initial states of the workload's configs for the laws their variants
    use (ideal_control on every graph).  `configs` holds (scenario name,
    field overrides) pairs or ("ini", path).  A law whose call fails here
    (say, after an API change) is reported absent."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from dataclasses import replace

    import formloc
    from formloc import cli

    samples = {law: [] for law in LAWS}
    absent = set()
    for name, value in configs:
        if name == "ini":
            config = cli.config_from_ini(value)
        else:
            config = replace(cli.SCENARIOS[name](), **value)
        graph, d = config.graph, config.distances
        world = formloc.init_world(config)
        r = world.r

        def estimate(i, j):
            # agent i's estimate of r_i - r_j; its filter tracks r_j - r_i
            block = formloc.sorted_neighbors(graph, i).index(j)
            return -world.filters[i].mean.offset(block)

        e = formloc.distance_errors(formloc.edge_offsets(graph, r), d)
        calls = {"ideal_control": lambda: formloc.ideal_control(graph, r, d)}
        if config.variant == "estimated":
            est = {}
            for t, h in graph.edges:
                est[(t, h)] = estimate(t, h)
                est[(h, t)] = estimate(h, t)
            calls["estimated_control"] = lambda: formloc.estimated_control(graph, est, e)
        if config.variant == "algorithm1":
            shared = [estimate(t, h) for t, h in graph.edges]
            calls["mismatch_control"] = lambda: formloc.mismatch_control(
                graph, formloc.assign_ownership(graph), shared, e, config.mismatch)
        for law, call in calls.items():
            try:
                samples[law].append(_per_call_us(call))
            except (AttributeError, TypeError, ValueError) as exc:
                absent.add(f"controller.{law} ({type(exc).__name__}: {exc})")
    values = {f"controller.{law}.us": statistics.median(v) if v else 0.0
              for law, v in samples.items()}
    return values, sorted(absent)
