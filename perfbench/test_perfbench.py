"""Tests of the benchmark itself: generators, span arithmetic, the output
gate, hooks that outlive the functions they name, and the printed report.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import generate
import layers
import run

HERE = Path(__file__).resolve().parent


def _digest(lines) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def test_generators_are_byte_deterministic_per_seed():
    assert generate.rigid_ini(7) == generate.rigid_ini(7)
    assert generate.rigid_ini(7) != generate.rigid_ini(8)
    a = _digest(generate.trajectory_lines(4, 3))
    assert a == _digest(generate.trajectory_lines(4, 3))
    assert a != _digest(generate.trajectory_lines(5, 3))


@pytest.mark.parametrize("instance", [0, 37])
def test_rigid20_keeps_its_shape_across_seeds(instance, tmp_path):
    from formloc.cli import config_from_ini

    path = tmp_path / "rigid.ini"
    path.write_text(generate.rigid_ini(instance))
    config = config_from_ini(path)
    graph = config.graph
    assert (graph.agent_count, graph.edge_count) == (20, 37)
    # Henneberg: every agent after the first two joins exactly two predecessors
    for k in range(2, 20):
        assert sum(1 for t, h in graph.edges if max(t, h) == k) == 2
    assert config.variant == "algorithm1"


def test_trajectory_has_one_stationary_neighbor():
    lines = list(generate.trajectory_lines(2, 3))
    assert lines[0] == "t,theta,x1,y1,x2,y2,x3,y3,w,vx1,vy1,vx2,vy2,vx3,vy3\n"
    assert len(lines) == generate.TRAJ_SAMPLES + 1
    first, last = lines[1].split(","), lines[-1].split(",")
    assert first[6:8] == last[6:8]           # neighbor 3 never moves
    assert first[2:4] != last[2:4]


def test_sweep_reference_mixes_outcomes():
    ops = json.loads(run.REFERENCE.read_text())["ops"]
    outcomes = {v["labels"]["outcome"] for k, v in ops.items() if k.startswith("sweep/")}
    assert {"converged", "shape_ok_estimates_stale", "translating_drift", "diverged"} <= outcomes


def test_self_time_on_synthetic_span_tree():
    # root 0..100 has children 10..40 and 35..45 (overlapping) and 50..60;
    # the first child has a grandchild 20..30.
    spans = [
        (3, "g", 20, 30, 1),
        (1, "a", 10, 40, 0),
        (2, "b", 35, 45, 0),
        (4, "c", 50, 60, 0),
        (0, "root", 0, 100, -1),
    ]
    selfs = layers.self_times(spans)
    assert selfs == {0: 100 - 35 - 10, 1: 20, 2: 10, 3: 10, 4: 10}


def test_busy_time_counts_recursion_once():
    spans = [(1, "f", 10, 20, 0), (0, "f", 0, 50, -1), (2, "g", 60, 70, -1)]
    assert layers.busy_times(spans) == {"f": 50, "g": 10}


def _rank_op():
    return run.Op("rank", ["-m", "formloc", "check-observability", "--n", "2", "--seed", "0"],
                  "rank", ["observability/rank 0 n2"])


def test_gate_flags_output_against_a_wrong_reference(tmp_path):
    res = run.run_op(_rank_op(), tmp_path, time.perf_counter() + 60)
    right = {"tolerance": {"rel": 1e-6, "abs": 1e-9}, "ops": {"observability/rank 0 n2": {
        "exit": 0, "input_sha256": None, "labels": {"rank": "5 of 5"}, "numbers": {}, "work": 1}}}
    assert run.check(res, right) == {"observability/rank 0 n2": []}
    wrong = json.loads(json.dumps(right))
    wrong["ops"]["observability/rank 0 n2"].update(exit=3, labels={"rank": "4 of 5"})
    problems = run.check(res, wrong)["observability/rank 0 n2"]
    assert problems == ["exit 0 != 3", "rank '5 of 5' != '4 of 5'"]


def test_numbers_agree_within_tolerance_or_printed_digit():
    tol = {"rel": 1e-6, "abs": 1e-9}
    assert run.numbers_agree("1.0000000001", "1.0", tol)
    assert not run.numbers_agree("1.001", "1.0", tol)
    assert not run.numbers_agree("0.1", "0.0", tol)
    assert run.numbers_agree("0.0386", "0.0385", tol, rounded=True)     # %.3g rounding
    assert not run.numbers_agree("0.0387", "0.0385", tol, rounded=True)
    assert not run.numbers_agree("0.0386", "0.0385", tol)
    assert not run.numbers_agree(None, "0.0385", tol)
    assert not run.numbers_agree("garbled", "0.0385", tol)


def test_absent_hooks_are_reported_not_fatal(tmp_path):
    out = tmp_path / "spans.json"
    hooks = "formloc.observability:codistribution_rank,formloc.sim:no_such_function"
    proc = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), "trace", hooks, str(out), *_rank_op().argv],
        cwd=run.ROOT, env=run._child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["absent"] == ["formloc.sim:no_such_function"]
    assert data["names"] == ["observability.codistribution_rank"]
    assert len(data["spans"]) == 1


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_its_unit(trace, monkeypatch, capsys):
    # a two-operation cycle keeps this fast; the report path is the real one
    real_build = run.build
    monkeypatch.setattr(run, "build", lambda *a: (real_build(*a)[0][-2:], []))
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    assert run.main(["--workload", "observability", "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2 * (1 + trace) and result["failed"] == 0
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1])
