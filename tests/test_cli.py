"""Command-line surface: exit codes, file formats, config round trips.

Everything drives `cli.main` in-process; subprocess tests check the
`python -m formloc` wiring and the modules `check-observability` loads.
"""

import ast
import configparser
import errno
import importlib.util
import json
import os
import random
import re
import string
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from formloc import cli
from formloc.controller import MismatchConfig
from formloc.estimator import NoiseConfig
from formloc.lie_group import GroupElement
from formloc.network import DesiredDistances, Graph
from formloc.observability import BLOCK_ROWS, codistribution_rank, empirical_gramian
from formloc.scenario import (
    OutcomeThresholds,
    ScenarioConfig,
    detect_outcome,
    scenario_issue1,
    scenario_issue2,
    scenario_issue3,
    scenario_nominal,
)
from formloc.sim import run

ROOT = Path(__file__).resolve().parents[1]
HEADER = ("t,dist_12,dist_23,dist_13,esterr_12,esterr_23,esterr_13,"
          "centroid_speed,angular_rate")


def _write_config(tmp_path, config, name="config.ini"):
    path = tmp_path / name
    with open(path, "w") as fh:
        cli.config_to_ini(config).write(fh)
    return path


def scenario_explicit():
    """Every setting away from its default: explicit positions and estimates."""
    config = scenario_nominal()
    pairs = [(i, j) for t, h in config.graph.edges for i, j in ((t, h), (h, t))]
    return replace(
        config, dt=0.02, duration=3.0, seed=42, measurement_noise=True,
        offset_bound=0.4, initial_var=1.5, spawn_box=15.5, min_separation=0.75,
        estimator_enabled=False, mismatch=MismatchConfig(np.array([1.0, 0.9, 1.1])),
        initial_positions=np.array([[0.0, 1.0], [3.5, -2.0], [1e-3, 7.0]]),
        initial_estimates={(i, j): np.array([0.1 * i - 1.25, 2.0 + j / 3]) for i, j in pairs},
        noise=NoiseConfig(2e-4, 3e-6, 5e-4, 7e-6),
        thresholds=OutcomeThresholds(0.4, 0.2, 2e-4, 3e-3, 0.15, 0.25),
    )


@pytest.mark.parametrize("factory", [scenario_nominal, scenario_issue1, scenario_issue2,
                                     scenario_issue3, scenario_explicit])
def test_config_ini_round_trip(tmp_path, factory):
    config = factory()
    written = _write_config(tmp_path, config)
    loaded = cli.config_from_ini(written)
    for f in fields(ScenarioConfig):
        want, got = getattr(config, f.name), getattr(loaded, f.name)
        if isinstance(want, (DesiredDistances, MismatchConfig)):
            want, got = want.values, got.values
        # exact equality; dicts are compared key by key, arrays element-wise
        np.testing.assert_equal(got, want, err_msg=f.name)
    # write, load, write: the manifest a replay writes is the one it read
    assert _write_config(tmp_path, loaded, "again.ini").read_bytes() == written.read_bytes()


def test_config_ini_scalar_lines_are_pinned(tmp_path):
    # `run --config manifest.txt` must replay manifests written by earlier
    # versions, so the text of every setting from [noise] on is fixed
    text = _write_config(tmp_path, scenario_explicit()).read_text()
    assert text.split("[noise]\n", 1)[1] == (
        "process_position_psd = 0.0002\nprocess_heading_psd = 3e-06\n"
        "meas_distance_var = 0.0005\nmeas_heading_var = 7e-06\nmeasurement_noise = true\n\n"
        "[init]\noffset_bound = 0.4\nspawn_box = 15.5\nmin_separation = 0.75\n"
        "initial_var = 1.5\npositions = 0.0, 1.0; 3.5, -2.0; 0.001, 7.0\n"
        "est_1_2 = -1.25, 2.3333333333333335\nest_1_3 = -1.25, 2.6666666666666665\n"
        "est_2_1 = -1.15, 2.0\nest_2_3 = -1.15, 2.6666666666666665\n"
        "est_3_1 = -1.05, 2.0\nest_3_2 = -1.05, 2.3333333333333335\n\n"
        "[sim]\ndt = 0.02\nduration = 3.0\nseed = 42\nestimator_enabled = false\n\n"
        "[thresholds]\ndist_tol = 0.4\nest_tol = 0.2\nspeed_tol = 0.0002\n"
        "centroid_tol = 0.003\nerror_floor = 0.15\nwindow_frac = 0.25\n\n"
    )


def test_run_scenario_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", "issue2", "--out", str(out)]) == 0
    assert "outcome: translating_drift" in capsys.readouterr().out

    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 1 + 800  # duration 8 at dt 0.01
    # repr round trip: the parsed floats match the written text exactly
    row = lines[1].split(",")
    assert all(cli._fmt(float(x)) == x for x in row)

    manifest = (out / "manifest.txt").read_text()
    assert "[result]" in manifest
    assert "outcome = translating_drift" in manifest
    assert "metrics = metrics.csv" in manifest


def test_manifest_replay_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--scenario", "issue2", "--out", str(a)]) == 0
    assert cli.main(["run", "--config", str(a / "manifest.txt"), "--out", str(b)]) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


@pytest.mark.parametrize("factory", [scenario_nominal, scenario_issue1,
                                     scenario_issue2, scenario_issue3])
def test_every_manifest_loads_as_config(tmp_path, factory):
    # [artifact] and [result] are manifest-only sections the loader accepts
    config = replace(factory(), duration=0.2)
    series = run(config)
    path = tmp_path / "manifest.txt"
    cli.write_manifest(path, config, series, detect_outcome(series), "metrics.csv")
    assert cli.config_from_ini(path).duration == 0.2


def test_run_overrides_recorded(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", "issue3", "--seed", "7", "--dt", "0.02",
                     "--duration", "4.0", "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "seed = 7" in manifest
    assert "dt = 0.02" in manifest
    assert "duration = 4.0" in manifest


def test_run_usage_errors(tmp_path, capsys):
    assert cli.main(["run"]) == 2
    assert cli.main(["run", "--scenario", "issue2",
                     "--config", "x.ini"]) == 2
    assert cli.main(["run", "--config", str(tmp_path / "missing.ini")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[graph]\nagents = two\nedges = 1-2\n")
    assert cli.main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "agents" in err


def test_config_errors_carry_location(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[graph]\nagents = 3\nedges = 1-2, 2-3, 1-3\n"
                    "[distances]\ndefault = 10.0\n"
                    "[sim]\nseed = 1.5\n")
    with pytest.raises(cli.ConfigError) as exc:
        cli.config_from_ini(path)
    assert f"{path}:7" in str(exc.value)


def test_run_rejects_misspelled_key_with_location(tmp_path, capsys):
    # a typo used to be ignored, and the run took the default 100 s
    path = tmp_path / "cfg.ini"
    path.write_text("[graph]\nagents = 3\nedges = 1-2, 2-3, 1-3\n"
                    "[distances]\ndefault = 10.0\n"
                    "[sim]\ndurration = 0.05\n")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:7" in err and "'durration'" in err and "[sim]" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, line, name", [
    ("[simulation]\ndt = 0.02\n", 6, "[simulation]"),
    ("d_2_1 = 4.0\n", 6, "'d_2_1'"),                 # edge 1-2 is written 1-2
    ("[controller]\na_1_4 = 1.0\n", 7, "'a_1_4'"),  # not an edge
    ("[init]\npositions = 0,0; 10,0; 5,8\nspread = 3\n", 8, "'spread'"),
    ("[init]\nest_4_1 = 1, 0\n", 7, "'est_4_1'"),       # agent 4 does not exist
    ("[init]\nest_1_2 = 1, 0\n", 6, "est_2_1"),         # a pair is missing
    ("[controller]\nvariant = estimated\na_1_2 = 5.0\n", 8, "'a_1_2'"),
    ("[controller]\nvariant = estimated\ndefault = 3.0\n", 8, "'default'"),
    ("[controller]\nvariant = estimated\nsharing = per-edge-owner\n", 8, "'sharing'"),
    ("[controller]\nsharing = per-agent\n", 7, "'sharing'"),  # algorithm1 by default
    # non-finite numbers: nan passed every sign check, inf overflowed
    ("[init]\noffset_bound = nan\n", 7, "offset_bound"),
    ("[init]\nspawn_box = inf\n", 7, "spawn_box"),
    ("[init]\nmin_separation = -inf\n", 7, "min_separation"),
    ("[sim]\ndt = nan\n", 7, "dt"),
    ("[sim]\nseed = 1\nduration = inf\n", 8, "duration"),
    ("[sim]\ndt = 1e-320\n", 7, "dt 1e-320 over duration 100.0 gives inf steps"),  # overflowed
    ("[init]\npositions = 0,0; 10,nan; 5,8\n", 7, "non-finite"),  # read as a divergence
    ("[init]\npositions = 0,0; 10,x; 5,8\n", 7, "non-numeric value"),
    ("[init]\npositions = 0,0; 0,0; 0,0\n", 7, "agents 1 and 2 are 0.0 apart"),  # used to run
    ("[init]\nmin_separation = 2\npositions = 0,0; 10,0; 1,1\n", 8, "agents 1 and 3"),
    ("[init]\nest_1_2 = inf, 0\n", 7, "non-finite"),
    # `;` used to read as a comma: one estimate is one `x, y` pair
    ("[init]\nest_1_2 = 1;2\nest_2_1 = -1, -2\n", 7,
     "expected two comma-separated numbers, got '1;2'"),
    # out-of-range scalars, each at its own key rather than the file or section
    ("[init]\noffset_bound = -1\n", 7, "offset_bound"),
    ("[init]\noffset_bound = 1e200\n", 7, "offset_bound"),  # its variance overflowed
    ("[init]\noffset_bound = 1\nspawn_box = 0\n", 8, "spawn_box"),
    ("[init]\nmin_separation = -1\n", 7, "min_separation"),
    ("[sim]\nseed = 1\ndt = -0.01\n", 8, "dt"),
    ("[sim]\nduration = -1\n", 7, "duration"),
    # 16.67 steps ran as 17, to t = 5.1, under a manifest that said 5.0
    ("[sim]\nduration = 5\ndt = 0.3\n", 7, "duration 5.0 is not a whole number of steps"),
    ("[noise]\nmeas_heading_var = 1e-6\nmeas_distance_var = 0\n", 8, "meas_distance_var"),
    ("[noise]\nprocess_heading_psd = -1\n", 7, "process_heading_psd"),
    ("[thresholds]\ndist_tol = 0.5\nwindow_frac = 2\n", 8, "window_frac"),
    # numpy used to refuse these with a traceback, or the header took the blame
    ("[sim]\ndt = 0.02\nseed = -3\n", 8, "seed must be non-negative, got -3"),
    ("d_1_2 = 4.0\nd_2_3 = -1\n", 7, "d_2_3 must be positive"),
    # `%` is a plain character: the first ended in a traceback, the second
    # loaded as 10.0
    ("[sim]\nduration = 10%\n", 7, "duration must be a number"),
    ("d_1_2 = %(default)s\n", 6, "d_1_2"),
    # section names are case-sensitive; the first [sim] took the blame
    ("[sim]\nseed = 1\n[Sim]\nseed = 3\n", 8, "[Sim]"),
    ("[DEFAULT]\nseed = 3\n", 6, "[DEFAULT]"),
    ("[simulation]\n", 6, "[simulation]"),  # refused with no keys in it
    # the typo, not the odd step count its default duration gives
    ("[sim]\ndt = 0.3\ndurration = 5\n", 8, "'durration'"),
    # configparser's refusals, whose own text named the file again
    ("[graph]\nagents = 4\n", 6, "'graph'"),
    ("[sim]\nseed = 1\nseed = 2\n", 8, "'seed'"),
    ("[sim]\njunk\n", 7, "not a section header"),
])
def test_config_rejects_unknown_sections_and_keys(tmp_path, text, line, name):
    path = tmp_path / "cfg.ini"
    path.write_text("[graph]\nagents = 3\nedges = 1-2, 2-3, 1-3\n"
                    "[distances]\ndefault = 10.0\n" + text)
    with pytest.raises(cli.ConfigError) as exc:
        cli.config_from_ini(path)
    assert f"{path}:{line}:" in str(exc.value) and name in str(exc.value)


@pytest.mark.parametrize("text, where, message", [
    ("[graph]\nagents = 3\nedges = 1-2, 2-x\n", ":3", "edge '2-x' has non-integer endpoints"),
    ("[graph]\nagents = 3\nedges = 1-2, 2-5\n", ":3", "edge '2-5' references an unknown agent"),
    ("[distances]\ndefault = 10.0\n", "", "missing [graph] section"),
    ("[distances]\ndefault = 10.0\n[graph]\nagents = 3\n", ":3", "missing edges key"),
    ("[graph]\nagents = 3\nedges = ,\n", ":3", "no edges given"),
    # a misspelled agents key read as "at least 2 agents required", with no line
    ("[graph]\nagent = 3\nedges = 1-2, 2-3, 1-3\n", ":1", "missing agents key"),
    ("[graph]\nedges = 1-2\nagents = 1\n", ":3", "at least 2 agents required"),
    # configparser's own text named the file again, on three lines
    ("agents = 3\n[graph]\n", ":1", "not a section header, nor a key under one"),
])
def test_run_config_refusals_read_as_pinned(tmp_path, capsys, text, where, message):
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"run: {path}{where}: {message}\n"


def test_config_skips_an_empty_edge_item(tmp_path):
    configs = []
    for edges in ("1-2, , 2-3, 1-3", "1-2, 2-3, 1-3"):
        path = tmp_path / "cfg.ini"
        path.write_text(f"[graph]\nagents = 3\nedges = {edges}\n[distances]\ndefault = 10.0\n")
        configs.append(cli.config_from_ini(path))
    assert configs[0].graph == configs[1].graph == Graph(3, ((0, 1), (1, 2), (0, 2)))


def test_run_writes_distinct_columns_from_ten_agents_up(tmp_path, capsys):
    # edges 1-12 and 11-2 both wrote dist_112 and esterr_112
    path = tmp_path / "cfg.ini"
    path.write_text("[graph]\nagents = 12\nedges = 1-12, 11-2, "
                    + ", ".join(f"{k}-{k + 1}" for k in range(1, 12))
                    + "\n[distances]\ndefault = 10.0\n[sim]\nduration = 0.1\n")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    header = (tmp_path / "out" / "metrics.csv").read_text().split("\n", 1)[0].split(",")
    assert header[1:4] == ["dist_1_12", "dist_11_2", "dist_1_2"]
    assert len(set(header)) == len(header) == 1 + 2 * 13 + 2
    capsys.readouterr()


# every character class a hand-edited value might hold, with no line break
_VALUE_TEXT = st.lists(st.sampled_from([*"0123456789.,;-+e%()", "inf", "nan",
                                        *string.ascii_letters]), max_size=8).map("".join)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=_VALUE_TEXT)
def test_config_loads_or_refuses_any_value_text(tmp_path_factory, data, value):
    # `10%` used to end in a traceback from the interpolation configparser applied
    path = tmp_path_factory.mktemp("cfg") / "cfg.ini"
    lines = _write_config(path.parent, scenario_explicit(), path.name).read_text().split("\n")
    k = data.draw(st.sampled_from([k for k, line in enumerate(lines) if " = " in line]))
    lines[k] = lines[k].split(" = ")[0] + " = " + value
    path.write_text("\n".join(lines))
    try:
        assert isinstance(cli.config_from_ini(path), ScenarioConfig)
    except cli.ConfigError as exc:
        assert str(exc).startswith(str(path))


def test_config_finds_an_agent_without_edges_from_the_edges(tmp_path):
    # every agent's neighbor list used to be built first: 1.9 s and 8.3 MiB here
    path = tmp_path / "cfg.ini"
    path.write_text("[graph]\nagents = 1000000\nedges = 1-2, 2-3, 1-3\n"
                    "[distances]\ndefault = 10.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(cli.ConfigError) as exc:
            cli.config_from_ini(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"{path}:3: agent 4 has no neighbors; every filter needs at least one"
    assert peak < 2**20


def test_config_line_index_matches_what_configparser_parsed():
    # headers match exactly, key names fold case, continuation lines are no keys
    text = "[a]\nX = 1\n  y = 2\n\n   z = 3\n; y = 0\ny = 4\n[A]\n  Y = 5\n"
    ini = configparser.ConfigParser(interpolation=None)
    ini.read_string(text)
    assert ini["a"]["x"] == "1\ny = 2\n\nz = 3"
    assert cli._line_index(ini, text) == {("a", None): 1, ("a", "x"): 2, ("a", "y"): 7,
                                          ("A", None): 8, ("A", "y"): 9}


def test_run_config_path_gives_the_os_reason(tmp_path, capsys):
    # a directory used to be reported as "config file not found"
    for path, reason in ((tmp_path, errno.EISDIR), (tmp_path / "nope.ini", errno.ENOENT)):
        assert cli.main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"run: cannot read config file {path}: {os.strerror(reason)}\n")


def test_run_config_undecodable_bytes_name_the_file(tmp_path, capsys):
    # the byte used to be refused with the decoder's text and no line
    path = tmp_path / "cfg.ini"
    path.write_bytes(b"[graph]\nagents = 3\nedges = 1-2, 2-3, 1-3\n[distances]\ndefault = 1\xff\n")
    assert cli.main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"run: {path}:5: default must be a number, got '1\\\\xff'\n"


# 2000 comment lines put the byte past the decoder's first 8 KiB chunk
@pytest.mark.parametrize("pad", [0, 2000])
@pytest.mark.parametrize("text, line, message", [
    (b"[sim]\nseed = 1\xff\n", 7, "seed must be an integer, got '1\\\\xff'"),
    (b"[s\xffm]\nseed = 1\n", 6, "unknown section [s\\xffm]"),
    (b"[sim]\ns\xffed = 1\n", 7, "unknown key 's\\\\xffed' in [sim]"),
    (b"[controller]\nvariant = ideal\xff\n", 7, "unknown variant 'ideal\\\\xff'"),
])
def test_config_refuses_an_undecodable_byte_at_its_line(tmp_path, pad, text, line, message):
    path = tmp_path / "cfg.ini"
    path.write_bytes(b"[graph]\nagents = 3\nedges = 1-2, 2-3, 1-3\n[distances]\ndefault = 10.0\n"
                     + b"# pad\n" * pad + text)
    with pytest.raises(cli.ConfigError) as exc:
        cli.config_from_ini(path)
    assert str(exc.value).startswith(f"{path}:{line + pad}: {message}")


def test_config_reads_utf8_with_a_bom_and_skips_bytes_in_comments(tmp_path):
    # a BOM read as part of the first line, "not a section header"
    config = replace(scenario_issue3(), duration=0.2)
    series = run(config)
    path = tmp_path / "manifest.txt"
    cli.write_manifest(path, config, series, detect_outcome(series), "metrics.csv")
    text = path.read_bytes()
    copy = tmp_path / "copy.txt"
    copy.write_bytes(b"\xef\xbb\xbf" + text.replace(b"[sim]\n", b"[sim]\n# \xff\xfe\n; \xc3\n"))
    want, got = (cli.config_to_ini(cli.config_from_ini(p)) for p in (path, copy))
    assert {s: dict(want[s]) for s in want} == {s: dict(got[s]) for s in got}


@pytest.mark.parametrize("graph, text, line, message", [
    ("agents = 3\nedges = 1-2, 2-1\n", "", 3, "duplicate edge between agents 2 and 1"),
    ("agents = 3\nedges = 1-2, 2-2, 1-3\n", "", 3, "self-loop at agent 2"),
    ("agents = 4\nedges = 1-2, 2-3, 1-3\n", "", 3,
     "agent 4 has no neighbors; every filter needs at least one"),
    ("agents = 3\nedges = 1-2, 2-3, 1-3\n", "[init]\npositions = 0,0; 5,0; 5,0\n", 7,
     "initial_positions of agents 2 and 3 are 0.0 apart, closer than min_separation = 1.0"),
])
def test_config_errors_name_agents_from_one(tmp_path, graph, text, line, message):
    # the library names agents from 0; these messages used to pass through
    path = tmp_path / "cfg.ini"
    path.write_text("[graph]\n" + graph + "[distances]\ndefault = 10.0\n" + text)
    with pytest.raises(cli.ConfigError) as exc:
        cli.config_from_ini(path)
    assert str(exc.value) == f"{path}:{line}: {message}"


def test_config_refuses_sharing_at_its_line(tmp_path):
    # `sharing` was checked against the variant, then never read
    path = _write_config(tmp_path, scenario_issue3())
    lines = path.read_text().split("\n")
    assert "sharing" not in "\n".join(lines)
    k = lines.index("variant = estimated") + 1
    lines.insert(k, "sharing = per-agent")
    path.write_text("\n".join(lines))
    with pytest.raises(cli.ConfigError) as exc:
        cli.config_from_ini(path)
    assert str(exc.value) == f"{path}:{k + 1}: unknown key 'sharing' in [controller]"



@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_config_rejects_bad_initial_var(tmp_path, capsys, value):
    # inf and nan used to fall back to the default variance without a word,
    # and -1 ended in a traceback inside the filter set-up
    path = tmp_path / "cfg.ini"
    path.write_text("[graph]\nagents = 3\nedges = 1-2, 2-3, 1-3\n"
                    "[distances]\ndefault = 10.0\n"
                    f"[init]\ninitial_var = {value}\n")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:7:" in err and "initial_var" in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match="initial_var"):
        replace(scenario_nominal(), initial_var=float(value))


def test_readme_config_example_runs(tmp_path, capsys):
    readme = (ROOT / "README.md").read_text()
    path = tmp_path / "readme.ini"
    path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    config = cli.config_from_ini(path)
    np.testing.assert_array_equal(config.distances.values, [10.0, 10.0, 12.0])
    assert config.variant == "algorithm1" and config.initial_var == 1.5
    # ten steps at the example's dt: the shortest run that fills the outcome window
    assert cli.main(["run", "--config", str(path), "--duration", "0.1",
                     "--out", str(tmp_path / "out")]) == 0
    assert "outcome:" in capsys.readouterr().out

def test_config_distance_default_and_overrides(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[graph]\nagents = 3\nedges = 1-2, 2-3, 1-3\n"
                    "[distances]\ndefault = 9.0\nd_2_3 = 4.0\n")
    config = cli.config_from_ini(path)
    np.testing.assert_array_equal(config.distances.values, [9.0, 4.0, 9.0])
    # mismatch defaults to 1 per edge for the default variant
    np.testing.assert_array_equal(config.mismatch.values, [1.0, 1.0, 1.0])


def test_config_rejects_nonpositive_default_distance(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[graph]\nagents = 3\nedges = 1-2, 2-3, 1-3\n"
                    "[distances]\nd_1_2 = 5.0\ndefault = 0\n")
    with pytest.raises(cli.ConfigError, match=f"^{path}:6: default must be positive"):
        cli.config_from_ini(path)


def test_config_missing_distance_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[graph]\nagents = 3\nedges = 1-2, 2-3, 1-3\n"
                    "[distances]\nd_1_2 = 5.0\n")
    with pytest.raises(cli.ConfigError):
        cli.config_from_ini(path)


def test_run_divergence_exits_runtime(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    code = cli.main(["run", "--scenario", "nominal", "--seed", "13",
                     "--duration", "1.0", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "run: positions diverged during the step ending at t=0.65\n"
    # nominal seed 64 hits the sub-step cap in the step where it diverges:
    # the event line names the likely cause before the divergence message
    capped = "1 engine event, the first: t=0.52 substeps capped at 10000, stiffness asked for 46707"
    diverged = "positions diverged during the step ending at t=0.52"
    assert cli.main(["run", "--scenario", "nominal", "--seed", "64", "--duration", "1",
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"run: {capped}\nrun: {diverged}\n"
    monkeypatch.setitem(cli.SCENARIOS, "nominal",
                        lambda: replace(scenario_nominal(), seed=64, duration=1.0))
    assert cli.main(["reproduce", "nominal", "--out", str(tmp_path / "rep")]) == 1
    assert capsys.readouterr().err == f"reproduce: {capped}\nreproduce: {diverged}\n"
    # a finite stiffness whose dt * s overflows is capped as an infinite one
    # is; ceil of that product used to end in an OverflowError traceback
    path = tmp_path / "huge.ini"
    path.write_text("[graph]\nagents = 3\nedges = 1-2, 2-3, 1-3\n[distances]\ndefault = 10\n"
                    "[controller]\ndefault = 4e307\n[sim]\ndt = 10\nduration = 200\n")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "huge")]) == 1
    assert capsys.readouterr().err == (
        "run: 1 engine event, the first: t=10 substeps capped at 10000, stiffness asked for inf\n"
        "run: positions diverged during the step ending at t=10\n")


def _capped_config():
    """A 60-wide triangle at dt = 1, whose first step asks for more than
    MAX_SUBSTEPS sub-steps."""
    side = 60.0
    return ScenarioConfig(
        graph=Graph(3, ((0, 1), (1, 2), (0, 2))), distances=DesiredDistances.uniform(3, 10.0),
        variant="ideal", dt=1.0, duration=10.0,
        initial_positions=np.array([[0.0, 0.0], [side, 0.0], [0.5 * side, 0.5 * np.sqrt(3.0) * side]]))


def test_run_reports_engine_events_on_stderr(tmp_path, capsys, monkeypatch):
    # the run used to exit 0 without a word about its capped sub-steps
    out = tmp_path / "out"
    path = _write_config(tmp_path, _capped_config())
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("run: 1 engine event, the first: t=1 substeps capped at 10000, "
                            "stiffness asked for 10700\n")
    assert captured.out == (f"outcome: shape_ok_estimates_stale\n"
                            f"wrote {out / 'metrics.csv'} and {out / 'manifest.txt'}\n")
    # a run without events prints nothing there
    assert cli.main(["run", "--scenario", "issue2", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setitem(cli.SCENARIOS, "issue2", _capped_config)
    assert cli.main(["reproduce", "issue2", "--out", str(tmp_path / "rep")]) == 3
    assert capsys.readouterr().err.startswith("reproduce: 1 engine event, the first: t=1 ")


def test_run_too_short_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    # no step at all, then 5 steps against a 10% evaluation window
    for duration, message in (("0.004", "shorter than one step"),
                              ("0.05", "shorter than the evaluation window")):
        assert cli.main(["run", "--scenario", "issue2", "--duration", duration,
                         "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_outcome_window_is_checked_before_the_run(tmp_path, capsys, monkeypatch):
    # 10000 steps used to be simulated before this config was refused
    def no_run(*args, **kwargs):
        raise AssertionError("the run was started")

    monkeypatch.setattr(cli, "run", no_run)
    path = tmp_path / "cfg.ini"
    path.write_text("[graph]\nagents = 3\nedges = 1-2, 2-3, 1-3\n"
                    "[distances]\ndefault = 10.0\n"
                    "[thresholds]\nwindow_frac = 1e-6\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "shorter than the evaluation window" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_negative_seed_override(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", "nominal", "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "seed must be non-negative, got -1" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--duration", "inf"), ("--dt", "nan"),
                                         ("--duration", "nan"), ("--dt", "inf"),
                                         ("--dt", "-inf"), ("--duration", "-inf")])
def test_run_rejects_nonfinite_overrides(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", "nominal", flag, value, "--out", str(out)]) == 2
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dt, duration, steps", [("1e-300", "1", "1e+300"),
                                                 ("1e-320", "1", "inf"), ("1e-3", "1e308", "inf")])
def test_run_refuses_step_counts_no_series_can_hold(tmp_path, capsys, dt, duration, steps):
    # an infinite count overflowed in `steps`; 1e300 steps reached the series
    # allocation, which numpy refused with "Maximum allowed dimension exceeded"
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", "nominal", "--dt", dt, "--duration", duration,
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"run: dt {float(dt)} over duration {float(duration)} gives {steps} steps")
    assert err.count("\n") == 1
    assert not out.exists()


def test_run_out_of_memory_exits_runtime(tmp_path, capsys, monkeypatch):
    # a 1e9 s nominal run asks numpy for a 2.18 TiB series; the MemoryError
    # is raised here rather than allocated, which overcommit may let succeed
    message = "Unable to allocate 2.18 TiB for an array with shape (1, 100000000000, 3)"

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run", no_memory)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", "nominal", "--duration", "1e9", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"run: {message}\n"
    assert not out.exists()


def test_run_reads_a_negative_exponent_override_as_a_value(tmp_path, capsys):
    # argparse alone takes -1e-3 for an option: "expected one argument"
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", "nominal", "--duration", "-1e-3", "--out", str(out)]) == 2
    assert "duration must be positive, got -0.001" in capsys.readouterr().err
    assert not out.exists()


def test_run_impossible_spawn_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text("[graph]\nagents = 3\nedges = 1-2, 2-3, 1-3\n"
                    "[distances]\ndefault = 10.0\n"
                    "[init]\nmin_separation = 100\nspawn_box = 20\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "min_separation" in err and "spawn_box" in err
    assert not out.exists()


def test_run_out_is_a_file_exits_runtime(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert cli.main(["run", "--scenario", "issue2", "--duration", "0.2",
                     "--out", str(out)]) == 1
    assert str(out) in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run", "--scenario", "issue2"], ["reproduce", "issue2"]])
def test_out_that_is_a_file_exits_runtime_with_one_line(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("")
    assert cli.main(command + ["--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"{command[0]}: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: '{out}'\n")


@pytest.mark.parametrize("command", [["run", "--scenario", "issue2", "--duration", "1"],
                                     ["reproduce", "issue2"]])
def test_empty_out_is_refused_before_the_run(tmp_path, capsys, monkeypatch, command):
    # `--out ""` used to fall through to $FORMLOC_OUT_DIR, else ./formloc_runs
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "from_env"))
    monkeypatch.chdir(tmp_path)

    def not_run(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run", not_run)
    assert cli.main(command + ["--out", ""]) == 2
    assert capsys.readouterr() == ("", f"{command[0]}: --out must name a directory, got ''\n")
    assert list(tmp_path.iterdir()) == []


def test_empty_out_dir_variable_counts_as_unset(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT_DIR, "")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--scenario", "issue2", "--duration", "1"]) == 0
    assert (tmp_path / cli.DEFAULT_OUT_DIR / "metrics.csv").is_file()


def test_reproduce_checks_outcome(tmp_path, capsys, monkeypatch):
    out = tmp_path / "rep"
    wrote = f"wrote {out / 'metrics.csv'} and {out / 'manifest.txt'}\n"
    assert cli.main(["reproduce", "issue2", "--out", str(out)]) == 0
    assert capsys.readouterr() == (
        "outcome: translating_drift (expected translating_drift)\n" + wrote, "")
    monkeypatch.setitem(cli.EXPECTED_OUTCOME, "issue2", "converged")
    assert cli.main(["reproduce", "issue2", "--out", str(out)]) == 3
    assert capsys.readouterr() == ("outcome: translating_drift (expected converged)\n" + wrote, "")


def test_every_preset_has_a_factory_and_an_expected_outcome():
    # `reproduce` looks a name up in both: a name missing from SCENARIOS
    # would end in a KeyError traceback
    assert set(cli.SCENARIOS) == set(cli.EXPECTED_OUTCOME)


def test_reproduce_rejects_unknown_name():
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "bogus"])
    assert exc.value.code == 2


def test_out_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "from_env"))
    assert cli.main(["run", "--scenario", "issue2"]) == 0
    assert (tmp_path / "from_env" / "metrics.csv").is_file()

    monkeypatch.delenv(cli.ENV_OUT_DIR)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--scenario", "issue2"]) == 0
    assert (tmp_path / cli.DEFAULT_OUT_DIR / "metrics.csv").is_file()


def test_check_observability_point(capsys):
    assert cli.main(["check-observability", "--n", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "codistribution rank: 5 of 5" in out
    assert "observable: yes" in out

    assert cli.main(["check-observability", "--n", "2", "--p", "1.0,0.0,0.0,2.0"]) == 0
    # a list that starts with a minus sign used to read as an unknown option
    assert cli.main(["check-observability", "--n", "1", "--p", "-1,2"]) == 0


def test_check_observability_has_no_heading_flag(capsys):
    # the singular values do not depend on the heading, so no --theta is
    # offered; argparse refuses it as an unknown option
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-observability", "--n", "2", "--theta", "0.3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --theta 0.3" in capsys.readouterr().err


def test_check_observability_out_of_memory_exits_runtime(capsys, monkeypatch):
    # --n 100000 asks for a 745 GiB codistribution matrix; raised, not allocated
    message = "Unable to allocate 745. GiB for an array"

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "codistribution_rank", no_memory)
    assert cli.main(["check-observability", "--n", "100000"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"check-observability: {message}\n" and captured.out == ""


def test_check_observability_refuses_a_gramian_that_overflows(tmp_path, capsys):
    # every cell is finite; after numpy's overflow warnings the file exited 3
    # with `eigenvalues: nan nan nan`, or 2 with `Eigenvalues did not converge`
    path = tmp_path / "huge.csv"
    for x in ("1e160", "1e200"):
        path.write_text("t,theta,x1,y1,w,vx1,vy1\n"
                        + "".join(f"{t},0,{x},0,0,0,0\n" for t in ("0.0", "0.1", "0.2")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["check-observability", "--trajectory", str(path)]) == 2
        assert capsys.readouterr() == ("", "check-observability: the Gramian overflows float64: "
                                           "an entry, an eigenvalue or its trace is not finite\n")


def test_check_observability_usage(capsys):
    assert cli.main(["check-observability"]) == 2
    assert cli.main(["check-observability", "--n", "0"]) == 2
    assert cli.main(["check-observability", "--n", "2", "--p", "1.0,2.0"]) == 2
    capsys.readouterr()
    # a --p that is not a list of numbers is refused by name
    for text in ("1,,2", "1,x", ""):
        assert cli.main(["check-observability", "--n", "1", "--p", text]) == 2
        assert capsys.readouterr().err == (
            f"check-observability: --p must be comma-separated numbers, got {text!r}\n")
    # a flag the chosen mode never reads, even at its default value, is
    # refused by name rather than dropped
    for args, flag, mode in [
        (["--n", "2", "--p", "1,2,3,4", "--seed", "5"], "--seed", "--p"),
        (["--trajectory", "unread.csv", "--n", "2"], "--n", "--trajectory"),
        (["--trajectory", "unread.csv", "--p", "1,2"], "--p", "--trajectory"),
        (["--trajectory", "unread.csv", "--seed", "5"], "--seed", "--trajectory"),
    ]:
        assert cli.main(["check-observability"] + args) == 2
        assert capsys.readouterr().err == f"check-observability: {flag} is not read with {mode}\n"


@pytest.mark.parametrize("n, seed", [(1, 0), (3, 7), (5, 27)])
def test_check_observability_draws_its_state_with_random(capsys, monkeypatch, n, seed):
    # 2n uniforms in [-5, 5] from the standard library's generator, x1, y1, ... in order
    rng = random.Random(seed)
    p = [rng.uniform(-5.0, 5.0) for _ in range(2 * n)]
    want = codistribution_rank(GroupElement(np.array(p), 0.0), tol=1e-9)
    states = []

    def recorded(q, **kwargs):
        states.append(q)
        return codistribution_rank(q, **kwargs)

    monkeypatch.setattr(cli, "codistribution_rank", recorded)
    assert cli.main(["check-observability", "--n", str(n), "--seed", str(seed)]) == 0
    assert [list(q.p) for q in states] == [p]
    assert (f"singular values: {' '.join(f'{v:.3e}' for v in want.singular_values)}"
            in capsys.readouterr().out.splitlines())


def test_check_observability_seed_defaults_to_zero(capsys):
    assert cli.main(["check-observability", "--n", "2"]) == 0
    omitted = capsys.readouterr()
    assert cli.main(["check-observability", "--n", "2", "--seed", "0"]) == 0
    assert capsys.readouterr() == omitted


def test_benchmark_rank_states_keep_their_labels(capsys):
    # perfbench/reference.json records each rank operation's exit and label
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())["ops"]
    ops = {key: op for key, op in reference.items() if key.startswith("observability/rank ")}
    assert len(ops) == 40
    for key, op in ops.items():
        state, n = key.split()[1:]
        code = cli.main(["check-observability", "--n", n.removeprefix("n"), "--seed", state])
        rank = re.search(r"^codistribution rank: (.*)$", capsys.readouterr().out, re.M)[1]
        assert (code, rank) == (op["exit"], op["labels"]["rank"]), key


@pytest.mark.parametrize("args", [["--n", "3", "--seed", "5"], ["--n", "3"],
                                  ["--n", "1", "--p", "1,2"], ["--trajectory"]])
def test_check_observability_never_loads_numpy_random(tmp_path, args):
    # numpy.random pulls in its bit generators and hashlib/OpenSSL: about 5 MiB
    # of the command's peak memory, for 2n numbers
    if args == ["--trajectory"]:
        args = args + [str(_write_trajectory(tmp_path / "traj.csv"))]
    code = ("import sys\nfrom formloc import cli\ncode = cli.main(sys.argv[1:])\n"
            "print('numpy.random' in sys.modules)\nsys.exit(code)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, "check-observability", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode in (0, 3), proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_check_observability_rejects_negative_seed(capsys):
    # random.Random(-3) would silently draw the state of seed 3
    assert cli.main(["check-observability", "--n", "1", "--seed", "-3"]) == 2
    assert capsys.readouterr().err == "check-observability: --seed must be non-negative, got -3\n"


@pytest.mark.parametrize("args, flag", [
    (["--n", "2", "--p", "1,2,nan,4"], "--p"),
    (["--n", "2", "--p", "1,inf,3,4"], "--p"),
    (["--n", "1", "--seed", "3", "--tol", "inf"], "--tol"),
    (["--trajectory", "unread.csv", "--tol", "nan"], "--tol"),
    (["--n", "2", "--tol", "nan"], "--tol"),  # read as rank 0 of 5, exit 3
    (["--trajectory", "unread.csv", "--tol", "inf"], "--tol"),
    (["--n", "1", "--tol", "-inf"], "--tol"),  # finite is checked before positive
    (["--n", "2", "--p", "-inf,1,2,3"], "--p"),
])
def test_check_observability_rejects_nonfinite_state(capsys, args, flag):
    # these used to end in "SVD did not converge"
    assert cli.main(["check-observability"] + args) == 2
    assert f"{flag} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1"])
@pytest.mark.parametrize("mode", ["n", "trajectory"])
def test_check_observability_rejects_nonpositive_tol(tmp_path, capsys, mode, tol):
    # below 0, --tol would count every gramian eigenvalue toward the rank,
    # a negative one too; --n mode refused it without naming the flag
    args = (["--n", "2"] if mode == "n"
            else ["--trajectory", str(_write_trajectory(tmp_path / "traj.csv"))])
    assert cli.main(["check-observability", *args, "--tol", tol]) == 2
    assert capsys.readouterr().err == (
        f"check-observability: --tol must be positive, got {float(tol)}\n")


def test_check_observability_rejects_nonfinite_trajectory_cell(tmp_path, capsys):
    # a comment and a blank line sit between the header and the bad row
    traj = tmp_path / "traj.csv"
    traj.write_text("t,theta,x1,y1,w,vx1,vy1\n# first sample\n0.0,0,1,0,0,1,0\n\n"
                    "0.1,0,1,nan,0,1,0\n0.2,0,1,0,0,1,0\n")
    assert cli.main(["check-observability", "--trajectory", str(traj)]) == 2
    assert f"{traj}:5: non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("rows, line, reason", [
    # numpy's text counted this row 2, from the first data row as 0
    (["0.0,0,1,0,0,1,0", "0.1,0,1,0,0,1,0", "0.2,0,1,zz,0,1,0"], 4,
     "column 4 is not a number: 'zz'"),
    # and this one row 3, from 1, with a hint to use `usecols`
    (["0.0,0,1,0,0,1,0", "# a comment", "", "0.1,0,1,0,0,1,0", "0.2,0,1,0,0,1"], 6,
     "the number of columns changed from 7 to 6"),
    # a line of spaces is a row to loadtxt, not a blank line
    (["0.0,0,1,0,0,1,0", "  ", "0.1,0,1,0,0,1,0"], 3, "the number of columns changed from 7 to 1"),
    (["0.0,0,1,0,0,1,0", "0.1,0,1,,0,1,0"], 3, "column 4 is not a number: ''"),
    (["0.0,0,1,0,0,1,0", "0.1,0,1,1e400,0,1,0"], 3, "non-finite trajectory value"),
])
def test_check_observability_names_the_line_of_a_faulty_row(tmp_path, capsys, rows, line, reason):
    traj = tmp_path / "traj.csv"
    traj.write_text("\n".join(["t,theta,x1,y1,w,vx1,vy1", *rows, "0.3,0,1,0,0,1,0"]) + "\n")
    assert cli.main(["check-observability", "--trajectory", str(traj)]) == 2
    assert capsys.readouterr().err == f"check-observability: {traj}:{line}: {reason}\n"


def _write_trajectory(path, still_second=True):
    rows = []
    dt = 0.02
    w = 0.7
    for k in range(120):
        t = k * dt
        x1 = 3.0 + 2.0 * np.sin(w * t)
        y1 = 2.0 * (1.0 - np.cos(w * t))
        vx1 = 2.0 * w * np.cos(w * t)
        vy1 = 2.0 * w * np.sin(w * t)
        rows.append([t, 0.0, x1, y1, -1.0, 2.0, 0.0, vx1, vy1, 0.0, 0.0])
    np.savetxt(path, np.array(rows), delimiter=",",
               header="t,theta,x1,y1,x2,y2,w,vx1,vy1,vx2,vy2", comments="")
    return path


def test_check_observability_trajectory(tmp_path, capsys):
    traj = _write_trajectory(tmp_path / "traj.csv")
    assert cli.main(["check-observability", "--trajectory", str(traj)]) == 3
    out = capsys.readouterr().out
    assert "unobservable neighbor blocks: 2" in out
    assert "observable: no" in out


def test_check_observability_trajectory_errors(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("t,theta,x\n0.0,0.0,1.0\n0.1,0.0,1.0\n")
    assert cli.main(["check-observability", "--trajectory", str(short)]) == 2

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("t,theta,x1,y1,x2,y2,w,vx1,vy1,vx2,vy2\n"
                      + "0.0,0,1,0,0,1,0,0,0,0,0\n"
                      + "0.1,0,1,0,0,1,0,0,0,0,0\n"
                      + "0.3,0,1,0,0,1,0,0,0,0,0\n")
    assert cli.main(["check-observability", "--trajectory", str(ragged)]) == 2
    assert cli.main(["check-observability", "--trajectory",
                     str(tmp_path / "nope.csv")]) == 2
    capsys.readouterr()


def test_check_observability_refuses_a_repeated_first_time(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    traj.write_text("t,theta,x1,y1,w,vx1,vy1\n" + "".join(f"{t},0,1,0,0,0,0\n" for t in (0.0, 0.0, 0.1)))
    assert cli.main(["check-observability", "--trajectory", str(traj)]) == 2
    # the row whose step is wrong: the second
    assert capsys.readouterr().err == (
        f"check-observability: {traj}:3: time column must be uniformly increasing\n")


@pytest.mark.parametrize("times, line", [
    # a step back, and a repeat, each within the 1e-9 tolerance of dt = 1e-10
    ((0.0, 1e-10, 0.0, 1e-10, 2e-10), 4),
    ((0.0, 1e-10, 2e-10, 2e-10, 3e-10), 5),
])
def test_check_observability_refuses_a_step_that_is_not_positive(tmp_path, capsys, times, line):
    traj = tmp_path / "traj.csv"
    traj.write_text("t,theta,x1,y1,w,vx1,vy1\n" + "".join(f"{t!r},0,1,0,0,1,0\n" for t in times))
    assert cli.main(["check-observability", "--trajectory", str(traj)]) == 2
    assert capsys.readouterr().err == (
        f"check-observability: {traj}:{line}: time column must be uniformly increasing\n")


@pytest.mark.filterwarnings("error")  # numpy's "input contained no data" leaked to stderr
@pytest.mark.parametrize("text", [
    "t,theta,x1,y1,w,vx1,vy1\n",
    "# only comments\n\n# and blank lines\n\n",
    "",
])
def test_check_observability_trajectory_without_samples(tmp_path, capsys, text):
    traj = tmp_path / "traj.csv"
    traj.write_text(text)
    assert cli.main(["check-observability", "--trajectory", str(traj)]) == 2
    assert capsys.readouterr().err == (
        f"check-observability: {traj}: at least two samples required\n")


def test_check_observability_trajectory_path_gives_the_os_reason(tmp_path, capsys):
    for path, reason in ((tmp_path, errno.EISDIR), (tmp_path / "nope.csv", errno.ENOENT)):
        assert cli.main(["check-observability", "--trajectory", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"check-observability: cannot read trajectory file {path}: {os.strerror(reason)}\n")


def test_check_observability_trajectory_undecodable_bytes_name_the_file(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    traj.write_bytes(b"t,theta,x1,y1,w,vx1,vy1\n0.0,0,1,0,0,1,0\n0.1,0,1,\xff,0,1,0\n")
    assert cli.main(["check-observability", "--trajectory", str(traj)]) == 2
    assert capsys.readouterr().err == (
        f"check-observability: {traj}:3: column 4 is not a number: '\\\\xff'\n")


def _long_trajectory(count):
    """Lines of a 1-neighbor trajectory CSV whose `count` samples span
    several BLOCK_ROWS blocks, with a comment and a blank line every 700
    samples, and the file line of each sample."""
    lines, where = ["t,theta,x1,y1,w,vx1,vy1"], []
    for k in range(count):
        if k % 700 == 350:
            lines += [f"# sample {k}", ""]
        t = 0.01 * k
        lines.append(f"{t!r},{0.3 * t!r},{3.0 + 0.1 * t!r},2.0,0.3,0.1,0.0")
        where.append(len(lines))
    return lines, where


def test_trajectory_blocks_parse_as_one_table(tmp_path):
    # repeated max_rows reads on one handle must neither drop nor repeat a
    # line: comment and blank lines sit inside several blocks
    lines, _ = _long_trajectory(5 * BLOCK_ROWS // 2)
    traj = tmp_path / "traj.csv"
    traj.write_text("\n".join(lines) + "\n")
    with open(traj) as fh:
        blocks, dt, n = cli._trajectory_blocks(traj, fh)
        parsed = list(blocks)
    assert [len(b) for b in parsed] == [BLOCK_ROWS, BLOCK_ROWS, BLOCK_ROWS // 2]
    whole = np.loadtxt(traj, delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_array_equal(np.concatenate(parsed), whole[:, 1:])
    assert (dt, n) == (0.01, 1)


@pytest.mark.parametrize("fault", ["nan", "columns", "block columns", "time", "cell"])
def test_check_observability_refuses_a_fault_in_a_later_block(tmp_path, capsys, fault):
    lines, where = _long_trajectory(5 * BLOCK_ROWS // 2)
    k = BLOCK_ROWS + 400  # in the second block, after its comment lines
    # "block columns": every row from the second block's first on has fewer columns
    for j in range(BLOCK_ROWS, len(where)) if fault == "block columns" else [k]:
        cells = lines[where[j] - 1].split(",")
        if fault == "nan":
            cells[3] = "nan"
        elif fault.endswith("columns"):
            del cells[-4:]
        elif fault == "time":
            cells[0] = repr(float(cells[0]) + 0.005)
        else:
            cells[2] = "3.0.1"
        lines[where[j] - 1] = ",".join(cells)
    traj = tmp_path / "traj.csv"
    traj.write_text("\n".join(lines) + "\n")
    assert cli.main(["check-observability", "--trajectory", str(traj)]) == 2
    err = capsys.readouterr().err
    reason = {"nan": "non-finite trajectory value",
              "columns": "the number of columns changed from 7 to 3",
              "block columns": "the number of columns changed from 7 to 3",
              "cell": "column 3 is not a number: '3.0.1'"}
    if fault == "time":
        assert err == f"check-observability: {traj}:{where[k]}: time column must be uniformly increasing\n"
    else:
        # the file line, counted from the header: "block columns" stops at the block's first row
        line = where[BLOCK_ROWS if fault == "block columns" else k]
        assert err == f"check-observability: {traj}:{line}: {reason[fault]}\n"


# line 3 is inside the decoder's first 8 KiB chunk; line 3001 of 5000 is far
# past it, where the decoder's text counted its byte from the chunk's start
@pytest.mark.parametrize("line", [3, 3001])
def test_check_observability_refuses_an_undecodable_byte_at_its_line(tmp_path, capsys, line):
    lines, where = _long_trajectory(5000)
    data = [text.encode() for text in lines]
    cell = data[line - 1].split(b",", 1)[0]
    data[line - 1] = data[line - 1].replace(cell, cell[:4] + b"\xff" + cell[4:], 1)
    traj = tmp_path / "traj.csv"
    traj.write_bytes(b"\n".join(data) + b"\n")
    assert line in where and cli.main(["check-observability", "--trajectory", str(traj)]) == 2
    shown = (cell[:4] + b"\xff" + cell[4:]).decode("utf-8", "backslashreplace")
    assert capsys.readouterr().err == (
        f"check-observability: {traj}:{line}: column 1 is not a number: {shown!r}\n")


def test_check_observability_reads_utf8_with_a_bom_and_skips_bytes_in_comments(tmp_path, capsys):
    lines, _ = _long_trajectory(5000)
    traj = tmp_path / "traj.csv"
    traj.write_text("\n".join(lines) + "\n")
    assert cli.main(["check-observability", "--trajectory", str(traj)]) == 0
    want = capsys.readouterr()
    data = b"\xef\xbb\xbf" + traj.read_bytes().replace(b"# sample 2450", b"# sample \xff\xfe")
    assert data.count(b"\xff") == 1
    traj.write_bytes(data)
    assert cli.main(["check-observability", "--trajectory", str(traj)]) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("text, line, reason", [
    # the w column last: analysed as if it were x2, with no word of the order
    ("t,theta,x1,y1,vx1,vy1,w\n0.0,0,1,0,0,1,0\n0.1,0,1,0,0,1,0\n", 1,
     "expected the header t,theta,x1,y1,w,vx1,vy1"),
    # no header: the first sample was dropped as one
    ("0.0,0,1,0,0,1,0\n0.1,0,1,0,0,1,0\n0.2,0,1,0,0,1,0\n", 1,
     "expected the header t,theta,x1,y1,w,vx1,vy1"),
    ("t,theta,x1,y1,w,vx1\n# a comment\n0.0,0,1,0,0,1\n0.1,0,1,0,0,1\n", 3,
     "expected columns t, theta, x/y per neighbor, w, vx/vy per neighbor"),
])
def test_check_observability_names_the_line_of_a_layout_or_header_fault(
        tmp_path, capsys, text, line, reason):
    traj = tmp_path / "traj.csv"
    traj.write_text(text)
    assert cli.main(["check-observability", "--trajectory", str(traj)]) == 2
    assert capsys.readouterr().err == f"check-observability: {traj}:{line}: {reason}\n"


def test_check_observability_header_cells_may_carry_spaces_and_a_comment(tmp_path, capsys):
    traj = _write_trajectory(tmp_path / "traj.csv")
    assert cli.main(["check-observability", "--trajectory", str(traj)]) == 3
    want = capsys.readouterr()
    lines = traj.read_text().split("\n")
    lines[0] = " t , theta,x1 ,y1,x2,y2, w,vx1,vy1,vx2,vy2  # the header"
    traj.write_text("\n".join(lines))
    assert cli.main(["check-observability", "--trajectory", str(traj)]) == 3
    assert capsys.readouterr() == want


def test_check_observability_calls_the_gramian_once(tmp_path, monkeypatch, capsys):
    # perfbench probes and traces the command at `empirical_gramian`
    lines, _ = _long_trajectory(5 * BLOCK_ROWS // 2)
    traj = tmp_path / "traj.csv"
    traj.write_text("\n".join(lines) + "\n")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return empirical_gramian(*args, **kwargs)

    monkeypatch.setattr(cli, "empirical_gramian", counted)
    assert cli.main(["check-observability", "--trajectory", str(traj)]) == 0
    assert len(calls) == 1
    assert "gramian rank: 3 of 3" in capsys.readouterr().out


def _benchmark_trajectory_lines(instance, n):
    spec = importlib.util.spec_from_file_location("perfbench_generate",
                                                  ROOT / "perfbench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate.trajectory_lines(instance, n)


def _without_last_neighbor(lines, n):
    """The lines of an n-neighbor trajectory CSV without the columns
    x_n, y_n, vx_n and vy_n."""
    drop = {2 * n, 2 * n + 1, 4 * n + 1, 4 * n + 2}
    for line in lines:
        cells = line.rstrip("\n").split(",")
        yield ",".join(c for i, c in enumerate(cells) if i not in drop) + "\n"


@pytest.mark.parametrize("instance, n, moving", [
    *((k, n, False) for k in range(3) for n in (1, 2, 3, 5)),
    # the benchmark's 4-neighbor file without its one still neighbor
    (0, 4, True),
])
def test_check_observability_prints_the_gramian_report(tmp_path, monkeypatch, capsys,
                                                       instance, n, moving):
    lines = _benchmark_trajectory_lines(instance, n)
    if moving:
        lines, n = _without_last_neighbor(lines, n), n - 1
    traj = tmp_path / "traj.csv"
    with open(traj, "w") as fh:
        fh.writelines(lines)
    reports = []

    def recorded(*args, **kwargs):
        reports.append(empirical_gramian(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "empirical_gramian", recorded)
    code = cli.main(["check-observability", "--trajectory", str(traj)])
    (report,) = reports
    assert code == (0 if moving else 3)
    assert report.observable == (code == 0)
    assert report.eigenvalues.tobytes() == np.linalg.eigvalsh(report.gramian)[::-1].tobytes()
    assert report.deficient_neighbor_blocks == (() if moving else (n - 1,))
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "eigenvalues: " + " ".join(f"{v:.3e}" for v in report.eigenvalues)
    assert out[-1] == "observable: " + ("yes" if report.observable else "no")


@pytest.mark.parametrize("n", [1, 3])
def test_check_observability_never_reads_the_heading_rate(tmp_path, capsys, n):
    # the step Jacobian's last column depends on the heading and the neighbor
    # rates alone, so the w column only has to be a finite number
    outputs = []
    for name, w in (("as_written", None), ("w_123", "123.0")):
        traj = tmp_path / f"{name}.csv"
        with open(traj, "w") as fh:
            for i, line in enumerate(_benchmark_trajectory_lines(0, n)):
                cells = line.rstrip("\n").split(",")
                if i and w is not None:  # every data row, not the header
                    cells[2 * n + 2] = w
                fh.write(",".join(cells) + "\n")
        code = cli.main(["check-observability", "--trajectory", str(traj)])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0][0] == 3
    assert outputs[1] == outputs[0]
    assert (tmp_path / "as_written.csv").read_text() != (tmp_path / "w_123.csv").read_text()


def test_write_metrics_refuses_nonfinite(tmp_path):
    series = run(scenario_issue2())
    series.centroid_speed[3] = np.nan
    with pytest.raises(RuntimeError):
        cli.write_metrics_csv(tmp_path / "m.csv", series)
    assert not (tmp_path / "m.csv").exists()
    # the check comes before the open: an earlier file stays byte for byte
    old = tmp_path / "metrics.csv"
    old.write_bytes(b"t,x\n0.0,1.0\n" * 1000)
    with pytest.raises(RuntimeError):
        cli.write_metrics_csv(old, series)
    assert old.read_bytes() == b"t,x\n0.0,1.0\n" * 1000


_writes = None  # while a test collects them: the (path, flags) of every open for writing


def _audit_open(event, args):
    if (event == "open" and _writes is not None and isinstance(args[0], (str, os.PathLike))
            and args[2] & (os.O_WRONLY | os.O_RDWR)):
        _writes.append((Path(args[0]), args[2]))


sys.addaudithook(_audit_open)  # a hook stays for the whole process, so it reads `_writes`


def test_rerun_into_the_same_out_never_truncates_at_open(tmp_path, monkeypatch):
    """A re-run overwrites metrics.csv and manifest.txt without O_TRUNC: on
    ext4 an open that truncates a file with unwritten data flushes it first,
    about 50 ms a file.  The spy on `os.open` shows both outputs go through
    it; the audit hook also sees the builtin `open`, `Path.write_text` and
    `np.savetxt`, which do not call `os.open`."""
    global _writes
    out = tmp_path / "out"
    real_open, spied = os.open, []

    def spy(path, flags, *args, **kwargs):
        spied.append((Path(path).name, flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(cli.os, "open", spy)
    runs, _writes = [], []
    try:
        for _ in range(2):
            assert cli.main(["run", "--scenario", "issue2", "--out", str(out)]) == 0
            runs.append([(out / name).read_bytes() for name in ("metrics.csv", "manifest.txt")])
        written = [flags for path, flags in _writes if path.parent == out]
    finally:
        _writes = None
    assert runs[0] == runs[1]
    assert [name for name, _ in spied] == ["metrics.csv", "manifest.txt"] * 2
    assert len(written) == 4
    assert not [flags for flags in written + [f for _, f in spied] if flags & os.O_TRUNC]


def test_overwrite_leaves_no_tail_of_a_longer_file(tmp_path):
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    old.mkdir()
    junk = bytes(range(256)) * 4096  # 1 MiB, longer than either output
    for name in ("metrics.csv", "manifest.txt"):
        (old / name).write_bytes(junk)
    for out in (fresh, old):
        assert cli.main(["run", "--scenario", "issue2", "--out", str(out)]) == 0
    for name in ("metrics.csv", "manifest.txt"):
        assert (old / name).read_bytes() == (fresh / name).read_bytes()
        assert len((fresh / name).read_bytes()) < len(junk)


def test_overwrite_writes_through_links(tmp_path):
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    out.mkdir()
    target, other = tmp_path / "target.csv", tmp_path / "other.txt"
    target.write_text("old metrics\n" * 10000)
    other.write_text("old manifest\n" * 10000)
    (out / "metrics.csv").symlink_to(target)
    os.link(other, out / "manifest.txt")
    for d in (fresh, out):
        assert cli.main(["run", "--scenario", "issue2", "--out", str(d)]) == 0
    assert (out / "metrics.csv").is_symlink()
    assert target.read_bytes() == (fresh / "metrics.csv").read_bytes()
    assert (out / "manifest.txt").stat().st_ino == other.stat().st_ino
    assert other.read_bytes() == (fresh / "manifest.txt").read_bytes()


@pytest.mark.skipif(not os.path.exists(os.devnull) or os.name != "posix",
                    reason="no character device to link to")
def test_outputs_linked_to_a_device_are_written(tmp_path):
    # a device is written but never truncated (ftruncate refuses one)
    out = tmp_path / "out"
    out.mkdir()
    (out / "metrics.csv").symlink_to(os.devnull)
    assert cli.main(["run", "--scenario", "issue2", "--duration", "0.5", "--out", str(out)]) == 0
    assert (out / "metrics.csv").is_symlink()
    assert "outcome = " in (out / "manifest.txt").read_text()


def test_overwrite_ends_where_a_failed_write_stopped(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("x" * 100000)
    with pytest.raises(KeyError):
        with cli._overwrite(path) as fh:
            fh.write("t,dist_12\n")
            raise KeyError("stopped")
    assert path.read_bytes() == b"t,dist_12\n"


def test_run_metrics_path_is_a_directory_exits_runtime(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "metrics.csv").mkdir(parents=True)
    assert cli.main(["run", "--scenario", "issue2", "--duration", "0.5",
                     "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"run: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: " \
                           f"'{out / 'metrics.csv'}'\n"
    assert captured.out == ""
    assert not (out / "manifest.txt").exists()


def _owners(tree: ast.Module, match) -> set:
    """The names of the top-level definitions of `tree` (`<module>` for any
    other statement) that hold a node for which `match` is true."""
    return {getattr(top, "name", "<module>") for top in tree.body
            for node in ast.walk(top) if match(node)}


def _reads_exit_code(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in ("EXIT_USAGE", "EXIT_RUNTIME")
            and isinstance(node.ctx, ast.Load))


def _names_stderr(node) -> bool:
    return isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stderr"


def test_owner_scan_names_the_top_level_definition():
    tree = ast.parse("EXIT_USAGE = 2\nX = EXIT_USAGE\n"
                     "def f():\n    def g():\n        print(1, file=sys.stderr)\n")
    assert _owners(tree, _reads_exit_code) == {"<module>"}
    assert _owners(tree, _names_stderr) == {"f"}


def test_only_main_turns_an_exception_into_an_exit_code():
    # commands raise; `main` alone picks the exit code of a failure and
    # writes its stderr line, and `_report_events` the events line
    tree = ast.parse((ROOT / "src" / "formloc" / "cli.py").read_text())
    assert _owners(tree, _reads_exit_code) == {"main"}
    assert _owners(tree, _names_stderr) == {"main", "_report_events"}


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "formloc", "run", "--scenario", "issue2",
         "--out", str(tmp_path / "m")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "outcome: translating_drift" in proc.stdout
