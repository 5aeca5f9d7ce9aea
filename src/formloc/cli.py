"""Command-line front end: scenario runs, observability checks, presets.

Subcommands
    run                  simulate a scenario (built-in or from a config file)
    check-observability  rank tests at a state or along a trajectory file
    reproduce            run a named preset and verify its expected outcome

Outputs land in --out, else $FORMLOC_OUT_DIR, else ./formloc_runs (an
empty --out is refused; an empty $FORMLOC_OUT_DIR counts as unset): a
metrics.csv time series and a manifest.txt that echoes the fully resolved
configuration, each overwritten in place if it exists.  A manifest is
itself a valid config file, so `run --config manifest.txt` replays the
exact run.  `config_from_ini` checks a config by what it reads: an unknown
section, or a key that no read takes, is rejected at its `file:line`, and
so is a line that the INI parser refuses.

Commands raise, and `main` alone turns an exception into one stderr line,
`<command>: <message>`, and an exit code, by the exception's class: a
ValueError (a refused config, flag or file, `ConfigError` and `SpawnError`
included) exits 2; a RuntimeError, OSError or MemoryError (a divergence,
non-finite metrics, I/O, an allocation) exits 1, after a line for the
engine events it carries.  Any other exception is a bug and ends in a
traceback.  Exit 0 is success, and 3 a rank deficiency (for reproduce, an
unexpected outcome).

Agents and edges are numbered from 1 everywhere on this surface.
"""

from __future__ import annotations

import argparse
import configparser
import io
import itertools
import math
import os
import random
import stat
import sys
import warnings
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .controller import MismatchConfig
from .estimator import NoiseConfig
from .lie_group import GroupElement
from .network import AgentError, DesiredDistances, Graph
from .observability import BLOCK_ROWS, codistribution_rank, empirical_gramian
from .scenario import (
    VARIANTS,
    MetricsSeries,
    OutcomeSummary,
    OutcomeThresholds,
    ScenarioConfig,
    detect_outcome,
    scenario_issue1,
    scenario_issue2,
    scenario_issue3,
    scenario_nominal,
)
from .sim import edge_labels, run

__all__ = [
    "config_from_ini",
    "config_to_ini",
    "main",
    "write_manifest",
    "write_metrics_csv",
]

ENV_OUT_DIR = "FORMLOC_OUT_DIR"
DEFAULT_OUT_DIR = "formloc_runs"

SCENARIOS = {
    "nominal": scenario_nominal,
    "issue1": scenario_issue1,
    "issue2": scenario_issue2,
    "issue3": scenario_issue3,
}

EXPECTED_OUTCOME = {
    "nominal": "converged",
    "issue1": "stuck_wrong_shape",
    "issue2": "translating_drift",
    "issue3": "shape_ok_estimates_stale",
}

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_DEFICIENT = 3


class ConfigError(ValueError):
    """Malformed or inconsistent configuration: file contents or overrides."""


def _fmt(x) -> str:
    return repr(float(x))


def _pair_key(prefix: str, i: int, j: int) -> str:
    return f"{prefix}_{i + 1}_{j + 1}"


# Every scalar setting as (section, key, type), in manifest order.  A key
# is the name of its field: on ScenarioConfig, or on the NoiseConfig or
# OutcomeThresholds that `_NESTED` names it under.
_SCALARS = (
    *(("noise", f.name, float) for f in fields(NoiseConfig)),
    ("noise", "measurement_noise", bool),
    ("init", "offset_bound", float),
    ("init", "spawn_box", float),
    ("init", "min_separation", float),
    ("init", "initial_var", float),
    ("sim", "dt", float),
    ("sim", "duration", float),
    ("sim", "seed", int),
    ("sim", "estimator_enabled", bool),
    *(("thresholds", f.name, float) for f in fields(OutcomeThresholds)),
)
_NESTED = ({f.name: "noise" for f in fields(NoiseConfig)}
           | {f.name: "thresholds" for f in fields(OutcomeThresholds)})
# The sections a config may hold, besides a manifest's, which are skipped
_SECTIONS = {"graph", "distances", "controller", "init"} | {s for s, _, _ in _SCALARS}
_MANIFEST_SECTIONS = ("artifact", "result")


def config_to_ini(config: ScenarioConfig) -> configparser.ConfigParser:
    """Materialize every resolved setting of a ScenarioConfig as INI sections."""
    ini = configparser.ConfigParser()
    g = config.graph

    ini["graph"] = {
        "agents": str(g.agent_count),
        "edges": ", ".join(f"{t + 1}-{h + 1}" for t, h in g.edges),
    }
    ini["distances"] = {
        _pair_key("d", t, h): _fmt(config.distances.values[k])
        for k, (t, h) in enumerate(g.edges)
    }
    ini["controller"] = {"variant": config.variant}
    if config.mismatch is not None:
        for k, (t, h) in enumerate(g.edges):
            ini["controller"][_pair_key("a", t, h)] = _fmt(config.mismatch.values[k])
    for section, key, kind in _SCALARS:
        value = getattr(getattr(config, _NESTED[key]) if key in _NESTED else config, key)
        if value is None:  # initial_var unset: the filters derive it
            continue
        if not ini.has_section(section):
            ini.add_section(section)
        ini[section][key] = _fmt(value) if kind is float else str(value).lower()
    if config.initial_positions is not None:
        ini["init"]["positions"] = "; ".join(
            f"{_fmt(x)}, {_fmt(y)}" for x, y in config.initial_positions
        )
    if config.initial_estimates is not None:
        for (i, j), v in sorted(config.initial_estimates.items()):
            ini["init"][_pair_key("est", i, j)] = f"{_fmt(v[0])}, {_fmt(v[1])}"
    return ini


def _parse_edges(text: str, agents: int, where: str) -> list[tuple[int, int]]:
    edges = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split("-")
        if len(pieces) != 2:
            raise ConfigError(f"{where}: edge {part!r} is not of the form i-j")
        try:
            t, h = int(pieces[0]), int(pieces[1])
        except ValueError:
            raise ConfigError(f"{where}: edge {part!r} has non-integer endpoints") from None
        if not (1 <= t <= agents and 1 <= h <= agents):
            raise ConfigError(f"{where}: edge {part!r} references an unknown agent")
        edges.append((t, h))
    if not edges:
        raise ConfigError(f"{where}: no edges given")
    return edges


def _parse_pair(text: str, where: str) -> np.ndarray:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise ConfigError(f"{where}: expected two comma-separated numbers, got {text!r}")
    try:
        pair = np.array([float(parts[0]), float(parts[1])])
    except ValueError:
        raise ConfigError(f"{where}: non-numeric value in {text!r}") from None
    if not np.isfinite(pair).all():
        raise ConfigError(f"{where}: non-finite value in {text!r}")
    return pair


def _one_based(exc: ValueError) -> str:
    """The library's message, with any agents it names labelled from 1."""
    return exc.one_based() if isinstance(exc, AgentError) else str(exc)


_KIND_NAMES = {float: "a number", int: "an integer", bool: "a boolean"}


def _line_index(ini: configparser.ConfigParser, text: str) -> dict:
    """(section, key) -> line for every section header (key None) and key of
    `text`, which `ini` has parsed: headers match as `ini.SECTCRE` matches
    them, key names go through `ini.optionxform`, and comments, blank lines
    and a value's continuation lines are skipped."""
    index, section, indent = {}, None, None  # indent: the last key's; None after a header
    for number, line in enumerate(text.split("\n"), start=1):
        value = line.strip()
        depth = len(line) - len(line.lstrip())
        if not value or value.startswith(("#", ";")) or (indent is not None and depth > indent):
            continue
        header = ini.SECTCRE.match(value)
        if header:
            section, indent, key = header["header"], None, None
        else:  # a key ends at its first `=` or `:`
            indent, key = depth, ini.optionxform(value.partition("=")[0].partition(":")[0].rstrip())
        index[section, key] = number
    return index


def config_from_ini(path: str | Path) -> ScenarioConfig:
    """Load a scenario config or a manifest (its [artifact] and [result]
    sections are skipped).  The file is read once, and values are taken as
    written: `%` is a plain character.  Every read takes its key; a section
    outside `_SECTIONS`, or a key that no read took, is rejected at its
    `file:line`, the first in file order, once the last read is done; a
    line the parser refuses is rejected at its `file:line` before any read."""
    path = Path(path)
    try:
        # both input files decode so, whatever the locale: UTF-8, a leading BOM
        # dropped, and an undecodable byte read as the text `\xff`, which no
        # number, key, section or variant accepts, so a check refuses it at its line
        with open(path, encoding="utf-8-sig", errors="backslashreplace") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    ini = configparser.ConfigParser(interpolation=None)
    try:
        ini.read_string(text, source=str(path))
    except configparser.Error as exc:
        # one line at `file:line`: the parser's own text names the file again, on up to three lines
        line = exc.lineno if hasattr(exc, "lineno") else exc.errors[0][0]
        if isinstance(exc, configparser.DuplicateOptionError):
            reason = f"key {exc.option!r} repeats in [{exc.section}]"
        elif isinstance(exc, configparser.DuplicateSectionError):
            reason = f"section {exc.section!r} repeats"
        else:  # a ParsingError: a key before the first header, or a line that is neither
            reason = "not a section header, nor a key under one"
        raise ConfigError(f"{path}:{line}: {reason}") from None
    lines = _line_index(ini, text)

    def at(section, key=None):
        """'path:line' of a section header or key; the path when the file has none."""
        line = lines.get((section, key))
        return f"{path}:{line}" if line else str(path)

    if ini.defaults():  # its keys would show in every section
        raise ConfigError(f"{at('DEFAULT')}: unknown section [DEFAULT]")
    unread = {section: dict(ini.items(section)) for section in ini.sections()}

    def take(section, key, default=None):
        """The text of `key` in [section], default when absent; the key counts as read."""
        return unread.get(section, {}).pop(key, default)

    def get(section, key, default=None, kind=float, positive=False):
        """`key` in [section] as a float, int or bool (`kind`), or default when
        absent.  A float must be finite, and above 0 if `positive`."""
        raw = take(section, key)
        if raw is None:
            return default
        try:
            value = ini.BOOLEAN_STATES[raw.lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{at(section, key)}: {key} must be {_KIND_NAMES[kind]}, "
                              f"got {raw!r}") from None
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{at(section, key)}: {key} must be finite, got {raw!r}")
        if positive and value <= 0:
            raise ConfigError(f"{at(section, key)}: {key} must be positive, got {raw!r}")
        return value

    if "graph" not in unread:
        raise ConfigError(f"{path}: missing [graph] section")
    agents = get("graph", "agents", kind=int)
    if agents is None:
        raise ConfigError(f"{at('graph')}: missing agents key")
    if agents < 2:
        raise ConfigError(f"{at('graph', 'agents')}: at least 2 agents required")
    edges = take("graph", "edges")
    if edges is None:
        raise ConfigError(f"{at('graph')}: missing edges key")
    edge_list = _parse_edges(edges, agents, at("graph", "edges"))
    try:
        graph = Graph.from_one_based(agents, edge_list)
    except ValueError as exc:
        raise ConfigError(f"{at('graph', 'edges')}: {_one_based(exc)}") from None

    variant = take("controller", "variant", ScenarioConfig.variant).strip()
    if variant not in VARIANTS:
        raise ConfigError(f"{at('controller', 'variant')}: unknown variant {variant!r}, "
                          f"expected one of {', '.join(VARIANTS)}")

    default_d = get("distances", "default", float("nan"), positive=True)
    d_vals = []
    for t, h in graph.edges:
        val = get("distances", _pair_key("d", t, h), default_d, positive=True)
        if not np.isfinite(val):
            raise ConfigError(f"{at('distances')}: no distance for edge {t + 1}-{h + 1} and no default")
        d_vals.append(val)
    distances = DesiredDistances(np.array(d_vals))

    mismatch = None
    if variant == "algorithm1":
        default_a = get("controller", "default", 1.0)
        a_vals = [get("controller", _pair_key("a", t, h), default_a) for t, h in graph.edges]
        mismatch = MismatchConfig(np.array(a_vals))

    positions = None
    rows = take("init", "positions")
    if rows is not None:
        rows = [p for p in rows.split(";") if p.strip()]
        if len(rows) != agents:
            raise ConfigError(f"{at('init', 'positions')}: expected {agents} positions, got {len(rows)}")
        positions = np.array([_parse_pair(row, at("init", "positions")) for row in rows])
    est_keys = {(i, j): _pair_key("est", i, j) for t, h in graph.edges for i, j in ((t, h), (h, t))}
    est_texts = {pair: take("init", key) for pair, key in est_keys.items()}
    estimates = None
    if any(raw is not None for raw in est_texts.values()):
        estimates = {}
        for pair, key in est_keys.items():
            if est_texts[pair] is None:
                raise ConfigError(f"{at('init')}: missing initial estimate {key}")
            estimates[pair] = _parse_pair(est_texts[pair], at("init", key))

    # absent keys are not passed, so each dataclass supplies its own default
    values = {"noise": {}, "thresholds": {}, None: {}}
    for section, key, kind in _SCALARS:
        value = get(section, key, kind=kind)
        if value is not None:
            values[_NESTED.get(key)][key] = value

    for section, keys in unread.items():
        if section in _MANIFEST_SECTIONS:
            continue
        if section not in _SECTIONS:
            raise ConfigError(f"{at(section)}: unknown section [{section}]")
        for key in keys:  # the first raises
            mismatch_keys = {"default", *(_pair_key("a", t, h) for t, h in graph.edges)}
            if section == "controller" and key in mismatch_keys:
                raise ConfigError(f"{at(section, key)}: {key!r} sets a mismatch, "
                                  f"which only variant algorithm1 reads (variant is {variant})")
            raise ConfigError(f"{at(section, key)}: unknown key {key!r} in [{section}]")
    try:
        return ScenarioConfig(
            graph=graph, distances=distances, variant=variant, mismatch=mismatch,
            initial_positions=positions, initial_estimates=estimates,
            noise=NoiseConfig(**values["noise"]),
            thresholds=OutcomeThresholds(**values["thresholds"]), **values[None])
    except ValueError as exc:
        # every field check names its field first, except the one that finds
        # an agent without edges
        name = str(exc).split(" ", 1)[0]
        section = next((s for s, key, _ in _SCALARS if key == name), None)
        if name == "initial_positions":
            section, name = "init", "positions"
        elif name == "agent":
            section, name = "graph", "edges"
        raise ConfigError(f"{at(section, name)}: {_one_based(exc)}") from None


@contextmanager
def _overwrite(path: str | Path):
    """A text file at `path` for writing, created if absent and otherwise
    overwritten in place: opened without O_TRUNC and truncated where the
    writing stops, also when it stops on an error.  On ext4 (auto_da_alloc)
    an open that truncates a file with unwritten data first flushes that
    data, about 50 ms a file; this open does not.  A symlink or hard link at
    `path` is written through.  Only a regular file is truncated, so a path
    to a device such as /dev/null is written as before."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline="\n") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def write_metrics_csv(path: str | Path, series: MetricsSeries) -> None:
    """One header line, its edge columns labelled from the series' graph,
    then one row per step, plain decimal-point floats.  A table with a
    non-finite value is refused before `path` is opened, so an existing
    file stays as it was; otherwise one is overwritten in place
    (`_overwrite`)."""
    labels = edge_labels(series.config.graph)
    cols = ["t", *(f"{kind}_{lbl}" for kind in ("dist", "esterr") for lbl in labels),
            "centroid_speed", "angular_rate"]
    table = np.column_stack([
        series.t, series.distances, series.est_errors,
        series.centroid_speed, series.angular_rate,
    ])
    if not np.all(np.isfinite(table)):
        raise RuntimeError("non-finite values in metrics; refusing to write CSV")
    with _overwrite(path) as fh:
        fh.write(",".join(cols) + "\n")
        for row in table:  # row by row: the table as Python floats would hold them all at once
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def write_manifest(path: str | Path, series: MetricsSeries, outcome: str) -> None:
    """The resolved config the series ran, plus the [artifact] and [result]
    sections of its run, whose metrics are the metrics.csv beside it, as
    INI; an existing file is overwritten in place (`_overwrite`)."""
    ini = config_to_ini(series.config)
    ini["artifact"] = {"name": "formloc", "version": __version__}
    summary, window = OutcomeSummary.of(series), series.config.thresholds.window(series.steps)
    ini["result"] = {
        "outcome": outcome,
        "steps": str(series.steps),
        "final_max_dist_error": _fmt(summary.dist_dev),
        "final_max_est_error": _fmt(summary.est_error),
        "steady_angular_rate": _fmt(series.angular_rate[window].mean()),
        "metrics": "metrics.csv",
    }
    with _overwrite(path) as fh:
        ini.write(fh)


def _out_dir(arg: str | None) -> Path:
    if arg == "":  # would fall through to the default below
        raise ConfigError("--out must name a directory, got ''")
    if arg is not None:
        return Path(arg)
    env = os.environ.get(ENV_OUT_DIR)
    return Path(env) if env else Path(DEFAULT_OUT_DIR)


def _report_events(command: str, events: tuple[str, ...]) -> None:
    """One stderr line for the engine events of a run, if it recorded any
    (capped sub-steps, skipped filter updates): their count and the first."""
    if events:
        count = len(events)
        print(f"{command}: {count} engine event{'s' * (count > 1)}, the first: {events[0]}",
              file=sys.stderr)


def _run_and_report(command: str, config: ScenarioConfig, out: str | None,
                    expected: str | None = None) -> int:
    """Run `config`, save its metrics.csv and manifest.txt in `_out_dir(out)`
    and print its outcome, with ` (expected X)` after it when an outcome is
    expected; a mismatch exits 3.  A run shorter than the outcome window is
    refused before it is simulated, and so is an empty `out`."""
    out_dir = _out_dir(out)
    config.thresholds.window(config.steps)
    series = run(config)
    outcome = detect_outcome(series)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out_dir / "metrics.csv", series)
    write_manifest(out_dir / "manifest.txt", series, outcome)
    _report_events(command, series.events)
    print(f"outcome: {outcome}" + ("" if expected is None else f" (expected {expected})"))
    print(f"wrote {out_dir / 'metrics.csv'} and {out_dir / 'manifest.txt'}")
    return EXIT_OK if expected in (None, outcome) else EXIT_DEFICIENT


def cmd_run(args) -> int:
    if (args.scenario is None) == (args.config is None):
        raise ConfigError("give exactly one of --scenario or --config")
    config = SCENARIOS[args.scenario]() if args.scenario is not None else config_from_ini(args.config)
    overrides = {name: getattr(args, name) for name in ("seed", "dt", "duration")
                 if getattr(args, name) is not None}
    if overrides:
        config = replace(config, **overrides)
    return _run_and_report("run", config, args.out)


def cmd_reproduce(args) -> int:
    return _run_and_report("reproduce", SCENARIOS[args.name](), args.out, EXPECTED_OUTCOME[args.name])


def _data_rows(fh, skip: int = 0):
    """(file line, text) of the rows of the open trajectory CSV `fh`, read
    from its start, from data row `skip` on (counted from 0): the lines
    loadtxt reads as rows, after the header and not empty once a comment and
    the newline are cut (a line of spaces is a row)."""
    fh.seek(0)
    lines = ((k, line.split("#", 1)[0].rstrip("\n")) for k, line in enumerate(fh, start=1))
    return itertools.islice(((k, text) for k, text in lines if k > 1 and text), skip, None)


def _at_row(path: Path, fh, row: int) -> str:
    """'path:line' of data row `row` (counted from 0) of the open trajectory CSV `fh`."""
    return f"{path}:{next(_data_rows(fh, row))[0]}"


def _row_error(path: Path, fh, done: int, cols: int | None) -> ConfigError | None:
    """The refusal of the first faulty row after the `done` rows before it,
    named by its file line: a column count other than `cols` (the first
    row's when None), a cell that loadtxt cannot read, or a non-finite value.
    None if no row is faulty."""
    for k, text in _data_rows(fh, done):
        cells = text.split(",")
        cols = cols or len(cells)
        if len(cells) != cols:
            return ConfigError(f"{path}:{k}: the number of columns changed from {cols} to {len(cells)}")
        for j, cell in enumerate(cells):
            try:
                value = np.loadtxt([text], delimiter=",", usecols=j)
            except ValueError:
                return ConfigError(f"{path}:{k}: column {j + 1} is not a number: {cell.strip()!r}")
            if not np.isfinite(value):
                return ConfigError(f"{path}:{k}: non-finite trajectory value")
    return None


def _read_block(path: Path, fh, done: int, cols: int | None = None) -> np.ndarray:
    """The next BLOCK_ROWS data rows of an open trajectory CSV, (0, 1) at its
    end; `done` rows came before them, and each row has `cols` columns (the
    first row's count when None)."""
    try:
        with warnings.catch_warnings():
            # at the end of the data, and for every blank or comment line that max_rows skips
            warnings.simplefilter("ignore", UserWarning)
            block = np.loadtxt(fh, delimiter=",", ndmin=2, max_rows=BLOCK_ROWS)
    except ValueError as exc:
        fault = str(exc)
    else:
        if not block.shape[0] or (block.shape[1] == (cols or block.shape[1])
                                  and np.isfinite(block).all()):
            return block
        fault = "a row of another width or a non-finite value"
    raise _row_error(path, fh, done, cols) or ConfigError(f"{path}: {fault}")


def _trajectory_blocks(path: Path, fh):
    """Trajectory CSV: t, theta, x1, y1, ..., w, vx1, vy1, ... per row, under
    a header of those names, read from the open file `fh` in blocks of
    BLOCK_ROWS rows.  Parses and checks the first block and the header now;
    returns the sampling interval, the neighbor count and an iterator over
    the blocks without t (the rows `empirical_gramian` reads), which parses
    and checks each later block when it gets there."""
    header = fh.readline()
    first = _read_block(path, fh, 0)
    cols = first.shape[1]
    if first.shape[0] and (cols < 7 or (cols - 3) % 4 != 0):
        raise ConfigError(
            f"{_at_row(path, fh, 0)}: expected columns t, theta, x/y per neighbor, w, vx/vy per neighbor"
        )
    if first.shape[0] < 2:
        raise ConfigError(f"{path}: at least two samples required")
    n = (cols - 3) // 4
    xy = [f"{c}{k}" for k in range(1, n + 1) for c in "xy"]
    names = ["t", "theta", *xy, "w", *(f"v{name}" for name in xy)]
    if [cell.strip() for cell in header.split("#", 1)[0].split(",")] != names:
        raise ConfigError(f"{path}:1: expected the header {','.join(names)}")
    dt = float(first[1, 0] - first[0, 0])
    uneven = "time column must be uniformly increasing"
    if dt <= 0:
        raise ConfigError(f"{_at_row(path, fh, 1)}: {uneven}")

    def blocks():
        block, done, last = first, 0, first[:0, 0]  # no sample before the first block
        while block.shape[0]:
            steps = np.diff(np.append(last, block[:, 0]))
            wrong = (steps <= 0) | (np.abs(steps - dt) > 1e-9 * max(1.0, dt))
            if wrong.any():  # the row that ends the first wrong step
                row = done + int(wrong.argmax()) + 1 - last.size
                raise ConfigError(f"{_at_row(path, fh, row)}: {uneven}")
            yield block[:, 1:]
            done, last = done + block.shape[0], block[-1:, 0]
            block = _read_block(path, fh, done, cols)

    return blocks(), dt, n


def cmd_check_observability(args) -> int:
    mode = "trajectory" if args.trajectory is not None else "p" if args.p is not None else ""
    for flag in {"trajectory": ("n", "p", "seed"), "p": ("seed",)}.get(mode, ()):
        if getattr(args, flag) is not None:
            raise ConfigError(f"--{flag} is not read with --{mode}")
    if not math.isfinite(args.tol):
        raise ConfigError(f"--tol must be finite, got {args.tol}")
    if args.tol <= 0:
        raise ConfigError(f"--tol must be positive, got {args.tol}")
    if args.trajectory is not None:
        path = Path(args.trajectory)
        try:
            with open(path, encoding="utf-8-sig", errors="backslashreplace") as fh:  # as configs are
                # a pipe is read whole, so that a faulty row's line can be found again
                blocks, dt, n = _trajectory_blocks(path, fh if fh.seekable() else io.StringIO(fh.read()))
                report = empirical_gramian(blocks, dt, rank_tol=args.tol)
        except OSError as exc:
            raise ConfigError(f"cannot read trajectory file {path}: {exc.strerror or exc}") from None
        kind, label, values = "gramian", "eigenvalues", report.eigenvalues
        deficient = report.deficient_neighbor_blocks
    else:
        n = args.n
        if n is None or n < 1:
            raise ConfigError("--n must be a positive integer (or use --trajectory)")
        if args.p is not None:
            if not _is_numbers(args.p):
                raise ConfigError(f"--p must be comma-separated numbers, got {args.p!r}")
            p = np.array([float(x) for x in args.p.split(",")])
            if p.size != 2 * n:
                raise ConfigError(f"--p needs {2 * n} numbers for n={n}")
            if not np.isfinite(p).all():
                raise ConfigError(f"--p must be finite, got {args.p}")
        else:
            if args.seed is not None and args.seed < 0:
                raise ConfigError(f"--seed must be non-negative, got {args.seed}")
            # the standard library's generator: numpy.random would cost this
            # command about 5 MiB of imports for 2n numbers
            rng = random.Random(0 if args.seed is None else args.seed)
            p = np.fromiter((rng.uniform(-5.0, 5.0) for _ in range(2 * n)), float, 2 * n)
        # the singular values do not depend on the heading (left invariance)
        report = codistribution_rank(GroupElement(p, 0.0), tol=args.tol)
        kind, label, values = "codistribution", "singular values", report.singular_values
        deficient = ()
    print(f"neighbors: {n}")
    print(f"{kind} rank: {report.rank} of {2 * n + 1}")
    print(f"{label}: " + " ".join(f"{v:.3e}" for v in values))
    if deficient:
        print("unobservable neighbor blocks: " + ", ".join(str(b + 1) for b in deficient))
    print("observable: " + ("yes" if report.observable else "no"))
    return EXIT_OK if report.observable else EXIT_DEFICIENT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formloc",
        description="Relative-localization formation control simulator.",
    )
    parser.add_argument("--version", action="version", version=f"formloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write metrics + manifest")
    p_run.add_argument("--scenario", choices=sorted(SCENARIOS), help="built-in scenario")
    p_run.add_argument("--config", help="INI config file (a manifest also works)")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--dt", type=float, help="override the sampling interval")
    p_run.add_argument("--duration", type=float, help="override the simulated duration")
    p_run.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or {DEFAULT_OUT_DIR})")
    p_run.set_defaults(func=cmd_run)

    p_chk = sub.add_parser("check-observability",
                           help="rank of the observability codistribution or trajectory gramian")
    p_chk.add_argument("--n", type=int, help="number of neighbors")
    p_chk.add_argument("--p", help="comma-separated relative positions x1,y1,...")
    p_chk.add_argument("--seed", type=int, help="seed of the random state drawn when --p is omitted "
                       "(default 0)")
    p_chk.add_argument("--tol", type=float, default=1e-9,
                       help="relative rank tolerance: of the largest singular value with --n, of the "
                       "largest Gramian eigenvalue (a squared singular value) with --trajectory")
    p_chk.add_argument("--trajectory", help="CSV trajectory for the empirical gramian")
    p_chk.set_defaults(func=cmd_check_observability)

    p_rep = sub.add_parser("reproduce", help="run a preset and check its expected outcome")
    p_rep.add_argument("name", choices=sorted(EXPECTED_OUTCOME))
    p_rep.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or {DEFAULT_OUT_DIR})")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def _is_numbers(text: str) -> bool:
    """Whether text is one number or a comma-separated list of them."""
    try:
        for part in text.split(","):
            float(part)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    # argparse takes a value such as -inf, -1e-3 or -1,2 for an option; join
    # each one that reads as numbers to the option before it, as --dt=-inf
    tokens = []
    for arg in sys.argv[1:] if argv is None else argv:
        if (tokens and tokens[-1].startswith("--") and tokens[-1] != "--"
                and "=" not in tokens[-1] and arg.startswith("-") and _is_numbers(arg)):
            tokens[-1] += "=" + arg
        else:
            tokens.append(arg)
    args = build_parser().parse_args(tokens)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        _report_events(args.command, getattr(exc, "events", ()))  # a divergence keeps its events
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
