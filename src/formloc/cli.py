"""Command-line front end: scenario runs, observability checks, presets.

Subcommands
    run                  simulate a scenario (built-in or from a config file)
    check-observability  rank tests at a state or along a trajectory file
    reproduce            run a named preset and verify its expected outcome

Outputs land in --out, else $FORMLOC_OUT_DIR, else ./formloc_runs: a
metrics.csv time series and a manifest.txt that echoes the fully resolved
configuration.  A manifest is itself a valid config file, so
`run --config manifest.txt` replays the exact run.

Exit codes: 0 success, 1 runtime failure, 2 bad usage or config,
3 observability rank deficiency (or, for reproduce, unexpected outcome).

Agents and edges are numbered from 1 everywhere on this surface.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import math
import os
import sys
import warnings
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
    OutcomeThresholds,
    ScenarioConfig,
    SpawnError,
    detect_outcome,
    scenario_issue1,
    scenario_issue2,
    scenario_issue3,
    scenario_nominal,
)
from .sim import run

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


class ConfigError(Exception):
    """Malformed or inconsistent configuration: file contents or overrides."""


def _fmt(x) -> str:
    return repr(float(x))


def _line_of(path: Path, section: str, key: str | None = None) -> str:
    """Best-effort 'path:line' locator for a section or key, for diagnostics."""
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return str(path)
    in_section = False
    for idx, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            if in_section and key is not None:
                break
            in_section = stripped[1:-1].strip().lower() == section.lower()
            if in_section and key is None:
                return f"{path}:{idx}"
        elif in_section and key is not None:
            name = stripped.split("=", 1)[0].split(":", 1)[0].strip().lower()
            if name == key.lower():
                return f"{path}:{idx}"
    return str(path)


def _pair_key(prefix: str, i: int, j: int) -> str:
    return f"{prefix}_{i + 1}_{j + 1}"


def _estimate_keys(graph: Graph) -> dict:
    """(i, j) -> `est_i_j` for both orientations of every edge."""
    return {(i, j): _pair_key("est", i, j)
            for t, h in graph.edges for i, j in ((t, h), (h, t))}


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

# Keys each config section accepts besides those that depend on the graph
# or the variant (`d_i_j`, `est_i_j`, and the mismatch keys `default` and
# `a_i_j` of [controller]); manifest-only sections are skipped.
_SECTION_KEYS = {
    "graph": {"agents", "edges"},
    "distances": {"default"},
    "controller": {"variant", "sharing"},
    "init": {"positions"},
}
for _section, _key, _ in _SCALARS:
    _SECTION_KEYS.setdefault(_section, set()).add(_key)
_MANIFEST_SECTIONS = ("artifact", "result")
# `sharing` is derived from the variant; older manifests still carry it
_SHARING = {
    "ideal": ("per-agent", "per-edge-owner"),
    "estimated": ("per-agent",),
    "algorithm1": ("per-edge-owner",),
}


def _reject_unknown(ini: configparser.ConfigParser, path: Path, graph: Graph,
                    variant: str) -> None:
    """Raise ConfigError at the first section or key the loader would ignore."""
    if ini.defaults():
        raise ConfigError(f"{_line_of(path, 'DEFAULT')}: unknown section [DEFAULT]")
    mismatch_keys = {"default"} | {_pair_key("a", t, h) for t, h in graph.edges}
    edge_keys = {
        "distances": {_pair_key("d", t, h) for t, h in graph.edges},
        "controller": mismatch_keys if variant == "algorithm1" else set(),
        "init": set(_estimate_keys(graph).values()),
    }
    for section in ini.sections():
        if section in _MANIFEST_SECTIONS:
            continue
        if section not in _SECTION_KEYS:
            raise ConfigError(f"{_line_of(path, section)}: unknown section [{section}]")
        for key in ini[section]:
            if key in _SECTION_KEYS[section] or key in edge_keys.get(section, ()):
                continue
            where = _line_of(path, section, key)
            if section == "controller" and key in mismatch_keys:
                raise ConfigError(f"{where}: {key!r} sets a mismatch, "
                                  f"which only variant algorithm1 reads (variant is {variant})")
            raise ConfigError(f"{where}: unknown key {key!r} in [{section}]")


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
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
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


def _get(sec, key: str, default, where, kind=float):
    """sec[key] as a float, int or bool (`kind`), or default when absent.
    A float must be finite."""
    if key not in sec:
        return default
    try:
        value = sec.getboolean(key) if kind is bool else kind(sec[key])
    except ValueError:
        raise ConfigError(f"{where(key)}: {key} must be {_KIND_NAMES[kind]}, "
                          f"got {sec[key]!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{where(key)}: {key} must be finite, got {sec[key]!r}")
    return value


def config_from_ini(path: str | Path) -> ScenarioConfig:
    """Load a scenario config (or a manifest; its [artifact] and [result]
    sections are ignored).  Unknown sections and keys are rejected."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    ini = configparser.ConfigParser()
    try:
        with open(path) as fh:
            ini.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    def where(section):
        return lambda key=None: _line_of(path, section, key)

    if "graph" not in ini:
        raise ConfigError(f"{path}: missing [graph] section")
    gw = where("graph")
    agents = _get(ini["graph"], "agents", None, gw, int)
    if agents is None or agents < 2:
        raise ConfigError(f"{gw('agents')}: at least 2 agents required")
    if "edges" not in ini["graph"]:
        raise ConfigError(f"{gw()}: missing edges key")
    edge_list = _parse_edges(ini["graph"]["edges"], agents, gw("edges"))
    try:
        graph = Graph.from_one_based(agents, edge_list)
    except ValueError as exc:
        raise ConfigError(f"{gw('edges')}: {_one_based(exc)}") from None
    for section in _SECTION_KEYS:
        if section not in ini:
            ini.add_section(section)

    csec, cw = ini["controller"], where("controller")
    variant = csec.get("variant", ScenarioConfig.variant).strip()
    if variant not in VARIANTS:
        raise ConfigError(f"{cw('variant')}: unknown variant {variant!r}, "
                          f"expected one of {', '.join(VARIANTS)}")
    if "sharing" in csec and csec["sharing"].strip() not in _SHARING[variant]:
        raise ConfigError(f"{cw('sharing')}: sharing = {csec['sharing'].strip()} "
                          f"contradicts variant = {variant}")
    _reject_unknown(ini, path, graph, variant)

    dsec, dw = ini["distances"], where("distances")

    def distance(key, default):
        value = _get(dsec, key, default, dw)
        if key in dsec and value <= 0:
            raise ConfigError(f"{dw(key)}: {key} must be positive, got {dsec[key]!r}")
        return value

    default_d = distance("default", float("nan"))
    d_vals = []
    for t, h in graph.edges:
        val = distance(_pair_key("d", t, h), default_d)
        if not np.isfinite(val):
            raise ConfigError(f"{dw()}: no distance for edge {t + 1}-{h + 1} and no default")
        d_vals.append(val)
    distances = DesiredDistances(np.array(d_vals))

    mismatch = None
    if variant == "algorithm1":
        default_a = _get(csec, "default", 1.0, cw)
        a_vals = [_get(csec, _pair_key("a", t, h), default_a, cw) for t, h in graph.edges]
        mismatch = MismatchConfig(np.array(a_vals))

    isec, iw = ini["init"], where("init")
    positions = None
    if "positions" in isec:
        rows = [p for p in isec["positions"].split(";") if p.strip()]
        if len(rows) != agents:
            raise ConfigError(f"{iw('positions')}: expected {agents} positions, got {len(rows)}")
        positions = np.array([_parse_pair(row, iw("positions")) for row in rows])
    estimates = None
    est_keys = _estimate_keys(graph)
    if any(key in isec for key in est_keys.values()):
        estimates = {}
        for pair, key in est_keys.items():
            if key not in isec:
                raise ConfigError(f"{iw()}: missing initial estimate {key}")
            estimates[pair] = _parse_pair(isec[key], iw(key))

    # absent keys are not passed, so each dataclass supplies its own default
    values = {"noise": {}, "thresholds": {}, None: {}}
    for section, key, kind in _SCALARS:
        if key in ini[section]:
            values[_NESTED.get(key)][key] = _get(ini[section], key, None, where(section), kind)
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
        where = _line_of(path, section, name) if section else path
        raise ConfigError(f"{where}: {_one_based(exc)}") from None


def write_metrics_csv(path: str | Path, series: MetricsSeries) -> None:
    """One header line, one row per step, plain decimal-point floats."""
    cols = (
        ["t"]
        + [f"dist_{lbl}" for lbl in series.edge_labels]
        + [f"esterr_{lbl}" for lbl in series.edge_labels]
        + ["centroid_speed", "angular_rate"]
    )
    table = np.column_stack([
        series.t, series.distances, series.est_errors,
        series.centroid_speed, series.angular_rate,
    ])
    if not np.all(np.isfinite(table)):
        raise RuntimeError("non-finite values in metrics; refusing to write CSV")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in table:  # row by row: the table as Python floats would hold them all at once
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def write_manifest(path: str | Path, config: ScenarioConfig, series: MetricsSeries,
                   outcome: str, metrics_name: str) -> None:
    ini = config_to_ini(config)
    ini["artifact"] = {"name": "formloc", "version": __version__}
    window = config.thresholds.window(series.steps)
    ini["result"] = {
        "outcome": outcome,
        "steps": str(series.steps),
        "final_max_dist_error": _fmt(np.abs(series.distances[window] - series.desired).max()),
        "final_max_est_error": _fmt(series.est_errors[window].max()),
        "steady_angular_rate": _fmt(series.angular_rate[window].mean()),
        "metrics": metrics_name,
    }
    with open(path, "w") as fh:
        ini.write(fh)


def _out_dir(arg: str | None) -> Path:
    if arg:
        return Path(arg)
    env = os.environ.get(ENV_OUT_DIR)
    return Path(env) if env else Path(DEFAULT_OUT_DIR)


def _run_and_save(config: ScenarioConfig, out_dir: Path) -> tuple[MetricsSeries, str]:
    try:  # refuse a run shorter than the evaluation window before simulating it
        config.thresholds.window(config.steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    series = run(config)
    outcome = detect_outcome(series, config.thresholds)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out_dir / "metrics.csv", series)
    write_manifest(out_dir / "manifest.txt", config, series, outcome, "metrics.csv")
    return series, outcome


def _report_events(command: str, events: tuple[str, ...]) -> None:
    """One stderr line for the engine events of a run, if it recorded any
    (capped sub-steps, skipped filter updates): their count and the first."""
    if events:
        count = len(events)
        print(f"{command}: {count} engine event{'s' * (count > 1)}, the first: {events[0]}",
              file=sys.stderr)


def _run_and_report(command: str, config: ScenarioConfig, out: str | None,
                    expected: str | None = None) -> int:
    """Run and save `config` (`_run_and_save`) and print its outcome, with
    ` (expected X)` after it when an outcome is expected; a mismatch exits 3."""
    out_dir = _out_dir(out)
    try:
        series, outcome = _run_and_save(config, out_dir)
    except (ConfigError, SpawnError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, OSError, MemoryError) as exc:  # divergence, non-finite metrics, I/O
        _report_events(command, getattr(exc, "events", ()))  # a divergence keeps its events
        print(f"{command}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    _report_events(command, series.events)
    print(f"outcome: {outcome}" + ("" if expected is None else f" (expected {expected})"))
    print(f"wrote {out_dir / 'metrics.csv'} and {out_dir / 'manifest.txt'}")
    return EXIT_OK if expected in (None, outcome) else EXIT_DEFICIENT


def cmd_run(args) -> int:
    if (args.scenario is None) == (args.config is None):
        print("run: give exactly one of --scenario or --config", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.scenario is not None:
            config = SCENARIOS[args.scenario]()
        else:
            config = config_from_ini(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.dt is not None:
            overrides["dt"] = args.dt
        if args.duration is not None:
            overrides["duration"] = args.duration
        if overrides:
            config = replace(config, **overrides)
    except (ConfigError, ValueError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _run_and_report("run", config, args.out)


def cmd_reproduce(args) -> int:
    return _run_and_report("reproduce", SCENARIOS[args.name](), args.out, EXPECTED_OUTCOME[args.name])


def _parse_error(path: Path, exc: ValueError) -> ConfigError:
    """The whole-file message of a parse error met in some block: loadtxt
    numbers a block's rows from the block's start, so read the file once
    more from its header, as one table, up to the error."""
    try:
        np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as whole:
        exc = whole
    return ConfigError(f"{path}: {exc}")


def _read_block(path: Path, fh, done: int) -> np.ndarray:
    """The next BLOCK_ROWS data rows of an open trajectory CSV, (0, 1) at its
    end; `done` rows came before them."""
    try:
        with warnings.catch_warnings():
            # at the end of the data, and for every blank or comment line that max_rows skips
            warnings.simplefilter("ignore", UserWarning)
            block = np.loadtxt(fh, delimiter=",", ndmin=2, max_rows=BLOCK_ROWS)
    except ValueError as exc:
        raise _parse_error(path, exc) from None
    if not np.isfinite(block).all():
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1))[0]
        # the file lines loadtxt read as rows: after the header, neither blank nor comment
        fh.seek(0)
        rows = (k for k, line in enumerate(fh, start=1) if k > 1 and line.split("#", 1)[0].strip())
        line = next(itertools.islice(rows, done + bad, None))
        raise ConfigError(f"{path}:{line}: non-finite trajectory value")
    return block


def _trajectory_blocks(path: Path, fh):
    """Trajectory CSV: t, theta, x1, y1, ..., w, vx1, vy1, ... per row, read
    from the open file `fh` in blocks of BLOCK_ROWS rows.  Parses and checks
    the first block now; returns the sampling interval, the neighbor count and
    an iterator over the blocks without t (the rows `empirical_gramian`
    reads), which parses and checks each later block when it gets there."""
    fh.readline()  # the header
    first = _read_block(path, fh, 0)
    cols = first.shape[1]
    if first.shape[0] and (cols < 7 or (cols - 3) % 4 != 0):
        raise ConfigError(
            f"{path}: expected columns t, theta, x/y per neighbor, w, vx/vy per neighbor"
        )
    if first.shape[0] < 2:
        raise ConfigError(f"{path}: at least two samples required")
    dt = float(first[1, 0] - first[0, 0])
    uneven = ConfigError(f"{path}: time column must be uniformly increasing")
    if dt <= 0:
        raise uneven

    def blocks():
        block, done, last = first, 0, first[:0, 0]  # no sample before the first block
        while block.shape[0]:
            if block.shape[1] != cols:
                raise _parse_error(path, ValueError(f"the number of columns changed from {cols} "
                                                    f"to {block.shape[1]}"))
            steps = np.diff(np.append(last, block[:, 0]))
            if np.abs(steps - dt).max() > 1e-9 * max(1.0, abs(dt)):
                raise uneven
            yield block[:, 1:]
            done, last = done + block.shape[0], block[-1:, 0]
            block = _read_block(path, fh, done)

    return blocks(), dt, (cols - 3) // 4


def cmd_check_observability(args) -> int:
    try:
        mode = "trajectory" if args.trajectory is not None else "p" if args.p is not None else ""
        for flag in {"trajectory": ("n", "p", "seed", "theta", "depth"), "p": ("seed",)}.get(mode, ()):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag} is not read with --{mode}")
        for flag, value in (("theta", args.theta), ("tol", args.tol)):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"--{flag} must be finite, got {value}")
        if args.tol <= 0:
            raise ConfigError(f"--tol must be positive, got {args.tol}")
        if args.depth is not None and args.depth < 1:
            raise ConfigError(f"--depth must be at least 1, got {args.depth}")
        if args.trajectory is not None:
            path = Path(args.trajectory)
            try:
                with open(path) as fh:
                    blocks, dt, n = _trajectory_blocks(path, fh)
                    report = empirical_gramian(blocks, dt, rank_tol=args.tol)
            except OSError as exc:
                raise ConfigError(f"cannot read trajectory file {path}: {exc.strerror or exc}") from None
            except UnicodeDecodeError as exc:  # met by the header's read, not by loadtxt's
                raise ConfigError(f"{path}: {exc}") from None
            dim = 2 * n + 1
            eigs = np.linalg.eigvalsh(report.gramian)[::-1]
            print(f"neighbors: {n}")
            print(f"gramian rank: {report.rank} of {dim}")
            print("eigenvalues: " + " ".join(f"{v:.3e}" for v in eigs))
            if report.deficient_neighbor_blocks:
                labels = ", ".join(str(b + 1) for b in report.deficient_neighbor_blocks)
                print(f"unobservable neighbor blocks: {labels}")
            observable = report.rank == dim and not report.deficient_neighbor_blocks
            print("observable: " + ("yes" if observable else "no"))
            return EXIT_OK if observable else EXIT_DEFICIENT

        if args.n is None or args.n < 1:
            raise ConfigError("--n must be a positive integer (or use --trajectory)")
        if args.p is not None:
            if not _is_numbers(args.p):
                raise ConfigError(f"--p must be comma-separated numbers, got {args.p!r}")
            p = np.array([float(x) for x in args.p.split(",")])
            if p.size != 2 * args.n:
                raise ConfigError(f"--p needs {2 * args.n} numbers for n={args.n}")
            if not np.isfinite(p).all():
                raise ConfigError(f"--p must be finite, got {args.p}")
        else:
            if args.seed is not None and args.seed < 0:
                raise ConfigError(f"--seed must be non-negative, got {args.seed}")
            rng = np.random.default_rng(args.seed if args.seed is not None else 0)
            p = rng.uniform(-5.0, 5.0, size=2 * args.n)
        q = GroupElement(p, 0.0 if args.theta is None else args.theta)
        report = codistribution_rank(q, tol=args.tol, depth=1 if args.depth is None else args.depth)
        dim = 2 * args.n + 1
        print(f"neighbors: {args.n}")
        print(f"codistribution rank: {report.rank} of {dim}")
        print("singular values: " + " ".join(f"{v:.3e}" for v in report.singular_values))
        print("observable: " + ("yes" if report.observable else "no"))
        return EXIT_OK if report.observable else EXIT_DEFICIENT
    except (ConfigError, ValueError) as exc:
        print(f"check-observability: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"check-observability: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


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
    p_chk.add_argument("--theta", type=float, help="heading (default 0)")
    p_chk.add_argument("--seed", type=int, help="seed for a random state when --p is omitted")
    p_chk.add_argument("--tol", type=float, default=1e-9, help="rank tolerance")
    p_chk.add_argument("--depth", type=int, help="derivative depth for the codistribution "
                       "(default 1; above 3 adds no function)")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
