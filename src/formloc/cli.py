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
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .controller import MismatchConfig
from .estimator import NoiseConfig
from .lie_group import AlgebraElement, GroupElement
from .network import DesiredDistances, Graph, sorted_neighbors
from .observability import codistribution_rank, empirical_gramian
from .sim import (
    MetricsSeries,
    OutcomeThresholds,
    ScenarioConfig,
    detect_outcome,
    run,
    scenario_issue1,
    scenario_issue2,
    scenario_issue3,
    scenario_nominal,
)

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
    """Malformed or inconsistent config file contents."""


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


# Keys each config section accepts besides the per-edge ones (`d_i_j`,
# `a_i_j`) and the `est_i_j` estimates; manifest-only sections are skipped.
_SECTION_KEYS = {
    "graph": {"agents", "edges"},
    "distances": {"default"},
    "controller": {"variant", "sharing", "default"},
    "noise": {"process_position_psd", "process_heading_psd", "meas_distance_var",
              "meas_heading_var", "measurement_noise"},
    "init": {"offset_bound", "spawn_box", "min_separation", "initial_var", "positions"},
    "sim": {"dt", "duration", "seed", "estimator_enabled"},
    "thresholds": {"dist_tol", "est_tol", "speed_tol", "centroid_tol", "error_floor",
                   "window_frac"},
}
_MANIFEST_SECTIONS = ("artifact", "result")


def _reject_unknown(ini: configparser.ConfigParser, path: Path, graph: Graph) -> None:
    """Raise ConfigError at the first section or key the loader would ignore."""
    if ini.defaults():
        raise ConfigError(f"{_line_of(path, 'DEFAULT')}: unknown section [DEFAULT]")
    edge_keys = {
        "distances": {_pair_key("d", t, h) for t, h in graph.edges},
        "controller": {_pair_key("a", t, h) for t, h in graph.edges},
    }
    for section in ini.sections():
        if section in _MANIFEST_SECTIONS:
            continue
        if section not in _SECTION_KEYS:
            raise ConfigError(f"{_line_of(path, section)}: unknown section [{section}]")
        for key in ini[section]:
            if key in _SECTION_KEYS[section] or key in edge_keys.get(section, ()):
                continue
            if section == "init" and key.startswith("est_"):
                continue
            raise ConfigError(f"{_line_of(path, section, key)}: unknown key {key!r} in [{section}]")


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
    ini["controller"] = {"variant": config.variant, "sharing": config.sharing}
    if config.mismatch is not None:
        for k, (t, h) in enumerate(g.edges):
            ini["controller"][_pair_key("a", t, h)] = _fmt(config.mismatch.values[k])
    n = config.noise
    ini["noise"] = {
        "process_position_psd": _fmt(n.process_position_psd),
        "process_heading_psd": _fmt(n.process_heading_psd),
        "meas_distance_var": _fmt(n.meas_distance_var),
        "meas_heading_var": _fmt(n.meas_heading_var),
        "measurement_noise": str(config.measurement_noise).lower(),
    }
    ini["init"] = {
        "offset_bound": _fmt(config.offset_bound),
        "spawn_box": _fmt(config.spawn_box),
        "min_separation": _fmt(config.min_separation),
    }
    if config.initial_var is not None:
        ini["init"]["initial_var"] = _fmt(config.initial_var)
    if config.initial_positions is not None:
        ini["init"]["positions"] = "; ".join(
            f"{_fmt(x)}, {_fmt(y)}" for x, y in config.initial_positions
        )
    if config.initial_estimates is not None:
        for (i, j), v in sorted(config.initial_estimates.items()):
            ini["init"][_pair_key("est", i, j)] = f"{_fmt(v[0])}, {_fmt(v[1])}"
    ini["sim"] = {
        "dt": _fmt(config.dt),
        "duration": _fmt(config.duration),
        "seed": str(config.seed),
        "estimator_enabled": str(config.estimator_enabled).lower(),
    }
    th = config.thresholds
    ini["thresholds"] = {
        "dist_tol": _fmt(th.dist_tol),
        "est_tol": _fmt(th.est_tol),
        "speed_tol": _fmt(th.speed_tol),
        "centroid_tol": _fmt(th.centroid_tol),
        "error_floor": _fmt(th.error_floor),
        "window_frac": _fmt(th.window_frac),
    }
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
        return np.array([float(parts[0]), float(parts[1])])
    except ValueError:
        raise ConfigError(f"{where}: non-numeric value in {text!r}") from None


def _get_float(sec, key: str, default: float, where) -> float:
    if key not in sec:
        return default
    try:
        return float(sec[key])
    except ValueError:
        raise ConfigError(f"{where(key)}: {key} must be a number, got {sec[key]!r}") from None


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
    try:
        agents = ini["graph"].getint("agents")
    except ValueError:
        raise ConfigError(f"{gw('agents')}: agents must be an integer") from None
    if agents is None or agents < 2:
        raise ConfigError(f"{gw('agents')}: at least 2 agents required")
    if "edges" not in ini["graph"]:
        raise ConfigError(f"{gw()}: missing edges key")
    edge_list = _parse_edges(ini["graph"]["edges"], agents, gw("edges"))
    try:
        graph = Graph.from_one_based(agents, edge_list)
    except ValueError as exc:
        raise ConfigError(f"{gw('edges')}: {exc}") from None
    _reject_unknown(ini, path, graph)

    dsec = ini["distances"] if "distances" in ini else {}
    dw = where("distances")
    default_d = _get_float(dsec, "default", float("nan"), dw)
    d_vals = []
    for t, h in graph.edges:
        key = _pair_key("d", t, h)
        val = _get_float(dsec, key, default_d, dw)
        if not np.isfinite(val):
            raise ConfigError(f"{dw()}: no distance for edge {t + 1}-{h + 1} and no default")
        d_vals.append(val)
    try:
        distances = DesiredDistances(np.array(d_vals))
    except ValueError as exc:
        raise ConfigError(f"{dw()}: {exc}") from None

    csec = ini["controller"] if "controller" in ini else {}
    cw = where("controller")
    variant = csec.get("variant", "algorithm1").strip()
    sharing = csec.get("sharing", "").strip()
    if not sharing:
        sharing = "per-edge-owner" if variant == "algorithm1" else "per-agent"
    mismatch = None
    if variant == "algorithm1":
        default_a = _get_float(csec, "default", 1.0, cw)
        a_vals = [
            _get_float(csec, _pair_key("a", t, h), default_a, cw)
            for t, h in graph.edges
        ]
        mismatch = MismatchConfig(np.array(a_vals))

    nsec = ini["noise"] if "noise" in ini else {}
    nw = where("noise")
    defaults = NoiseConfig()
    try:
        noise = NoiseConfig(
            process_position_psd=_get_float(nsec, "process_position_psd", defaults.process_position_psd, nw),
            process_heading_psd=_get_float(nsec, "process_heading_psd", defaults.process_heading_psd, nw),
            meas_distance_var=_get_float(nsec, "meas_distance_var", defaults.meas_distance_var, nw),
            meas_heading_var=_get_float(nsec, "meas_heading_var", defaults.meas_heading_var, nw),
        )
    except ValueError as exc:
        raise ConfigError(f"{nw()}: {exc}") from None
    try:
        measurement_noise = nsec.getboolean("measurement_noise", False) if nsec else False
    except ValueError:
        raise ConfigError(f"{nw('measurement_noise')}: measurement_noise must be a boolean") from None

    isec = ini["init"] if "init" in ini else {}
    iw = where("init")
    offset_bound = _get_float(isec, "offset_bound", 2.0, iw)
    spawn_box = _get_float(isec, "spawn_box", 20.0, iw)
    min_separation = _get_float(isec, "min_separation", 1.0, iw)
    initial_var = _get_float(isec, "initial_var", float("nan"), iw)
    initial_var = None if not np.isfinite(initial_var) else initial_var
    positions = None
    if "positions" in isec:
        rows = [p for p in isec["positions"].split(";") if p.strip()]
        if len(rows) != agents:
            raise ConfigError(f"{iw('positions')}: expected {agents} positions, got {len(rows)}")
        positions = np.array([_parse_pair(row, iw("positions")) for row in rows])
    estimates = None
    est_keys = [k for k in isec if k.startswith("est_")] if isec else []
    if est_keys:
        estimates = {}
        for key in est_keys:
            pieces = key.split("_")
            if len(pieces) != 3:
                raise ConfigError(f"{iw(key)}: estimate key must look like est_1_2")
            try:
                i, j = int(pieces[1]) - 1, int(pieces[2]) - 1
            except ValueError:
                raise ConfigError(f"{iw(key)}: estimate key must look like est_1_2") from None
            estimates[(i, j)] = _parse_pair(isec[key], iw(key))

    ssec = ini["sim"] if "sim" in ini else {}
    sw = where("sim")
    dt = _get_float(ssec, "dt", 0.01, sw)
    duration = _get_float(ssec, "duration", 100.0, sw)
    if "seed" in ssec:
        try:
            seed = int(ssec["seed"])
        except ValueError:
            raise ConfigError(f"{sw('seed')}: seed must be an integer") from None
    else:
        seed = 0
    try:
        estimator_enabled = ssec.getboolean("estimator_enabled", True) if ssec else True
    except ValueError:
        raise ConfigError(f"{sw('estimator_enabled')}: estimator_enabled must be a boolean") from None

    tsec = ini["thresholds"] if "thresholds" in ini else {}
    tw = where("thresholds")
    td = OutcomeThresholds()
    try:
        thresholds = OutcomeThresholds(
            dist_tol=_get_float(tsec, "dist_tol", td.dist_tol, tw),
            est_tol=_get_float(tsec, "est_tol", td.est_tol, tw),
            speed_tol=_get_float(tsec, "speed_tol", td.speed_tol, tw),
            centroid_tol=_get_float(tsec, "centroid_tol", td.centroid_tol, tw),
            error_floor=_get_float(tsec, "error_floor", td.error_floor, tw),
            window_frac=_get_float(tsec, "window_frac", td.window_frac, tw),
        )
    except ValueError as exc:
        raise ConfigError(f"{tw()}: {exc}") from None

    try:
        return ScenarioConfig(
            graph=graph,
            distances=distances,
            variant=variant,
            sharing=sharing,
            mismatch=mismatch,
            dt=dt,
            duration=duration,
            seed=seed,
            noise=noise,
            measurement_noise=measurement_noise,
            offset_bound=offset_bound,
            initial_var=initial_var,
            initial_positions=positions,
            spawn_box=spawn_box,
            min_separation=min_separation,
            initial_estimates=estimates,
            estimator_enabled=estimator_enabled,
            thresholds=thresholds,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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
        for row in table:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_manifest(path: str | Path, config: ScenarioConfig, series: MetricsSeries,
                   outcome: str, metrics_name: str) -> None:
    ini = config_to_ini(config)
    ini["artifact"] = {"name": "formloc", "version": __version__}
    w = max(1, int(round(series.steps * config.thresholds.window_frac)))
    d = np.sqrt(series.distances[-1] ** 2 - series.dist_errors[-1])
    ini["result"] = {
        "outcome": outcome,
        "steps": str(series.steps),
        "final_max_dist_error": _fmt(np.abs(series.distances[-w:] - d).max()),
        "final_max_est_error": _fmt(series.est_errors[-w:].max()),
        "steady_angular_rate": _fmt(series.angular_rate[-w:].mean()),
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
    series = run(config)
    outcome = detect_outcome(series, config.thresholds)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out_dir / "metrics.csv", series)
    write_manifest(out_dir / "manifest.txt", config, series, outcome, "metrics.csv")
    return series, outcome


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

    out_dir = _out_dir(args.out)
    try:
        series, outcome = _run_and_save(config, out_dir)
    except Exception as exc:
        print(f"run: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"outcome: {outcome}")
    print(f"wrote {out_dir / 'metrics.csv'} and {out_dir / 'manifest.txt'}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    out_dir = _out_dir(args.out)
    config = SCENARIOS[args.name]()
    try:
        series, outcome = _run_and_save(config, out_dir)
    except Exception as exc:
        print(f"reproduce: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    expected = EXPECTED_OUTCOME[args.name]
    print(f"outcome: {outcome} (expected {expected})")
    print(f"wrote {out_dir / 'metrics.csv'} and {out_dir / 'manifest.txt'}")
    return EXIT_OK if outcome == expected else EXIT_DEFICIENT


def _load_trajectory(path: Path):
    """Trajectory CSV: t, theta, x1, y1, ..., w, vx1, vy1, ... per row."""
    try:
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError:
        raise ConfigError(f"trajectory file not found: {path}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    cols = raw.shape[1]
    if cols < 7 or (cols - 3) % 4 != 0:
        raise ConfigError(
            f"{path}: expected columns t, theta, x/y per neighbor, w, vx/vy per neighbor"
        )
    n = (cols - 3) // 4
    if raw.shape[0] < 2:
        raise ConfigError(f"{path}: at least two samples required")
    t = raw[:, 0]
    steps = np.diff(t)
    dt = float(steps[0])
    if dt <= 0 or np.abs(steps - dt).max() > 1e-9 * max(1.0, abs(dt)):
        raise ConfigError(f"{path}: time column must be uniformly increasing")
    traj = []
    for row in raw:
        q = GroupElement(row[2:2 + 2 * n], row[1])
        xi = AlgebraElement(row[3 + 2 * n:3 + 4 * n], row[2 + 2 * n])
        traj.append((q, xi))
    return traj, dt, n


def cmd_check_observability(args) -> int:
    try:
        if args.trajectory is not None:
            traj, dt, n = _load_trajectory(Path(args.trajectory))
            report = empirical_gramian(traj, dt, rank_tol=args.tol)
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
            print("check-observability: --n must be a positive integer "
                  "(or use --trajectory)", file=sys.stderr)
            return EXIT_USAGE
        if args.p is not None:
            p = np.array([float(x) for x in args.p.split(",")])
            if p.size != 2 * args.n:
                raise ConfigError(f"--p needs {2 * args.n} numbers for n={args.n}")
        else:
            rng = np.random.default_rng(args.seed if args.seed is not None else 0)
            p = rng.uniform(-5.0, 5.0, size=2 * args.n)
        q = GroupElement(p, args.theta)
        report = codistribution_rank(q, tol=args.tol, depth=args.depth)
        dim = 2 * args.n + 1
        print(f"neighbors: {args.n}")
        print(f"codistribution rank: {report.rank} of {dim}")
        print("singular values: " + " ".join(f"{v:.3e}" for v in report.singular_values))
        print("observable: " + ("yes" if report.observable else "no"))
        return EXIT_OK if report.observable else EXIT_DEFICIENT
    except (ConfigError, ValueError) as exc:
        print(f"check-observability: {exc}", file=sys.stderr)
        return EXIT_USAGE


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
    p_chk.add_argument("--theta", type=float, default=0.0, help="heading (default 0)")
    p_chk.add_argument("--seed", type=int, help="seed for a random state when --p is omitted")
    p_chk.add_argument("--tol", type=float, default=1e-9, help="rank tolerance")
    p_chk.add_argument("--depth", type=int, default=1, help="derivative depth for the codistribution")
    p_chk.add_argument("--trajectory", help="CSV trajectory for the empirical gramian")
    p_chk.set_defaults(func=cmd_check_observability)

    p_rep = sub.add_parser("reproduce", help="run a preset and check its expected outcome")
    p_rep.add_argument("name", choices=sorted(EXPECTED_OUTCOME))
    p_rep.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or {DEFAULT_OUT_DIR})")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
