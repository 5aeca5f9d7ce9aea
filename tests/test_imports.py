"""Every name a `formloc` module imports is read somewhere in that module,
and every name a `formloc` module defines is read somewhere in the repo.
The scenario side (`formloc.scenario`) imports nothing from the engine
(`formloc.sim`) and no private name crosses between the two.  Every name a
module's `__all__` lists is defined in that module, so no module re-exports
another's names, and the package's scenario names are `formloc.scenario`'s.
The stacked kinematics have one home, `formloc.lie_group`: the Gramian
(`formloc.observability`) imports nothing from the filters
(`formloc.estimator`), and the filters take their rotations from it.  A
world carries its config, so no function of the engine takes a `config`
parameter beside a `world` one.  A run's result carries its config too,
so no function of `src/` takes what that config holds (thresholds, desired
distances, edge labels) or the one metrics file name as a parameter, and
`write_manifest` takes no config.

No linter runs with the tests, so these AST scans are what catch an import
or a definition left behind when the code that used it moved or went away.
A name listed in an `__all__` counts as read (a re-export or the public
surface); `from __future__` imports and dunder names are exempt.  A second
scan leaves the tests and the `__all__` lists out: what `src/` defines for
the tests alone is the paper's math they use as oracles, nothing else.
"""

import ast
import importlib
import warnings
from pathlib import Path

import pytest

import formloc.scenario
import formloc.sim

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "formloc"
# every directory whose code may read a name that `formloc` defines
READERS = ("src", "tests", "scripts", "perfbench")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:  # built from other lists, whose literals name the names
                return set()
    return set()


def unused_imports(source: str) -> list[str]:
    """'name (line N)' for each imported name that `source` never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":  # re-exports a module's `__all__`: no one name to read
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= _exported(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def unread_definitions(modules: dict[str, str], readers: list[str],
                       exports_read: bool = True) -> list[str]:
    """'module: name (line N)' for each module-level function, class or
    assigned name of `modules` (name -> source) that no source in `readers`
    loads, as a bare name or as an attribute, and, if `exports_read`, no
    `__all__` lists."""
    read = set()
    for source in readers:
        tree = ast.parse(source)
        if exports_read:
            read |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for module, source in modules.items():
        unread += [f"{module}: {name} (line {line})" for name, line in _definitions(ast.parse(source))
                   if name not in read and not (name.startswith("__") and name.endswith("__"))]
    return unread


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each module-level function, class or assigned name."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(n.id, node.lineno) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return found


def test_scan_flags_what_is_never_read():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from math import pi, tau\n"
              "from .x import Exported\n"
              "__all__ = ['Exported']\n"
              "print(np.zeros(1), pi)\n")
    assert unused_imports(source) == ["os (line 2)", "tau (line 4)"]


def test_scan_skips_a_star_import():
    # `from .x import *` binds the names of `x.__all__`: no one name whose
    # read could be checked, so only `__init__.py` may use it (below)
    source = ("from . import x\n"
              "from .x import *\n"
              "from .y import unused\n"
              "__all__ = [*x.__all__]\n")
    assert unused_imports(source) == ["unused (line 3)"]


def star_imports(source: str) -> list[int]:
    """The line of each `from ... import *` in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names)]


def test_star_scan_sees_every_star():
    source = ("from .x import *\n"
              "from .y import a, b\n"
              "def f():\n    from .z import *\n")
    assert star_imports(source) == [1, 4]


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}),
                         ids=lambda p: p.name)
def test_only_the_package_imports_a_star(path):
    # the import scan skips a star import, so none may hide anywhere else
    assert star_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_definition_scan_flags_what_is_never_read():
    module = ("__all__ = ['Public']\n"
              "LIMIT = 3\n"
              "LABELS: tuple = ()\n"
              "class Public: pass\n"
              "def _helper(): return LIMIT\n"
              "def _attr_only(): pass\n"
              "def _dead(): pass\n")
    reader = ("from m import _dead\n"  # an import alone does not read a name
              "import m\n"
              "m._attr_only()\n"
              "m._helper()\n")
    assert unread_definitions({"m": module}, [module, reader]) == [
        "m: LABELS (line 3)", "m: _dead (line 7)"]


def test_every_definition_is_read():
    sources = [path.read_text() for top in READERS for path in sorted((ROOT / top).rglob("*.py"))]
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_definitions(modules, sources) == []


def test_definition_scan_can_ignore_exports():
    module = ("__all__ = ['Public', 'listed_only']\n"
              "class Public: pass\n"
              "def listed_only(): pass\n")
    reader = "import m\nm.Public()\n"
    assert unread_definitions({"m": module}, [module, reader]) == []
    assert unread_definitions({"m": module}, [module, reader], exports_read=False) == [
        "m: listed_only (line 3)"]


# the paper's math that only the tests read, as oracles for the closed forms
# the engine and the observability checks use
TEST_ORACLES = (
    "controller.py: formation_potential",
    "lie_group.py: identity",
    "lie_group.py: inverse",
    "lie_group.py: step_body_velocity",
    "lie_group.py: step_jacobian",
    "network.py: rigidity_matrix",
    "observability.py: observation",
    "observability.py: observation_jacobian",
)


def test_src_keeps_no_test_only_helpers():
    # a definition that only the tests read, and that is not the paper's
    # math, belongs in tests/; being public does not count as a read here
    sources = [path.read_text() for top in READERS if top != "tests"
               for path in sorted((ROOT / top).rglob("*.py"))]
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unread = unread_definitions(modules, sources, exports_read=False)
    assert [entry.split(" (line")[0] for entry in unread] == list(TEST_ORACLES)


def imported_from(source: str, module: str) -> list[str]:
    """The names that `source`, a module of `formloc`, imports from its
    sibling `module`; '*' stands for the module itself (`from . import sim`,
    `import formloc.sim`)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            target = "." * node.level + (node.module or "")
            if target in (f".{module}", f"formloc.{module}"):
                names += [alias.name for alias in node.names]
            elif target in (".", "formloc"):
                names += ["*" for alias in node.names if alias.name == module]
        elif isinstance(node, ast.Import):
            names += ["*" for alias in node.names if alias.name == f"formloc.{module}"]
    return names


def test_import_scan_sees_every_form():
    source = ("from .sim import run, _layout\n"
              "from . import sim, network\n"
              "import formloc.sim\n"
              "from formloc.sim import _move\n"
              "from .simulate import run\n")
    assert imported_from(source, "sim") == ["run", "_layout", "*", "*", "_move"]


def private_formloc_imports(source: str) -> list[str]:
    """'formloc.module.name (line N)' for each name that `source` imports
    from `formloc` and that has a `_`-prefixed part; dunders are public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] == "formloc" and any(
                      part.startswith("_") and not part.endswith("__") for part in name.split("."))]
    return found


def test_private_import_scan_sees_every_form():
    source = ("from formloc.cli import SCENARIOS, _run_and_save\n"
              "from formloc import cli, _hidden\n"
              "import formloc._impl, numpy\n"
              "from formloc._impl import run\n"
              "from numpy import _core\n"
              "from formloc import __version__\n")
    assert private_formloc_imports(source) == [
        "formloc.cli._run_and_save (line 1)", "formloc._hidden (line 2)",
        "formloc._impl (line 3)", "formloc._impl.run (line 4)"]


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_script_imports_only_public_formloc_names(path):
    # a script that needs a private name re-implements part of the package
    assert private_formloc_imports(path.read_text()) == []


def test_scenario_imports_nothing_from_the_engine():
    assert imported_from((SRC / "scenario.py").read_text(), "sim") == []


def test_the_gramian_reads_the_group_layer_not_the_filters():
    source = (SRC / "observability.py").read_text()
    assert imported_from(source, "estimator") == []
    assert {"_quarter_rotations", "_step_jacobian_columns"} <= set(imported_from(source, "lie_group"))


# the stacked kinematics: one builder of each, in `lie_group`
KINEMATICS = {"rotation", "_rotations", "_quarter_rotations", "_step_jacobian_columns"}


@pytest.mark.parametrize("reader, names", [
    ("sim.py", {"rotation", "_quarter_rotations"}),
    ("estimator.py", {"_step_jacobian_columns"}),
])
def test_the_filters_take_their_rotations_from_the_group_layer(reader, names):
    source = (SRC / reader).read_text()
    assert names <= set(imported_from(source, "lie_group"))
    assert KINEMATICS & {name for name, _ in _definitions(ast.parse(source))} == set()


def paired_with_a_world(source: str) -> list[str]:
    """The functions of `source`, methods and nested ones too, whose
    parameters include both `world` and `config`."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and {"world", "config"} <= {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}]


def test_pairing_scan_sees_every_parameter_kind():
    source = ("def a(world, config): pass\n"
              "def b(world, *, config=None): pass\n"
              "def c(config, seeds=None): pass\n"
              "class W:\n    def d(self, world, law): pass\n"
              "def e(world):\n    def f(config, *world): pass\n")
    assert paired_with_a_world(source) == ["a", "b", "f"]


def test_no_engine_phase_takes_a_config_beside_the_world():
    # a world carries the config it was built from (`WorldState.config`),
    # and its layout that config's filter constants; a config passed beside
    # it could disagree with both
    assert paired_with_a_world((SRC / "sim.py").read_text()) == []


def parameters_named(source: str, names: set[str]) -> list[str]:
    """'function.parameter' for each parameter of a function of `source`,
    methods, nested functions and lambdas too, whose name is in `names`."""
    return [f"{getattr(node, 'name', '<lambda>')}.{a.arg}" for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for a in ast.walk(node.args) if isinstance(a, ast.arg) and a.arg in names]


def test_parameter_scan_sees_every_parameter_kind():
    source = ("def a(thresholds, /, x): pass\n"
              "def b(x, *, desired=None): pass\n"
              "async def c(*edge_labels, **metrics_name): pass\n"
              "class S:\n    def d(self, series): pass\n"
              "def e(x):\n    def f(thresholds=1): pass\n"
              "g = lambda desired: desired\n"
              "h = thresholds = desired = None\n")
    assert parameters_named(source, {"thresholds", "desired", "edge_labels", "metrics_name"}) == [
        "a.thresholds", "b.desired", "c.edge_labels", "c.metrics_name", "f.thresholds",
        "<lambda>.desired"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_takes_what_a_result_carries(path):
    # `MetricsSeries.config` and `OutcomeSummary.config` hold the graph, the
    # desired distances and the thresholds of the run; a parameter beside
    # the result could disagree with them, and a default could stand in for
    # them silently
    assert parameters_named(path.read_text(), {"thresholds", "desired", "edge_labels",
                                               "metrics_name"}) == []


def test_write_manifest_takes_no_config():
    # the manifest echoes the config the series carries
    assert [name for name in parameters_named((SRC / "cli.py").read_text(), {"config"})
            if name.startswith("write_manifest.")] == []


@pytest.mark.parametrize("reader, module", [("sim.py", "scenario"), ("scenario.py", "sim")])
def test_no_private_name_crosses_the_split(reader, module):
    names = imported_from((SRC / reader).read_text(), module)
    assert [name for name in names if name.startswith("_")] == []


def undefined_exports(source: str) -> list[str]:
    """The names the `__all__` of `source` lists that it does not define."""
    tree = ast.parse(source)
    defined = {name for name, _ in _definitions(tree)}
    return sorted(_exported(tree) - defined)


def test_export_scan_flags_a_re_export():
    source = ("from .x import Borrowed\n"
              "__all__ = ['Borrowed', 'Own', 'LIMIT']\n"
              "LIMIT = 3\n"
              "class Own: pass\n")
    assert undefined_exports(source) == ["Borrowed"]


def test_export_scan_reads_no_names_from_a_built_list():
    # a list built from other modules' lists names nothing itself; each name
    # it holds is read in the literal `__all__` of the module that defines it
    source = ("from . import x\n"
              "from .x import *\n"
              "__all__ = [*x.__all__, '__version__']\n")
    assert _exported(ast.parse(source)) == set()
    assert undefined_exports(source) == []


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}),
                         ids=lambda p: p.name)
def test_module_exports_only_its_own_names(path):
    assert undefined_exports(path.read_text()) == []


SIM_EXPORTS = ("DivergenceError", "WorldState", "init_world", "run")


def test_sim_exports_are_listed():
    assert sorted(formloc.sim.__all__) == sorted(SIM_EXPORTS)


@pytest.mark.parametrize("module, name", [("formloc.sim", n) for n in SIM_EXPORTS])
def test_sim_export_is_one_object(module, name):
    obj = getattr(importlib.import_module(module), name)
    assert obj.__module__ == module
    assert getattr(formloc, name) is obj


@pytest.mark.parametrize("name", [n for n in formloc.scenario.__all__ if n in formloc.__all__])
def test_package_name_is_the_scenario_object(name):
    obj = getattr(formloc.scenario, name)
    assert obj.__module__ == "formloc.scenario"
    assert getattr(formloc, name) is obj


# the modules whose names the package re-exports
PACKAGE_MODULES = ("controller", "estimator", "lie_group", "network", "observability", "scenario",
                   "sim")


def test_package_surface_is_the_union_of_the_module_surfaces():
    modules = [importlib.import_module(f"formloc.{name}") for name in PACKAGE_MODULES]
    listed = [name for module in modules for name in module.__all__]
    assert len(listed) == len(set(listed)), "a name is public in two modules"
    assert sorted(formloc.__all__) == sorted(listed + ["__version__"])
    for module in modules:
        for name in module.__all__:
            assert getattr(formloc, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_version_is_declared_once():
    # `pyproject.toml` reads the version from the package, statically
    pytest.importorskip("setuptools")
    from setuptools.config.pyprojecttoml import read_configuration
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools' "beta" note on `[tool.setuptools]`
        project = read_configuration(ROOT / "pyproject.toml")["project"]
    assert project["version"] == formloc.__version__
