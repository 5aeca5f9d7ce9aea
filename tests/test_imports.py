"""Every name a `formloc` module imports is read somewhere in that module,
and every name a `formloc` module defines is read somewhere in the repo.

No linter runs with the tests, so these AST scans are what catch an import
or a definition left behind when the code that used it moved or went away.
A name listed in an `__all__` counts as read (a re-export or the public
surface); `from __future__` imports and dunder names are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "formloc"
# every directory whose code may read a name that `formloc` defines
READERS = ("src", "tests", "scripts", "perfbench")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
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
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= _exported(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """'module: name (line N)' for each module-level function, class or
    assigned name of `modules` (name -> source) that no source in `readers`
    loads, as a bare name or as an attribute, and no `__all__` lists."""
    read = set()
    for source in readers:
        tree = ast.parse(source)
        read |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}: {name} (line {node.lineno})" for name in names
                       if name not in read and not (name.startswith("__") and name.endswith("__"))]
    return unread


def test_scan_flags_what_is_never_read():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from math import pi, tau\n"
              "from .x import Exported\n"
              "__all__ = ['Exported']\n"
              "print(np.zeros(1), pi)\n")
    assert unused_imports(source) == ["os (line 2)", "tau (line 4)"]


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
