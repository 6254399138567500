"""Every top-level import of a module under src/ and tests/ is used by that module.

A name counts as used when the module reads it anywhere (a bare name, or the
root of an attribute chain) or lists it in `__all__`; `__future__` imports
are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each top-level import statement -> its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def read_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = read_names(tree) | exported_names(tree)
    return sorted(f"{name} (line {line})" for name, line in imported_names(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_reports_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from numpy import linalg, ndarray as Array\n"
              "from pathlib import Path\n"
              "__all__ = ['Path']\n"
              "def f(x: Array) -> None:\n"
              "    return os.path.join(x)\n")
    assert unused_imports(source) == ["linalg (line 3)", "system (line 2)"]
