"""Every module under src/ is imported by program code.

A module counts as reached when some program module that is not a package
`__init__` imports it: by `import`, by `from ... import`, through a name
that a package `__init__` re-exports from it, or by passing its dotted name
as a string literal to `importlib.import_module`. Package `__init__`
modules are not checked, and their own imports reach nothing: a module that
only its package exports has no caller. The program is src/ plus
trialbench/ without its tests (tests/conftest.py).
"""

import ast
from pathlib import Path


def module_of(path: str) -> tuple:
    """Dotted name of the module at a repo-relative path, and whether it is a
    package `__init__`; modules outside src/ are named by their file stem."""
    parts = Path(path).with_suffix("").parts
    parts = parts[1:] if parts[0] == "src" else parts[-1:]
    is_package = parts[-1] == "__init__"
    return ".".join(parts[:-1] if is_package else parts), is_package


def absolute(name: str, is_package: bool, node: ast.ImportFrom) -> str:
    """Module named by a `from` import, with a relative one resolved."""
    if node.level == 0:
        return node.module
    parts = name.split(".")
    parts = parts[:len(parts) - node.level + (1 if is_package else 0)]
    return ".".join(parts + ([node.module] if node.module else []))


def imports(name: str, is_package: bool, tree: ast.Module):
    """(module, imported name) of every import in the tree; the name is None
    for `import m` and for a string given to importlib.import_module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = absolute(name, is_package, node)
            for alias in node.names:
                yield base, alias.name
        elif (isinstance(node, ast.Call) and node.args
              and ast.unparse(node.func) in ("importlib.import_module", "import_module")
              and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)):
            yield node.args[0].value, None


def reached_module(module: str, name, exports: dict, known: set) -> str:
    """Module that importing `name` from `module` reaches, following the
    re-exports of package `__init__`s to the module that defines the name."""
    seen = set()
    while name is not None and (module, name) not in seen:
        seen.add((module, name))
        if f"{module}.{name}" in known:
            return f"{module}.{name}"
        if name not in exports.get(module, {}):
            break
        module, name = exports[module][name]
    return module


def unreached_modules(sources: dict) -> list:
    """Modules under src/, package `__init__`s aside, that no other module of
    `sources` imports. `sources` maps repo-relative paths of the program's
    modules to their source text."""
    parsed = {path: (*module_of(path), ast.parse(text)) for path, text in sources.items()}
    known = {name for path, (name, _, _) in parsed.items() if path.startswith("src/")}
    exports = {}
    for name, is_package, tree in parsed.values():
        if is_package:
            for node in tree.body:
                if isinstance(node, ast.ImportFrom):
                    base = absolute(name, True, node)
                    exports.setdefault(name, {}).update(
                        (alias.asname or alias.name, (base, alias.name)) for alias in node.names)
    reached = set()
    for path, (name, is_package, tree) in parsed.items():
        if not is_package:
            reached |= {reached_module(module, imported, exports, known)
                        for module, imported in imports(name, is_package, tree)} - {name}
    modules = {name for path, (name, is_package, _) in parsed.items()
               if path.startswith("src/") and not is_package}
    return sorted(modules - reached)


def test_every_module_has_a_caller(program_sources):
    assert unreached_modules(program_sources) == []


def test_the_scan_reports_a_module_without_a_caller(program_of):
    sources = {
        "src/pkg/__init__.py": "from pkg.a import A\nfrom pkg import c\nfrom . import d\n",
        "src/pkg/a.py": "from .e import f\nA = f\n",
        "src/pkg/b.py": "",
        "src/pkg/c.py": "",
        "src/pkg/d.py": "",
        "src/pkg/e.py": "def f():\n    pass\n",
        "src/pkg/sub/__init__.py": "from pkg.sub.g import G\n",
        "src/pkg/sub/g.py": "G = 1\n",
        "trialbench/run.py": ("import importlib\n"
                              "from pkg import A\n"
                              "from pkg.sub import G\n"
                              "def main():\n"
                              "    return importlib.import_module('pkg.b')\n"),
        "trialbench/test_run.py": "import pkg.d\n",
    }
    assert unreached_modules(program_of(sources)) == ["pkg.c", "pkg.d"]
