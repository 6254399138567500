"""Every field of a dataclass or NamedTuple under src/ is read by the program.

The program is src/ plus trialbench/ without its tests (tests/conftest.py):
a field that only tests read has no use. A field counts as read when some
program module loads an attribute of that name (`obj.field`). Two reads do
not count: validation by `getattr(self, "field")`, and a class reading its
own fields (`self.field`) in `__post_init__`. A field that is only checked
is still never used.
"""

import ast


def decorator_or_base_names(node: ast.ClassDef) -> set:
    names = set()
    for expr in node.decorator_list + node.bases:
        target = expr.func if isinstance(expr, ast.Call) else expr
        names.add(target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None))
    return names


def record_fields(tree: ast.Module) -> list:
    """(class name, field name, line) of each field of each dataclass and
    NamedTuple in the module."""
    fields = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and decorator_or_base_names(cls) & {"dataclass", "NamedTuple"}:
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    fields.append((cls.name, stmt.target.id, stmt.lineno))
    return fields


def read_attributes(tree: ast.Module) -> set:
    """Attribute names the module loads, less a `__post_init__`'s loads of its own `self.x`."""
    own_checks = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__" and fn.args.args:
            me = fn.args.args[0].arg
            own_checks |= {id(node) for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                           and isinstance(node.value, ast.Name) and node.value.id == me}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in own_checks}


def read_in(sources: dict) -> set:
    return set().union(*(read_attributes(ast.parse(text)) for text in sources.values()))


def unread_fields(source: str, read: set) -> list:
    return [f"{cls}.{name} (line {line})" for cls, name, line in record_fields(ast.parse(source))
            if name not in read]


def test_every_dataclass_field_is_read(src_module, program_sources):
    assert unread_fields(program_sources[src_module], read_in(program_sources)) == []


def test_the_scan_reports_an_unread_field():
    source = ("import dataclasses\n"
              "from dataclasses import dataclass\n"
              "from typing import ClassVar\n"
              "@dataclass(frozen=True)\n"
              "class A:\n"
              "    used: float\n"
              "    checked: float = 1.0\n"
              "    shared: ClassVar[int] = 0\n"
              "    def __post_init__(self):\n"
              "        if getattr(self, 'checked') <= 0:\n"
              "            raise ValueError\n"
              "@dataclasses.dataclass\n"
              "class B:\n"
              "    spare: int\n"
              "class C:\n"
              "    plain: int\n"
              "def f(a):\n"
              "    a.spare = 1\n"
              "    return a.used\n")
    tree = ast.parse(source)
    assert unread_fields(source, read_attributes(tree)) == ["A.checked (line 7)",
                                                            "B.spare (line 14)"]


def test_the_scan_counts_program_readers_only(program_of):
    """A NamedTuple's fields are checked too; reads in tests and a class's
    reads of its own fields in `__post_init__` do not count."""
    sources = {
        "src/pkg/a.py": ("import typing\n"
                         "from dataclasses import dataclass\n"
                         "@dataclass(frozen=True)\n"
                         "class Span:\n"
                         "    lo: float\n"
                         "    hi: float\n"
                         "    stamps: tuple\n"
                         "    def __post_init__(self):\n"
                         "        if not self.lo < self.hi or len(self.stamps) < 2:\n"
                         "            raise ValueError(self)\n"
                         "class Fit(typing.NamedTuple):\n"
                         "    error: float\n"
                         "    history: tuple\n"),
        "trialbench/run.py": "def width(s, fit):\n    return (s.hi - s.lo) * fit.error\n",
        "trialbench/test_run.py": "def test_stamps(s):\n    assert s.stamps\n",
        "tests/test_a.py": "def test_history(fit):\n    assert fit.history\n",
    }
    assert unread_fields(sources["src/pkg/a.py"], read_in(program_of(sources))) == [
        "Span.stamps (line 7)", "Fit.history (line 13)"]
