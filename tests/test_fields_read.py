"""Every field of a dataclass under src/ is read somewhere in src/, tests/ or trialbench/.

A field counts as read when some module loads an attribute of that name
(`obj.field`). Validation by `getattr(self, "field")` does not count: a field
that is only checked is still never used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "trialbench") for p in (ROOT / d).rglob("*.py"))
DATACLASS_MODULES = sorted((ROOT / "src").rglob("*.py"))


def is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def dataclass_fields(tree: ast.Module) -> list:
    """(class name, field name, line) of each field of each dataclass in the module."""
    fields = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and is_dataclass(cls):
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    fields.append((cls.name, stmt.target.id, stmt.lineno))
    return fields


def read_attributes(tree: ast.Module) -> set:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(source: str, read: set) -> list:
    return [f"{cls}.{name} (line {line})" for cls, name, line in dataclass_fields(ast.parse(source))
            if name not in read]


@pytest.fixture(scope="module")
def read_anywhere() -> set:
    return set().union(*(read_attributes(ast.parse(p.read_text())) for p in SOURCES))


@pytest.mark.parametrize("path", DATACLASS_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_dataclass_field_is_read(path, read_anywhere):
    assert unread_fields(path.read_text(), read_anywhere) == []


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
