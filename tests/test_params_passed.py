"""Every defaulted parameter of a function under src/ is passed by the program.

A parameter with a default that no call in the program ever passes only
ever takes that one value in use: it is a constant, not an option. The
program is src/ plus trialbench/ without its tests (tests/conftest.py), so a
parameter that only tests pass does not count as passed.

Calls are matched to callables by name: a function by its name, called
bare or as a module attribute; a class's `__init__` by the class name, the
same two ways; a method only by an attribute call (`obj.name(...)`), so a
module-level function of the same name cannot answer for it. A call passes
a parameter when it names it as a keyword, reaches its position with
positional arguments (a method's `self` or `cls` is bound by the call), or
spreads `*args` or `**kwargs`, which may carry anything.
"""

import ast


def defaulted_parameters(tree: ast.Module) -> list:
    """(callable name, is a method, parameter, position or None, line) of
    each parameter with a default; the callable of an `__init__` is its class."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(ast.unparse(d) == "staticmethod" for d in child.decorator_list)
                bound = 1 if cls is not None and not static else 0
                name = cls if child.name == "__init__" and cls is not None else child.name
                method = cls is not None and child.name != "__init__"
                args = child.args
                positional = args.posonlyargs + args.args
                first_default = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first_default:], first_default):
                    out.append((name, method, arg.arg, i - bound, arg.lineno))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((name, method, arg.arg, None, arg.lineno))
                visit(child, None)

    visit(tree, None)
    return out


def calls(tree: ast.Module) -> dict:
    """Called name -> list of (attribute call, positional count, keyword
    names, spreads) per call."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        attribute = isinstance(func, ast.Attribute)
        name = func.attr if attribute else getattr(func, "id", None)
        if name is None:
            continue
        spreads = any(isinstance(a, ast.Starred) for a in node.args) or \
            any(k.arg is None for k in node.keywords)
        out.setdefault(name, []).append(
            (attribute, len(node.args), {k.arg for k in node.keywords if k.arg}, spreads))
    return out


def unpassed_parameters(source: str, called: dict) -> list:
    unpassed = []
    for name, method, param, position, line in defaulted_parameters(ast.parse(source)):
        passed = any(
            (attribute or not method)
            and (spreads or param in keywords or (position is not None and count > position))
            for attribute, count, keywords, spreads in called.get(name, ()))
        if not passed:
            unpassed.append(f"{name}({param}) (line {line})")
    return unpassed


def called_in(sources: dict) -> dict:
    merged = {}
    for text in sources.values():
        for name, sites in calls(ast.parse(text)).items():
            merged.setdefault(name, []).extend(sites)
    return merged


def test_every_defaulted_parameter_is_passed(src_module, program_sources):
    assert unpassed_parameters(program_sources[src_module], called_in(program_sources)) == []


def test_the_scan_reports_an_unpassed_parameter():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n"
              "    return a + b + c + d + e\n"
              "class K:\n"
              "    def __init__(self, x, y=0):\n"
              "        self.m(x)\n"
              "    def m(self, p, q=None):\n"
              "        pass\n"
              "    @classmethod\n"
              "    def make(cls, r=1):\n"
              "        return cls(r)\n"
              "    @staticmethod\n"
              "    def s(u=0):\n"
              "        pass\n"
              "def g(h=0):\n"
              "    pass\n"
              "def make(v=0):\n"
              "    pass\n"
              "f(0, 1, e=5)\n"
              "K.s(1)\n"
              "K(0).m(1)\n"
              "K.make()\n"
              "g(**{})\n"
              "make(1)\n")
    tree = ast.parse(source)
    assert unpassed_parameters(source, calls(tree)) == [
        "f(c) (line 1)", "f(d) (line 1)", "K(y) (line 4)", "m(q) (line 6)",
        "make(r) (line 9)"]


def test_the_scan_counts_program_callers_only(program_of):
    sources = {
        "src/pkg/a.py": ("class Arm:\n"
                         "    @classmethod\n"
                         "    def draw(cls, seed, noise=0.1):\n"
                         "        return cls()\n"
                         "def plan(a, b, steps=10):\n"
                         "    pass\n"),
        "trialbench/run.py": "def run(a, b):\n    Arm.draw(1)\n    plan(a, b, 25)\n",
        "trialbench/test_run.py": "def test_draw():\n    Arm.draw(1, noise=0.0)\n",
        "tests/test_a.py": "def test_quiet():\n    Arm.draw(2, 0.0)\n",
    }
    assert unpassed_parameters(sources["src/pkg/a.py"], called_in(program_of(sources))) == [
        "draw(noise) (line 3)"]
