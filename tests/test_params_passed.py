"""Every defaulted parameter of a function under src/ is passed by some call
of the program, and its default is taken by another.

A parameter with a default that no call in the program ever passes only
ever takes that one value in use: it is a constant, not an option. A
default that every call overrides is never used: the parameter needs no
default, and the branch it selects has no caller. The program is src/ plus
trialbench/ without its tests (tests/conftest.py), so a parameter that only
tests pass, or a default that only tests take, does not count.

Calls are matched to callables by name: a function by its name, called
bare or as a module attribute; a class's `__init__` by the class name, the
same two ways; a method only by an attribute call (`obj.name(...)`), so a
module-level function of the same name cannot answer for it. A call passes
a parameter when it names it as a keyword, reaches its position with
positional arguments (a method's `self` or `cls` is bound by the call), or
spreads `*args` or `**kwargs`, which may carry anything; a call that
spreads may also leave it out, so it may take the default too.
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
    """Called name -> list of (attribute call, positional count before any
    `*` spread, keyword names, spreads) per call."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        attribute = isinstance(func, ast.Attribute)
        name = func.attr if attribute else getattr(func, "id", None)
        if name is None:
            continue
        starred = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
        spreads = bool(starred) or any(k.arg is None for k in node.keywords)
        out.setdefault(name, []).append(
            (attribute, (starred or [len(node.args)])[0], {k.arg for k in node.keywords if k.arg},
             spreads))
    return out


def idle_defaults(source: str, called: dict) -> list:
    """Defaulted parameters that no call passes, and those that every call passes."""
    idle = []
    for name, method, param, position, line in defaulted_parameters(ast.parse(source)):
        sites = [(spreads, param in keywords or (position is not None and count > position))
                 for attribute, count, keywords, spreads in called.get(name, ())
                 if attribute or not method]
        if not any(spreads or passed for spreads, passed in sites):
            idle.append(f"{name}({param}) (line {line})")
        elif all(passed for _, passed in sites):
            idle.append(f"{name}({param}) (line {line}): every call passes it")
    return idle


def called_in(sources: dict) -> dict:
    merged = {}
    for text in sources.values():
        for name, sites in calls(ast.parse(text)).items():
            merged.setdefault(name, []).extend(sites)
    return merged


def test_every_defaulted_parameter_is_passed(src_module, program_sources):
    assert idle_defaults(program_sources[src_module], called_in(program_sources)) == []


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
              "f(0)\n"
              "K.s(1)\n"
              "K.s()\n"
              "K(0).m(1)\n"
              "K.make()\n"
              "g(**{})\n"
              "make(1)\n"
              "make()\n")
    tree = ast.parse(source)
    assert idle_defaults(source, calls(tree)) == [
        "f(c) (line 1)", "f(d) (line 1)", "K(y) (line 4)", "m(q) (line 6)",
        "make(r) (line 9)"]


def test_the_scan_reports_a_default_every_call_passes():
    """A call that spreads may leave the parameter out, so it may take the default."""
    source = ("def f(a, b=1, c=2, d=3, e=4):\n"
              "    pass\n"
              "class K:\n"
              "    def __init__(self, x=0):\n"
              "        pass\n"
              "    def m(self, y=0):\n"
              "        pass\n"
              "def m(y=0):\n"
              "    pass\n"
              "f(0, 1, c=2)\n"
              "f(0, 5, *rest)\n"
              "f(0, 2, c=3, d=4)\n"
              "K(1).m(y=2)\n"
              "m()\n"
              "m(y=1)\n")
    assert idle_defaults(source, calls(ast.parse(source))) == [
        "f(b) (line 1): every call passes it", "K(x) (line 4): every call passes it",
        "m(y) (line 6): every call passes it"]


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
        "tests/test_a.py": "def test_quiet():\n    Arm.draw(2, 0.0)\n    plan(0, 1)\n",
    }
    assert idle_defaults(sources["src/pkg/a.py"], called_in(program_of(sources))) == [
        "draw(noise) (line 3)", "plan(steps) (line 5): every call passes it"]
