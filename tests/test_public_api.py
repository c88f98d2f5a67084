"""Every function, method and class of the library is used by the program.

A name counts as used when some module of the library other than
`__init__.py`, or a file under `scripts/` or `perfbench/`, reads it outside
its own definition.  Code only tests call belongs in the tests.  An error
class other than the base one must also be caught by name somewhere in the
program, or nothing tells it apart from the base class, and a parameter
with a default must be passed by some call in the program.
"""

import ast
import inspect
import typing
from pathlib import Path

import destx

ROOT = Path(__file__).resolve().parent.parent


class _Reads(ast.NodeVisitor):
    """The names a module reads, as bare names or attributes, skipping the
    body of the function or class that defines each name."""

    def __init__(self):
        self.names = set()
        self._defining = []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name):
        if name not in self._defining:
            self.names.add(name)

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)


LIBRARY = sorted((ROOT / "src" / "destx").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


PROGRAM = (
    [p for p in LIBRARY if p.name != "__init__.py"]
    + sorted((ROOT / "scripts").glob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py"))
)


def _program_reads(program=PROGRAM):
    reads = _Reads()
    for path in program:
        reads.visit(_parse(path))
    return reads.names


def _definitions():
    """Every function, method and class defined in the library, nested
    ones included; dunders are called by the language, not read by name."""
    return {
        node.name
        for path in LIBRARY
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def test_every_export_is_used_by_the_program():
    exported = [
        name for name in destx.__all__
        if inspect.isfunction(getattr(destx, name)) or inspect.isclass(getattr(destx, name))
    ]
    assert len(exported) > 40
    assert sorted(set(exported) - _program_reads()) == []


def test_type_annotations_resolve():
    """Every annotation of an exported function, and of the methods of an
    exported class, names something its module can resolve."""
    exported = [getattr(destx, name) for name in destx.__all__]
    functions = [f for f in exported if inspect.isfunction(f)] + [
        f for cls in exported if inspect.isclass(cls) and cls.__module__.startswith("destx.")
        for f in vars(cls).values() if inspect.isfunction(getattr(f, "__func__", f))
    ]
    names = {f.__name__ for f in functions}
    assert {"verify", "replay", "synthesize", "realize_policy", "__init__"} <= names
    for f in functions:
        typing.get_type_hints(getattr(f, "__func__", f))


def test_every_definition_is_used_by_the_program():
    defined = _definitions()
    assert len(defined) > 100
    assert sorted(defined - _program_reads()) == []


def test_harness_only_definitions():
    """The library definitions that only the benchmark harness reads: they
    go once `perfbench/` no longer calls them, and no other may join them."""
    harness = [p for p in PROGRAM if p.parent.name == "perfbench"]
    assert harness
    outside = _program_reads([p for p in PROGRAM if p not in harness])
    assert sorted(_definitions() - outside) == [
        "build_parser", "check_estimate_agreement", "check_property_satisfaction", "prune_violating",
    ]


def test_every_error_class_is_caught_by_the_program():
    # the names in the `except` clauses of the program, bare or dotted,
    # alone or in a tuple
    caught = set()
    for path in PROGRAM:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for name in ast.walk(node.type):
                    if isinstance(name, (ast.Name, ast.Attribute)):
                        caught.add(name.id if isinstance(name, ast.Name) else name.attr)
    errors = ROOT / "src" / "destx" / "errors.py"
    classes = {node.name for node in _parse(errors).body if isinstance(node, ast.ClassDef)}
    assert "DestxError" in classes and len(classes) > 1
    assert sorted(classes - {"DestxError"} - caught) == []


def _defaults(tree):
    """(name a call uses, parameter) -> the index among a call's positional
    arguments that passes the parameter, or None when only a keyword can,
    for every parameter with a default of every function in `tree`.  A
    method's bound first parameter takes no argument, and `__init__` is
    called by its class's name."""
    owner = {
        id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
        for f in c.body if isinstance(f, ast.FunctionDef)
    }
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        bound = id(node) in owner and not static
        name = owner[id(node)] if node.name == "__init__" and bound else node.name
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for k, arg in enumerate(positional[first:], start=first - bound):
            out[(name, arg.arg)] = k
        out.update(
            ((name, arg.arg), None)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None
        )
    return out


def test_every_default_is_passed_by_the_program():
    """A parameter with a default is a choice, and some call in the program
    must make it, by position or by keyword; a class call counts for its
    `__init__`.  `cli.main`'s `argv` is exempt: it is the in-process seam
    that callers outside the program use in place of the process's
    arguments."""
    defaults = {}
    for path in LIBRARY:
        defaults.update(_defaults(_parse(path)))
    assert len(defaults) > 10
    passed = set()
    for path in PROGRAM:
        for call in ast.walk(_parse(path)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = [k for k, a in enumerate(call.args) if isinstance(a, ast.Starred)]
            positions = starred[0] + 10**6 if starred else len(call.args)
            keywords = {k.arg for k in call.keywords}
            for (function, param), k in defaults.items():
                if function == name and (param in keywords or None in keywords or k is not None and k < positions):
                    passed.add((function, param))
    assert sorted(set(defaults) - passed - {("main", "argv")}) == []
