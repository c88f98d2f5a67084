"""Every function, method and class of the library is used by the program.

A name counts as used when some module of the library other than
`__init__.py`, or a file under `scripts/` or `perfbench/`, reads it outside
its own definition.  Code only tests call belongs in the tests.  An error
class other than the base one must also be caught by name somewhere in the
program, or nothing tells it apart from the base class.
"""

import ast
import inspect
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


def _program_reads():
    reads = _Reads()
    for path in PROGRAM:
        reads.visit(_parse(path))
    return reads.names


def test_every_export_is_used_by_the_program():
    exported = [
        name for name in destx.__all__
        if inspect.isfunction(getattr(destx, name)) or inspect.isclass(getattr(destx, name))
    ]
    assert len(exported) > 40
    assert sorted(set(exported) - _program_reads()) == []


def test_every_definition_is_used_by_the_program():
    # every function, method and class defined in the library, nested ones
    # included; dunders are called by the language, not read by name
    defined = {
        node.name
        for path in LIBRARY
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    assert len(defined) > 100
    assert sorted(defined - _program_reads()) == []


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
