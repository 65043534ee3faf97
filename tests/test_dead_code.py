"""Every module-level function and class in ``src/qumimo`` has a caller
in ``src/``.  Helpers that only tests use belong in the test tree
(``tests/reference_ops.py``, ``tests/cloner_oracle.py``)."""

import ast
from pathlib import Path

import qumimo

SRC = Path(qumimo.__file__).resolve().parent

# Not called yet; run telemetry (ROADMAP item 5) is to wire it in.
WAITING = {("sdp", "verify")}


def _definitions_and_references():
    """Module-level (module, name) definitions, and the (module, name)
    pairs that code in the package refers to.  A reference is a bare name
    (resolved through ``from .module import name``) or an attribute of a
    module bound by ``from . import module``; a re-export from
    ``__init__.py`` alone is not a caller."""
    defs, refs = set(), set()
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text())
        defs |= {
            (mod, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        names, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[local] = alias.name
                    else:
                        names[local] = (node.module, alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(names.get(node.id, (mod, node.id)))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                refs.add((modules[node.value.id], node.attr))
    return defs, refs


def test_no_unreferenced_definitions():
    defs, refs = _definitions_and_references()
    unreferenced = sorted(f"{m}.{n}" for m, n in defs - refs - WAITING)
    assert not unreferenced, f"defined in src/qumimo but called nowhere in src/: {unreferenced}"


def test_waiting_list_is_current():
    defs, refs = _definitions_and_references()
    assert WAITING <= defs
    assert not WAITING & refs, "a waiting helper now has a caller; drop it from WAITING"
