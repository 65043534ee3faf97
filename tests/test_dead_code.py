"""Every module-level function, class and UPPER_CASE constant in
``src/qumimo`` has a caller in ``src/``, and every dataclass field is read
there, or is listed with the file outside it that calls or reads it.
Helpers and constants that only tests use belong in the test tree
(``tests/reference_ops.py``, ``tests/cloner_oracle.py``)."""

import ast
import importlib
from pathlib import Path

import qumimo

SRC = Path(qumimo.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# Called from outside src/ only, by the named file: the benchmark's
# gamma_scan_m4 workload scores fresh asymmetry points through it.
# ``run_strategy``, ``purification_sdp`` and ``solve`` are the one-job forms
# of ``run_strategies``, ``purification_sdps`` and ``solve_many`` (``solve``
# takes one problem's blocks and rhs, without a stack axis): the tests and
# the benchmark's workload call them, and the benchmark's tracer wraps them
# until it wraps the stacked forms (ROADMAP item 1).
EXTERNAL = {
    ("decoder", "evaluate_gamma_surrogate"): "perfbench/workload.py",
    ("decoder", "purification_sdp"): "perfbench/workload.py",
    ("sdp", "solve"): "tests/test_sdp.py",
    ("strategies", "run_strategy"): "tests/test_strategies.py",
}

# Dataclass fields read outside src/ only, by the named file.
EXTERNAL_FIELDS = {
    ("sdp", "SdpSolution", "y"): "tests/test_sdp.py",
    ("sdp", "SdpSolution", "dual_value"): "tests/test_sdp.py",
    ("sdp", "SdpSolution", "iterations"): "perfbench/tracer.py",
}


def _definitions_and_references():
    """Module-level (module, name) definitions, and the (module, name)
    pairs that code in the package refers to.  A definition is a function,
    a class or an UPPER_CASE name assigned at module level.  A reference is
    a bare name read in Load context (resolved through ``from .module
    import name``), so a constant's own assignment is not one, or an
    attribute of a module bound by ``from . import module``; a re-export
    from ``__init__.py`` alone is not a caller."""
    defs, refs = set(), set()
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text())
        defs |= {
            (mod, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        defs |= {
            (mod, target.id) for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name) and target.id.isupper()
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
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(names.get(node.id, (mod, node.id)))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                refs.add((modules[node.value.id], node.attr))
    return defs, refs


def test_no_unreferenced_definitions():
    defs, refs = _definitions_and_references()
    unreferenced = sorted(f"{m}.{n}" for m, n in defs - refs - EXTERNAL.keys())
    assert not unreferenced, f"defined in src/qumimo but called nowhere in src/: {unreferenced}"


def test_external_list_is_current():
    defs, refs = _definitions_and_references()
    for (mod, name), caller in EXTERNAL.items():
        assert (mod, name) in defs
        assert (mod, name) not in refs, f"{mod}.{name} now has a caller in src/; drop it from EXTERNAL"
        tree = ast.parse((ROOT / caller).read_text())
        assert any(
            isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id == mod
            for node in ast.walk(tree)
        ), f"{caller} no longer calls {mod}.{name}; drop it from EXTERNAL"


def test_tracer_targets_resolve():
    """Every ``(layer, attr)`` the benchmark's tracer wraps is a callable of
    ``qumimo.<layer>``: the tracer skips a missing target, and its metrics
    would then read 0 without a word."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    [targets] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)]
    pairs = ast.literal_eval(targets)
    assert pairs
    missing = [f"{layer}.{attr}" for layer, attr in pairs
               if not callable(getattr(importlib.import_module(f"qumimo.{layer}"), attr, None))]
    assert not missing, f"tracer targets missing from qumimo: {missing}"


def test_workload_references_resolve():
    """Every ``channel.X``, ``cloner.X`` and ``decoder.X`` the benchmark's
    workload reads is an attribute of that ``qumimo`` module: a rename
    there would fail every benchmark run while the package tests pass."""
    tree = ast.parse((ROOT / "perfbench" / "workload.py").read_text())
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("channel", "cloner", "decoder")}
    assert {mod for mod, _ in read} == {"channel", "cloner", "decoder"}
    missing = sorted(f"{mod}.{attr}" for mod, attr in read
                     if not hasattr(importlib.import_module(f"qumimo.{mod}"), attr))
    assert not missing, f"perfbench/workload.py reads names missing from qumimo: {missing}"


def _attribute_reads(path) -> set:
    """Names read as an attribute (``x.name`` in Load context) in a file."""
    return {node.attr for node in ast.walk(ast.parse(Path(path).read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _dataclass_fields() -> set:
    """(module, class, field) for every annotated field of a module-level
    ``@dataclass`` class in the package."""
    fields = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            decorators = [d.func if isinstance(d, ast.Call) else d
                          for d in getattr(node, "decorator_list", ())]
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                fields |= {(path.stem, node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)}
    return fields


def _src_reads() -> set:
    return set().union(*(_attribute_reads(path) for path in SRC.glob("*.py")))


def test_dataclass_fields_are_read():
    """A field nothing reads is run context carried only to be passed on,
    or a result no caller wants.  The check goes by name: ``x.gap`` anywhere
    in ``src/`` counts as a read of every field called ``gap``."""
    reads = _src_reads()
    unread = sorted(".".join(key[1:]) for key in _dataclass_fields()
                    if key[2] not in reads and key not in EXTERNAL_FIELDS)
    assert not unread, f"dataclass fields read nowhere in src/: {unread}"


def test_field_lists_are_current():
    fields, reads = _dataclass_fields(), _src_reads()
    for key, reader in EXTERNAL_FIELDS.items():
        name = ".".join(key[1:])
        assert key in fields
        assert key[2] not in reads, f"{name} is now read in src/; drop it from EXTERNAL_FIELDS"
        assert key[2] in _attribute_reads(ROOT / reader), f"{reader} no longer reads {name}"
