"""Every public module-level function and class has a caller.

A capability that only its own tests run is code to document, test and
keep working for no user.  This scans the module-level public functions
and classes under ``src/repro`` (``__init__.py`` re-exports excluded)
and requires each name to be referenced — as a ``Name``, an
``Attribute`` or an ``ImportFrom`` — outside its own definition, in a
non-``__init__`` file under ``src/repro``, ``benchmarks``, ``examples``
or ``scripts``.  Tests do not count as callers.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE_ROOT = ROOT / "src" / "repro"
CALLER_ROOTS = [SOURCE_ROOT, ROOT / "benchmarks", ROOT / "examples",
                ROOT / "scripts"]

# Public names with no caller in the program, each kept on purpose.
ALLOWED_UNREFERENCED = {
    "chaos_realistic_nand_config_factory":
        "test support: the chaos determinism tests build realistic-NAND "
        "devices with it",
    "assert_oracles":
        "test support: the chaos property test raises every oracle "
        "verdict through it",
    "extract_records":
        "test support: the WAL and recovery tests compare decoded "
        "records against it",
    "stage_coverage":
        "test support: the checker tests confirm the probe exercised "
        "every pipeline stage",
}


def _modules(root):
    return sorted(path for path in root.rglob("*.py")
                  if path.name != "__init__.py")


def _names(node):
    """Every name ``node`` refers to by ``Name``, ``Attribute`` or
    ``ImportFrom``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.ImportFrom):
            for alias in child.names:
                yield alias.name


def _unreferenced():
    """``(path, name)`` of each public definition with no caller."""
    definitions = []
    callers = {}  # name -> {(path, enclosing top-level definition)}
    for root in CALLER_ROOTS:
        for path in _modules(root):
            tree = ast.parse(path.read_text(), filename=str(path))
            for statement in tree.body:
                name = None
                if isinstance(statement, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef)):
                    name = statement.name
                    if root is SOURCE_ROOT and not name.startswith("_"):
                        definitions.append((path, name))
                for ref in _names(statement):
                    callers.setdefault(ref, set()).add((path, name))
    return [
        (path, name) for path, name in definitions
        if not callers.get(name, set()) - {(path, name)}
    ]


def test_every_public_definition_has_a_caller():
    unreferenced = sorted(
        f"{path.relative_to(ROOT)}:{name}"
        for path, name in _unreferenced()
        if name not in ALLOWED_UNREFERENCED
    )
    assert unreferenced == [], (
        "public definitions only their own tests reach; delete them, or "
        f"list each in ALLOWED_UNREFERENCED with a reason: {unreferenced}"
    )


def test_allowlist_holds_only_unreferenced_definitions():
    unreferenced = {name for _path, name in _unreferenced()}
    assert sorted(set(ALLOWED_UNREFERENCED) - unreferenced) == []
