"""Every public module-level function and class, and every public method
and property of a public class, has a caller.

A capability that only its own tests run is code to document, test and
keep working for no user.  This scans the module-level public functions
and classes under ``src/repro`` (``__init__.py`` re-exports excluded)
and requires each name to be referenced — as a ``Name``, an
``Attribute`` or an ``ImportFrom`` — outside its own definition, in a
non-``__init__`` file under ``src/repro``, ``benchmarks``, ``examples``
or ``scripts``.  Tests do not count as callers.

Methods and properties (public names defined in a public class's body)
are matched by attribute name alone, so any ``.name`` outside the
method's own body counts: the scan cannot tell which class a receiver
is, and a method sharing its name with a live one passes.
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

# Public methods and properties with no caller in the program, each kept
# on purpose, keyed ``Class.name``.
ALLOWED_UNREFERENCED_METHODS = {
    "Fleet.node_of":
        "test support: the fleet, rebalance and restore tests read a "
        "shard's current owner from the directory through it",
    "CmbModule.receive":
        "test support: the CMB, destage and transport tests feed chunks "
        "and wait on the grant event it returns",
    "SequencedRing.peek_ready":
        "test support: the CMB and transport tests read the ring's ready "
        "chunks through it",
    "SequencedRing.free_bytes":
        "test support: the CMB, destage and snapshot tests check the "
        "ring's space through it",
    "TransportModule.start_staleness_monitor":
        "the paper's status-register monitor (Section 7.1); the failure "
        "tests start it, fleets detect stalls with the health supervisor",
    "RemoteGrid.list_keys":
        "test support: the DR restore and retention tests list what the "
        "grid stores through it",
    "FaultPlan.to_json":
        "writes the plan files the chaos CLI's --faults reads; the plan and "
        "determinism tests round-trip through it",
    "Channel.erase_multi":
        "the NAND multi-plane erase beside program_multi; the die tests "
        "time it against tBERS",
    "Channel.idle_ways":
        "test support: the channel tests read scheduling gaps through it",
    "EccFaultModel.force_error_at":
        "fault hook: the NAND, FTL and firmware tests force a read error "
        "at one page with it",
    "ProgramFaultModel.force_failure_at":
        "fault hook: the NAND, FTL and device tests force a program "
        "failure at one page with it",
    "Geometry.page_index":
        "the geometry's dense page numbering; the geometry tests pin it "
        "as the inverse of address_of",
    "Geometry.address_of":
        "the geometry's dense page numbering; the geometry and mapping "
        "tests build addresses from it",
    "Tracer.tracks":
        "test support: the tracer tests query recorded tracks with it",
    "Tracer.spans":
        "test support: the tracer tests query recorded spans with it",
    "Tracer.instants":
        "test support: the obs tests query recorded instants with it",
    "RdmaQueuePair.on_receive":
        "the RDMA baseline's remote-landing callback; the RDMA tests "
        "check a write lands remotely through it",
    "Event.cancelled":
        "test support: the engine and event-count tests read whether an "
        "event was cancelled through it",
    "Engine.peek":
        "test support: the engine and timer-queue tests read the next "
        "pending instant through it",
    "ConventionalSsd.flush":
        "the NVMe Flush command; the device, HIC and firmware tests "
        "issue it",
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


def _unreferenced_methods():
    """``(path, "Class.name")`` of each public method or property of a
    public class whose name no attribute outside its body refers to."""
    methods = []
    attributes = {}  # attribute name -> [node]
    for root in CALLER_ROOTS:
        for path in _modules(root):
            tree = ast.parse(path.read_text(), filename=str(path))
            for statement in tree.body:
                if (root is SOURCE_ROOT
                        and isinstance(statement, ast.ClassDef)
                        and not statement.name.startswith("_")):
                    methods += [
                        (path, statement.name, member)
                        for member in statement.body
                        if isinstance(member, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))
                        and not member.name.startswith("_")]
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    attributes.setdefault(node.attr, []).append(node)
    unreferenced = []
    for path, class_name, member in methods:
        own = {id(node) for node in ast.walk(member)}
        if all(id(node) in own for node in attributes.get(member.name, [])):
            unreferenced.append((path, f"{class_name}.{member.name}"))
    return unreferenced


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


def test_every_public_method_has_a_caller():
    unreferenced = sorted(
        f"{path.relative_to(ROOT)}:{name}"
        for path, name in _unreferenced_methods()
        if name not in ALLOWED_UNREFERENCED_METHODS
    )
    assert unreferenced == [], (
        "public methods only their own tests reach; delete them, or list "
        "each in ALLOWED_UNREFERENCED_METHODS with a reason: "
        f"{unreferenced}"
    )


def test_method_allowlist_holds_only_unreferenced_methods():
    unreferenced = {name for _path, name in _unreferenced_methods()}
    assert sorted(set(ALLOWED_UNREFERENCED_METHODS) - unreferenced) == []
