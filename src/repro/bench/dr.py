"""DR benchmark: archival overhead and restore-vs-resync latency.

Two experiment families behind ``python -m repro.bench dr``:

* **steady-state** — the same seeded closed-loop workload twice, once
  with the per-node WAL archiver off and once shipping to the remote
  grid.  The archival path flows through the traced destage-ring scanner
  and the node's own engine, so any throughput it costs shows up as an
  overhead percentage against the archiver-off cell, alongside the
  archiver's own counters (segments, snapshots, bytes, lag at quiesce).
* **recovery** — one node runs a long workload over a small key space
  (so the snapshot compacts history the WAL keeps repeating), the
  archive drains, and the same disaster is repaired both ways:

  - *resync*: the replica is crashed, spliced out, and a factory-fresh
    replacement server reattaches at the chain tail — the primary
    re-offers its entire retained WAL, which must squeeze through the
    replacement's CMB and destage to NAND page by page;
  - *restore*: a fresh database reseeds from the grid
    (:func:`~repro.dr.restore.reseed_node_from_archive`) — snapshot
    plus segment replay at grid latency, no NAND in the path.

  The cell reports both clocks and their ratio; the restored database is
  diffed against the survivor's tables so the speedup never quietly
  trades away correctness.

Cells are independent and deterministic per seed, so ``--jobs`` fans
them over worker processes like every other figure.
"""

from repro.bench.parallel import run_cells
from repro.cluster.fleet import Fleet
from repro.db.txn import TransactionAborted
from repro.dr.grid import RemoteGrid
from repro.dr.restore import reseed_node_from_archive
from repro.faults.scenario import chaos_config_factory
from repro.health.errors import DeviceBusy
from repro.sim.engine import Engine
from repro.sim.rng import derive

# Engine-driving slice for the measured phases: small enough that the
# measured interval overshoots by well under the grid's base latency.
_STEP_NS = 5_000.0


def _writer(engine, shard, rng, key_space, think_ns, counters,
            transactions=None, deadline_ns=None):
    """One shard's closed-loop tenant (a sim process).

    Runs ``transactions`` commits, or until ``deadline_ns`` when the
    count is None.  ``counters`` tallies commits and completion so the
    cell driver can watch progress from outside the engine.
    """
    seq = 0
    while True:
        if transactions is not None and seq >= transactions:
            break
        if deadline_ns is not None and engine.now >= deadline_ns:
            break
        key = f"k{rng.randrange(key_space)}"
        value = f"{shard.shard_id}-v{seq}"

        def body(txn, key=key, value=value):
            txn.write("kv", key, value)

        while True:
            try:
                yield from shard.run_body(body)
                counters["commits"] += 1
                break
            except DeviceBusy as busy:
                yield engine.timeout(busy.retry_after_ns or 20_000.0)
            except TransactionAborted:
                break
        seq += 1
        if think_ns > 0:
            yield engine.timeout(think_ns)
    counters["done"] += 1


def _build(cell, dr):
    engine = Engine()
    fleet = Fleet(
        engine, chaos_config_factory(cell["seed"]),
        replicas=cell["replicas"],
        group_commit_bytes=384,
        group_commit_timeout_ns=5_000.0,
    )
    fleet.add_nodes(1)
    grid = None
    if dr:
        grid = RemoteGrid(engine, base_latency_ns=cell["grid_latency_ns"],
                          bandwidth_bytes_per_ns=cell["grid_bandwidth"])
        fleet.enable_dr(
            grid,
            poll_ns=cell["poll_ns"],
            segment_bytes=cell["segment_bytes"],
            snapshot_every_ns=cell["snapshot_every_ns"],
        )
    counters = {"commits": 0, "done": 0}
    for index in range(cell["shards"]):
        shard = fleet.create_shard(f"s{index}", node="node0")
        rng = derive(cell["seed"], f"dr-bench-writer-{index}")
        engine.process(
            _writer(engine, shard, rng, cell["key_space"], cell["think_ns"],
                    counters, transactions=cell.get("transactions"),
                    deadline_ns=(engine.now + cell["duration_ns"]
                                 if cell.get("duration_ns") else None)),
            name=f"dr-bench-writer-{index}",
        )
    return engine, fleet, grid, counters


def _drain_archivers(engine, fleet, cap_ns=20_000_000.0):
    """Stop the periodic loops, then ship everything outstanding."""
    flags = {"done": 0}
    archivers = [node.archiver for node in fleet.nodes.values()]
    for archiver in archivers:
        archiver.stop()

    def drainer(archiver):
        yield from archiver.drain()
        flags["done"] += 1

    for archiver in archivers:
        engine.process(drainer(archiver), name=f"{archiver.node}-drain")
    deadline = engine.now + cap_ns
    while flags["done"] < len(archivers) and engine.now < deadline:
        engine.run(until=engine.now + _STEP_NS)


def _dr_cell(**cell):
    if cell["kind"] == "steady":
        return _steady_cell(cell)
    return _recovery_cell(cell)


def _steady_cell(cell):
    engine, fleet, grid, counters = _build(cell, dr=cell["dr"])
    engine.run(until=engine.now + cell["duration_ns"])
    commits = fleet.total_commits()
    row = {
        "cell": "steady-state",
        "dr": cell["dr"],
        "shards": cell["shards"],
        "commits": commits,
        "ktxn_per_s": commits / (cell["duration_ns"] / 1e9) / 1e3,
    }
    if cell["dr"]:
        archiver = fleet.nodes["node0"].archiver
        row["archiver"] = archiver.stats()
        row["grid"] = grid.stats()
    fleet.stop()
    return row


def _recovery_cell(cell):
    from repro.cluster.server import Server
    from repro.db.engine import Database
    from repro.host.baselines import NoLogFile

    engine, fleet, grid, counters = _build(cell, dr=True)
    node = fleet.nodes["node0"]
    cluster = node.cluster

    # Phase 1: the workload, run to completion (fixed transaction count
    # so both repair paths recover the same history).
    workload_cap = engine.now + cell["workload_cap_ns"]
    while counters["done"] < cell["shards"] and engine.now < workload_cap:
        engine.run(until=engine.now + 50_000.0)
    _drain_archivers(engine, fleet)
    survivor_state = {
        name: dict(node.database.table(name).scan())
        for name in (f"s{i}.kv" for i in range(cell["shards"]))
    }

    # Phase 2: full chain resync.  The replica is lost for good; a
    # factory-fresh replacement joins at the tail with frontier zero, so
    # the primary re-offers its entire retained WAL.
    victim = "node0.secondary-1"
    cluster.servers[victim].crash()
    cluster.reconfigure_around(victim)
    replacement = Server(engine, "node0.secondary-r",
                         fleet.config_factory())
    replacement.start()
    cluster.servers[replacement.name] = replacement
    resync_start = engine.now
    offered = cluster.reattach(replacement.name)
    resync_deadline = resync_start + cell["repair_cap_ns"]
    while (replacement.device.cmb.credit.value < offered
           and engine.now < resync_deadline):
        engine.run(until=engine.now + _STEP_NS)
    resync_ns = engine.now - resync_start
    resync_complete = replacement.device.cmb.credit.value >= offered

    # Phase 3: restore the same history from the archive instead.
    restored_db = Database(engine, NoLogFile(engine))
    done = {}

    def reseed():
        _archive, rows = yield from reseed_node_from_archive(
            engine, grid, "node0", restored_db,
        )
        done["rows"] = rows

    engine.process(reseed(), name="dr-bench-reseed")
    restore_start = engine.now
    restore_deadline = restore_start + cell["repair_cap_ns"]
    while "rows" not in done and engine.now < restore_deadline:
        engine.run(until=engine.now + _STEP_NS)
    restore_ns = engine.now - restore_start

    restored_matches = all(
        dict(restored_db.table(name).scan()) == state
        if name in restored_db.tables() else not state
        for name, state in survivor_state.items()
    )
    archiver = node.archiver
    row = {
        "cell": "recovery",
        "commits": counters["commits"],
        "wal_bytes_resynced": offered,
        "resync_ms": resync_ns / 1e6,
        "resync_complete": resync_complete,
        "restore_ms": restore_ns / 1e6,
        "restore_complete": "rows" in done,
        "restored_rows": done.get("rows", 0),
        "restored_matches": restored_matches,
        "restore_speedup": (resync_ns / restore_ns if restore_ns > 0
                            else 0.0),
        "archiver": archiver.stats(),
        "grid": grid.stats(),
    }
    fleet.stop()
    return row


def run_dr_bench(seed=7, shards=2, duration_ms=2.0, transactions=500,
                 key_space=8, think_ns=2_000.0, segment_bytes=4096,
                 snapshot_every_ms=0.4, poll_us=30.0, grid_latency_us=20.0,
                 grid_bandwidth=2.0, replicas=1, jobs=None):
    """Run the DR figure: steady-state overhead plus restore-vs-resync.

    Returns a JSON-able dict: the two steady-state rows with the
    archival overhead percentage, and the recovery row with both repair
    clocks and their ratio.
    """
    base = {
        "seed": seed, "shards": shards, "key_space": key_space,
        "think_ns": think_ns, "replicas": replicas,
        "segment_bytes": segment_bytes,
        "snapshot_every_ns": snapshot_every_ms * 1e6,
        "poll_ns": poll_us * 1e3,
        "grid_latency_ns": grid_latency_us * 1e3,
        "grid_bandwidth": grid_bandwidth,
    }
    cells = [
        dict(base, kind="steady", dr=False, duration_ns=duration_ms * 1e6),
        dict(base, kind="steady", dr=True, duration_ns=duration_ms * 1e6),
        dict(base, kind="recovery", transactions=transactions,
             workload_cap_ns=200e6, repair_cap_ns=100e6),
    ]
    rows = run_cells(_dr_cell, cells, jobs)
    steady = [row for row in rows if row["cell"] == "steady-state"]
    recovery = [row for row in rows if row["cell"] == "recovery"][0]
    off = next(row for row in steady if not row["dr"])
    on = next(row for row in steady if row["dr"])
    on["overhead_pct"] = (
        (off["ktxn_per_s"] - on["ktxn_per_s"]) / off["ktxn_per_s"] * 100.0
        if off["ktxn_per_s"] > 0 else 0.0
    )
    off["overhead_pct"] = 0.0
    return {
        "seed": seed,
        "shards": shards,
        "duration_ms": duration_ms,
        "transactions": transactions,
        "steady": steady,
        "recovery": recovery,
    }
