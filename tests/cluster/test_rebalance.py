"""Migration correctness: no acked transaction lost, determinism held.

The contract under test (see CLUSTER.md): a shard migration running
*concurrently with writes* must deliver every acknowledged transaction
to the destination chain, durable and in commit order, and two runs with
the same seed must produce byte-identical migration timelines.
"""

import json

import pytest

from repro.check.model import ReferenceModel
from repro.cluster import Fleet, ShardView
from repro.core.crash import read_durable_pages
from repro.db.log_record import RecordKind
from repro.db.recovery import extract_records, recover_pages
from repro.db.txn import TransactionAborted
from repro.faults.scenario import chaos_config_factory
from repro.health.errors import DeviceBusy
from repro.sim import Engine
from repro.sim.rng import derive

TXNS = 30
THINK_NS = 8_000.0
MIGRATE_AT_NS = 250_000.0
HORIZON_NS = 3_000_000.0


def build_fleet(seed=11, nodes=2):
    engine = Engine()
    fleet = Fleet(engine, chaos_config_factory(seed),
                  group_commit_bytes=384, group_commit_timeout_ns=5_000.0)
    fleet.add_nodes(nodes)
    return engine, fleet


def writer(engine, fleet, shard_id, model, acked, seed, txns=TXNS):
    """Sequence-stamped single-writer workload (the checker's idiom)."""
    shard = fleet.shards[shard_id]
    rng = derive(seed, f"rebalance-writer-{shard_id}")
    for seq in range(txns):
        key = f"k{rng.randrange(5)}"
        value = f"{shard_id}-v{seq}"

        def body(txn, key=key, value=value):
            txn.write("kv", key, value)
            model.committed(shard_id, txn.txn_id, [(key, value)])

        while True:
            try:
                yield from shard.run_body(body)
                break
            except DeviceBusy as busy:
                yield engine.timeout(busy.retry_after_ns or 20_000.0)
            except TransactionAborted:
                model.aborted(shard_id)
        model.acknowledged(shard_id)
        acked.append(seq)
        yield engine.timeout(THINK_NS)


def migrate_later(engine, fleet, shard_id, dest, box, **kw):
    yield engine.timeout(MIGRATE_AT_NS)
    box["migration"] = fleet.migrate(shard_id, dest, **kw)
    yield box["migration"].process


def run_migration_scenario(seed=11, **migration_kw):
    engine, fleet = build_fleet(seed)
    fleet.create_shard("s0", node="node0")
    fleet.create_shard("s1", node="node1")
    model = ReferenceModel()
    acked = []
    engine.process(writer(engine, fleet, "s0", model, acked, seed),
                   name="writer-s0")
    box = {}
    engine.process(
        migrate_later(engine, fleet, "s0", "node1", box, **migration_kw),
        name="migrate-s0",
    )
    engine.run(until=HORIZON_NS)
    return engine, fleet, model, acked, box["migration"]


def committed_seqs(pages, table):
    """Sequence numbers of the table's committed records, in log order."""
    records = extract_records(pages)
    durable = {r.txn_id for r in records if r.kind is RecordKind.COMMIT}
    data = sorted(
        (r for r in records
         if r.is_data() and r.table == table and r.txn_id in durable),
        key=lambda r: r.lsn,
    )
    return [int(r.value.rsplit("-v", 1)[1]) for r in data]


def test_no_acked_txn_lost_and_commit_order_held():
    engine, fleet, model, acked, migration = run_migration_scenario()
    assert migration.done and migration.error is None
    assert fleet.node_of("s0") == "node1", "cutover did not re-point"
    assert migration.replayed_txns > 0, "no live WAL was replayed"
    assert len(acked) == TXNS, "the writer did not finish"

    # Differential check against the reference model: crash the
    # destination primary and recover its shard slice from the pages.
    dest = fleet.nodes["node1"]
    dest.cluster.primary.crash()
    pages, errors = read_durable_pages(engine, dest.device)
    assert errors == []
    recovered, _ = recover_pages(pages, ["s0.kv", "s1.kv"])
    slice_ = dict(recovered.table("s0.kv").scan())
    assert model.diff_recovered(slice_, require_acked=True) == []

    # Every acked sequence number is durable on the destination, and the
    # destination log preserves source commit order.
    seqs = committed_seqs(pages, "s0.kv")
    assert set(acked) <= set(seqs), (
        f"acked seqs missing from destination log: "
        f"{sorted(set(acked) - set(seqs))[:5]}"
    )
    assert seqs == sorted(seqs), "replay broke source commit order"


def test_gated_writers_resume_on_destination():
    engine, fleet, model, acked, migration = run_migration_scenario()
    phases = {event["phase"] for event in migration.events}
    assert "drain" in phases and "cutover" in phases
    # Some commits landed before the drain, some after the cutover —
    # the gate parked the writer, the cutover re-pointed it.
    shard = fleet.shards["s0"]
    assert shard.commits == TXNS
    assert not shard.gated
    assert shard.view.database is fleet.nodes["node1"].database
    # State equality across the move, by the shard's own checksum.
    source_view = ShardView(fleet.nodes["node0"].database, "s0.")
    dest_rows = shard.view.state()["kv"]
    source_rows = source_view.state()["kv"]
    # The source keeps its pre-cutover rows (stale), the destination has
    # everything; post-cutover writes exist only on the destination.
    assert set(source_rows) <= set(dest_rows)


def test_migration_timeline_is_deterministic():
    """Two same-seed runs serialize to byte-identical timelines."""
    def snapshot():
        engine, fleet, model, acked, migration = run_migration_scenario()
        return json.dumps({
            "events": migration.events,
            "moves": fleet.moves,
            "replayed": migration.replayed_txns,
            "topped_up": migration.topped_up_keys,
            "acked": list(acked),
            "state": fleet.shards["s0"].view.state(),
            "checksum": fleet.shards["s0"].view.checksum(),
        }, sort_keys=True)

    assert snapshot() == snapshot()


def test_different_seeds_diverge():
    # Guard against the determinism test passing vacuously (e.g. empty
    # timelines): different seeds must actually change the outcome.
    _e0, fleet0, _m0, _a0, _mig0 = run_migration_scenario(seed=11)
    _e1, fleet1, _m1, _a1, _mig1 = run_migration_scenario(seed=12)
    assert (fleet0.shards["s0"].view.state()
            != fleet1.shards["s0"].view.state())


def test_top_up_covers_state_outside_the_wal_window():
    """Rows that never hit the WAL (or were evicted) ride the top-up."""
    engine, fleet = build_fleet(seed=13)
    shard = fleet.create_shard("s0", node="node0")
    # Base rows installed outside the WAL: replay can never converge on
    # them, so catchup must fall back to the transactional diff copy.
    table = shard.view.table("kv")
    for index in range(8):
        table.install(f"base{index}", f"seed-{index}", index + 1)

    box = {}
    engine.process(
        migrate_later(engine, fleet, "s0", "node1", box,
                      copy_rounds=1, round_wait_ns=50_000.0,
                      max_stalled_rounds=1),
        name="migrate-s0",
    )
    engine.run(until=HORIZON_NS)
    migration = box["migration"]
    assert migration.done and migration.error is None
    assert migration.topped_up_keys >= 8
    dest_view = fleet.shards["s0"].view
    assert dest_view.database is fleet.nodes["node1"].database
    rows = dest_view.state()["kv"]
    assert {f"base{i}": f"seed-{i}" for i in range(8)}.items() <= rows.items()


def test_migrate_rejects_bad_destinations():
    engine, fleet = build_fleet()
    fleet.create_shard("s0", node="node0")
    with pytest.raises(KeyError):
        fleet.migrate("s0", "ghost")
    with pytest.raises(ValueError):
        fleet.migrate("s0", "node0")
