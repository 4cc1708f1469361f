"""End-to-end restore: a live archived fleet, audited and rebuilt.

The full loop the DR tier promises (RECOVERY.md): run a fleet with
archivers shipping to the grid, drain, and then (a) the archive
verifies clean and restores the live state exactly, (b) every commit
boundary is reachable by PITR, (c) a node reseeds from the grid and
refuses an archive that fails verification, (d) every corruption class
an upload can suffer is named by ``verify()``, and (e) a stalled shard
migration catches up from the archive instead of falling back to a
state top-up.
"""

import copy

import pytest

from repro.check.model import ReferenceModel
from repro.cluster.fleet import Fleet
from repro.db.engine import Database
from repro.db.txn import TransactionAborted
from repro.dr.archive import manifest_key, segment_key
from repro.dr.grid import RemoteGrid
from repro.dr.restore import (
    Archive,
    RestoreError,
    reseed_node_from_archive,
    restore_state,
)
from repro.faults.scenario import chaos_config_factory
from repro.health.errors import DeviceBusy
from repro.host.baselines import NoLogFile
from repro.sim import Engine
from repro.sim.rng import derive

TXNS = 12
THINK_NS = 10_000.0
HORIZON_NS = 3_000_000.0


def build_dr_fleet(seed=5, nodes=1, shards=1, **archiver_kw):
    engine = Engine()
    fleet = Fleet(engine, chaos_config_factory(seed),
                  group_commit_bytes=384, group_commit_timeout_ns=5_000.0)
    fleet.add_nodes(nodes)
    grid = RemoteGrid(engine)
    kw = dict(poll_ns=30_000.0, segment_bytes=512,
              snapshot_every_ns=700_000.0)
    kw.update(archiver_kw)
    fleet.enable_dr(grid, **kw)
    models = {}
    for index in range(shards):
        shard_id = f"s{index}"
        fleet.create_shard(shard_id, node=f"node{index % nodes}")
        models[shard_id] = ReferenceModel()
        engine.process(
            writer(engine, fleet, shard_id, models[shard_id], seed),
            name=f"writer-{shard_id}",
        )
    return engine, fleet, grid, models


def writer(engine, fleet, shard_id, model, seed, txns=TXNS):
    shard = fleet.shards[shard_id]
    rng = derive(seed, f"dr-test-writer-{shard_id}")
    for seq in range(txns):
        key = f"k{rng.randrange(4)}"
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
        yield engine.timeout(THINK_NS)


def drain_archivers(engine, fleet):
    """Quiesce: stop the loops, ship everything outstanding."""
    done = {"count": 0}

    def drainer(archiver):
        yield from archiver.drain()
        done["count"] += 1

    for node in fleet.nodes.values():
        node.archiver.stop()
        engine.process(drainer(node.archiver),
                       name=f"{node.name}-drain")
    engine.run(until=engine.now + 20_000_000.0)
    assert done["count"] == len(fleet.nodes), "archiver drain never finished"


def run_archived_workload(**kw):
    engine, fleet, grid, models = build_dr_fleet(**kw)
    engine.run(until=HORIZON_NS)
    drain_archivers(engine, fleet)
    return engine, fleet, grid, models


def node_tables(node):
    return {name: dict(table.scan())
            for name, table in node.database.tables().items()}


class TestCleanRestore:
    def test_drained_archive_verifies_and_restores_live_state(self):
        engine, fleet, grid, _models = run_archived_workload()
        archive = Archive.load_sync(grid, "node0")
        assert archive.manifest is not None
        assert archive.verify() == []
        state, _versions = restore_state(archive)
        assert state == node_tables(fleet.nodes["node0"])
        archiver = fleet.nodes["node0"].archiver
        assert archiver.segments_shipped >= 2, "history never segmented"
        assert archiver.snapshots_taken >= 1
        assert archiver.archive_lag_lsn == 0

    def test_pitr_reaches_every_commit_boundary(self):
        engine, fleet, grid, models = run_archived_workload()
        model = models["s0"]
        ids = model.sequence_ids("s0")
        assert len(ids) == TXNS
        archive = Archive.load_sync(grid, "node0")
        commit_lsn_of = dict(
            (txn_id, lsn) for lsn, txn_id in archive.commit_boundaries()
        )
        assert set(ids) <= set(commit_lsn_of), "drain left commits behind"
        for k, txn_id in enumerate(ids, start=1):
            state, _versions = restore_state(
                archive, upto_lsn=commit_lsn_of[txn_id]
            )
            assert state.get("s0.kv", {}) == model.prefix_state("s0", k), (
                f"PITR diverged at commit boundary {k}"
            )
        state, _versions = restore_state(archive, upto_lsn=0)
        assert state.get("s0.kv", {}) == {}

    def test_reseed_refuses_a_broken_archive(self):
        engine, fleet, grid, _models = run_archived_workload()
        del grid.objects[segment_key("node0", 0)]
        restored_db = Database(engine, NoLogFile(engine))
        box = {}

        def reseed():
            try:
                yield from reseed_node_from_archive(
                    engine, grid, "node0", restored_db,
                )
            except RestoreError as error:
                box["error"] = error

        engine.process(reseed(), name="reseed")
        engine.run(until=engine.now + 50_000_000.0)
        assert "error" in box
        assert restored_db.tables() == {}

    def test_reseed_node_is_timed_and_faithful(self):
        engine, fleet, grid, _models = run_archived_workload()
        expected = node_tables(fleet.nodes["node0"])
        restored_db = Database(engine, NoLogFile(engine))
        box = {}

        def reseed():
            start = engine.now
            _archive, rows = yield from reseed_node_from_archive(
                engine, grid, "node0", restored_db,
            )
            box["rows"] = rows
            box["elapsed"] = engine.now - start

        engine.process(reseed(), name="reseed")
        engine.run(until=engine.now + 50_000_000.0)
        assert box["rows"] > 0
        assert box["elapsed"] > 0, "restore paid no grid latency"
        assert {name: dict(restored_db.table(name).scan())
                for name in restored_db.tables()} == expected


class TestVerifyCorruptionClasses:
    """Each way an archive can rot earns a distinct verify() problem."""

    @pytest.fixture(scope="class")
    def archived_grid(self):
        # Small segments so the run seals enough of them to tamper with.
        _engine, _fleet, grid, _models = run_archived_workload(
            seed=8, segment_bytes=256,
        )
        assert len(grid.list_keys("node0/wal/")) >= 3
        return grid

    def pristine(self, grid):
        return copy.deepcopy(grid.objects)

    def test_missing_object(self, archived_grid):
        objects = self.pristine(archived_grid)
        del objects[segment_key("node0", 1)]
        grid = copy.copy(archived_grid)
        grid.objects = objects
        problems = Archive.load_sync(grid, "node0").verify()
        assert any("missing object node0/wal/000001" in p for p in problems)

    def test_torn_upload_persisted(self, archived_grid):
        objects = self.pristine(archived_grid)
        objects[segment_key("node0", 0)].checksum = "0" * 64
        grid = copy.copy(archived_grid)
        grid.objects = objects
        problems = Archive.load_sync(grid, "node0").verify()
        assert any("torn upload persisted" in p for p in problems)

    def test_corrupt_object_body(self, archived_grid):
        objects = self.pristine(archived_grid)
        stored = objects[segment_key("node0", 0)]
        stored.payload["records"][0]["value"] = "bit-rot"
        grid = copy.copy(archived_grid)
        grid.objects = objects
        problems = Archive.load_sync(grid, "node0").verify()
        assert any("corrupt object" in p for p in problems)

    def test_lsn_gap_between_segments(self, archived_grid):
        objects = self.pristine(archived_grid)
        manifest = objects[manifest_key("node0")].payload
        manifest["segments"] = (
            manifest["segments"][:1] + manifest["segments"][2:]
        )
        grid = copy.copy(archived_grid)
        grid.objects = objects
        problems = Archive.load_sync(grid, "node0").verify()
        assert any("lsn gap" in p for p in problems)

    def test_pristine_control(self, archived_grid):
        assert Archive.load_sync(archived_grid, "node0").verify() == []


class TestMigrationArchiveCatchup:
    def test_stalled_migration_replays_from_the_grid(self, monkeypatch):
        """When the ring has nothing left to scan, the catchup path must
        fetch the source's archived segments instead of diff-copying
        state (which would flatten commit history into one top-up)."""
        engine, fleet, grid, models = build_dr_fleet(seed=7, nodes=2)
        engine.run(until=HORIZON_NS)
        drain_archivers(engine, fleet)
        source_state = fleet.shards["s0"].view.state()

        # The WAL ring is now "evicted": every scan comes back empty.
        from repro.db.recovery import LogReader

        def empty_scan(self):
            if False:
                yield  # a generator, like the real scan
            return []

        monkeypatch.setattr(LogReader, "scan", empty_scan)
        migration = fleet.migrate("s0", "node1", copy_rounds=1,
                                  round_wait_ns=20_000.0,
                                  max_stalled_rounds=1)
        engine.run(until=engine.now + 30_000_000.0)
        assert migration.done and migration.error is None
        assert migration.archive_catchup_txns == TXNS
        assert migration.topped_up_keys == 0, (
            "archive catchup fell through to the state top-up"
        )
        assert fleet.node_of("s0") == "node1"
        assert fleet.shards["s0"].view.state() == source_state
        actions = [event.get("phase") for event in migration.events]
        assert "archive-catchup" in actions
