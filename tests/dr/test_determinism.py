"""Archival under grid chaos is byte-deterministic per seed.

Two runs with the same seed and the same grid fault plan (a partition
window plus a torn upload landing mid-stream) must serialize to
byte-identical JSON: the fault log, the archiver's event timeline and
counters, the manifest's canonical bytes, and the restored state.  A
different seed must diverge — guarding the equality against passing
vacuously on empty timelines.
"""

import json

from repro.cluster.fleet import Fleet
from repro.db.txn import TransactionAborted
from repro.dr.archive import canonical_json
from repro.dr.grid import GridFaultDriver, RemoteGrid
from repro.dr.restore import Archive, restore_state
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.scenario import chaos_config_factory
from repro.health.errors import DeviceBusy
from repro.sim import Engine
from repro.sim.rng import derive

TXNS = 15
HORIZON_NS = 3_000_000.0


def fault_plan():
    return FaultPlan([
        FaultSpec(250_000.0, "grid", FaultKind.GRID_DOWN),
        FaultSpec(550_000.0, "grid", FaultKind.GRID_UP),
        FaultSpec(900_000.0, "grid", FaultKind.GRID_TORN_UPLOAD,
                  {"count": 1}),
    ])


def run_chaotic_archival(seed):
    engine = Engine()
    fleet = Fleet(engine, chaos_config_factory(seed),
                  group_commit_bytes=384, group_commit_timeout_ns=5_000.0)
    fleet.add_nodes(1)
    grid = RemoteGrid(engine)
    fleet.enable_dr(grid, poll_ns=30_000.0, segment_bytes=512,
                    snapshot_every_ns=700_000.0, retry_ns=60_000.0)
    shard = fleet.create_shard("s0", node="node0")
    rng = derive(seed, "dr-chaos-writer")

    def writer():
        for seq in range(TXNS):
            key = f"k{rng.randrange(4)}"
            value = f"s0-v{seq}"

            def body(txn, key=key, value=value):
                txn.write("kv", key, value)

            while True:
                try:
                    yield from shard.run_body(body)
                    break
                except DeviceBusy as busy:
                    yield engine.timeout(busy.retry_after_ns or 20_000.0)
                except TransactionAborted:
                    pass
            yield engine.timeout(10_000.0)

    engine.process(writer(), name="writer-s0")
    driver = GridFaultDriver(engine, grid, fault_plan())
    driver.start()
    engine.run(until=HORIZON_NS)

    archiver = fleet.nodes["node0"].archiver
    archiver.stop()
    done = {}

    def drainer():
        yield from archiver.drain()
        done["drained"] = True

    engine.process(drainer(), name="drain")
    engine.run(until=engine.now + 20_000_000.0)
    assert done.get("drained")
    return engine, fleet, grid, driver, archiver


def snapshot(seed):
    _engine, _fleet, grid, driver, archiver = run_chaotic_archival(seed)
    archive = Archive.load_sync(grid, "node0")
    state, _versions = restore_state(archive)
    return json.dumps({
        "fault_log": driver.fault_log,
        "archiver_events": archiver.events,
        "archiver_stats": archiver.stats(),
        "grid_stats": grid.stats(),
        "manifest": canonical_json(archive.manifest),
        "state": state,
    }, sort_keys=True)


def test_same_seed_same_faults_byte_identical():
    assert snapshot(9) == snapshot(9)


def test_faults_actually_bit():
    """The plan is not decorative: the partition forced retries and the
    torn upload was detected by readback — yet the archive ends clean."""
    _engine, _fleet, grid, driver, archiver = run_chaotic_archival(9)
    assert len(driver.fault_log) == 3
    stats = archiver.stats()
    assert stats["upload_retries"] > 0, "partition window cost no retries"
    assert stats["torn_detected"] >= 1, "armed torn upload never landed"
    assert grid.stats()["torn_uploads"] >= 1
    # Chaos notwithstanding, what finally landed verifies clean.
    assert Archive.load_sync(grid, "node0").verify() == []
    assert stats["archive_lag_lsn"] == 0


def test_different_seeds_diverge():
    assert snapshot(9) != snapshot(10)
