"""Tests for pipelined group commit: inflight flushes, prefix durability,
back-pressure, and async (early-lock-release) commits."""

from types import SimpleNamespace

import pytest

from repro.db.engine import Database
from repro.db.log_record import LogRecord, RecordKind
from repro.db.recovery import LogReader
from repro.db.wal import LogBatch, LogManager
from repro.host.baselines import NvdimmLogFile, NvmeLogFile
from repro.nand.geometry import Geometry
from repro.nand.timing import NandTiming
from repro.pm.nvdimm import Nvdimm
from repro.sim import Engine
from repro.ssd.device import ConventionalSsd, SsdConfig


def records_of(nbytes, start_lsn, txn_id=1):
    """One data record padded to roughly nbytes, plus a commit record."""
    pad = "x" * max(1, nbytes - 64 - 32)
    return [
        LogRecord(start_lsn, txn_id, RecordKind.UPDATE, "t", "k", pad),
        LogRecord(start_lsn + 1, txn_id, RecordKind.COMMIT),
    ]


class SlowLogFile:
    """A log file with controllable, per-call completion order."""

    def __init__(self, engine, write_latency_ns):
        self.engine = engine
        self.write_latency_ns = write_latency_ns
        self.inflight = 0
        self.peak_inflight = 0
        self.completed = []

    def x_pwrite(self, payload, nbytes):
        self.inflight += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)
        done = self.engine.event()

        def _finish(_event):
            self.inflight -= 1
            self.completed.append(payload)
            done.succeed(nbytes)

        self.engine.timeout(self.write_latency_ns).then(_finish)
        return done

    def x_fsync(self):
        return self.engine.timeout(0.0)


class TestLogBatch:
    def test_partial_bytes_yield_the_covered_record_prefix(self):
        records = records_of(500, 1)
        batch = LogBatch(records)

        def covered_by(nbytes):
            page = SimpleNamespace(chunks=[(0, nbytes, (batch, 0, nbytes))])
            return LogReader().feed([page])

        assert covered_by(batch.nbytes) == records
        assert covered_by(records[0].nbytes) == [records[0]]
        assert covered_by(10) == []


class TestPipelining:
    def test_inflight_flushes_bounded_by_slots(self):
        engine = Engine()
        log = SlowLogFile(engine, write_latency_ns=100_000.0)
        manager = LogManager(engine, log, group_commit_bytes=256,
                             group_commit_timeout_ns=1_000.0,
                             max_inflight_flushes=3)

        def committer(lsn):
            yield manager.append_and_wait(records_of(400, lsn, txn_id=lsn))

        for i in range(8):
            engine.process(committer(100 * (i + 1)))
        engine.run(until=10_000_000.0)
        assert log.peak_inflight <= 3
        assert log.peak_inflight >= 2  # pipelining actually happened
        # Every record flushed: each 400-byte record overflows the 256-byte
        # group on its own, so commits split across two batches each.
        assert 8 <= manager.flushes <= 16
        assert manager.durable_lsn == 801  # last committer's commit record

    def test_pipelining_raises_throughput(self):
        def run(slots):
            engine = Engine()
            log = SlowLogFile(engine, write_latency_ns=100_000.0)
            manager = LogManager(engine, log, group_commit_bytes=256,
                                 group_commit_timeout_ns=1_000.0,
                                 max_inflight_flushes=slots)
            done = []

            def committer(lsn):
                yield manager.append_and_wait(records_of(400, lsn, lsn))
                done.append(engine.now)

            for i in range(6):
                engine.process(committer(100 * (i + 1)))
            engine.run(until=100_000_000.0)
            return max(done)

        assert run(slots=4) < run(slots=1) / 1.8

    def test_prefix_durability_with_out_of_order_completions(self):
        """A later batch landing first must not release earlier waiters."""
        engine = Engine()
        released = []

        class ReorderingLogFile:
            """First write is slow, second is fast."""

            def __init__(self):
                self.calls = 0

            def x_pwrite(self, payload, nbytes):
                self.calls += 1
                delay = 100_000.0 if self.calls == 1 else 1_000.0
                return engine.timeout(delay, value=nbytes)

            def x_fsync(self):
                return engine.timeout(0.0)

        manager = LogManager(engine, ReorderingLogFile(),
                             group_commit_bytes=64,
                             group_commit_timeout_ns=500.0,
                             max_inflight_flushes=2)

        def committer(tag, lsn, delay):
            yield engine.timeout(delay)
            yield manager.append_and_wait(records_of(200, lsn, lsn))
            released.append((tag, engine.now))

        engine.process(committer("first", 10, 0.0))
        engine.process(committer("second", 20, 2_000.0))
        engine.run(until=10_000_000.0)
        order = [tag for tag, _t in released]
        assert order == ["first", "second"]
        # Both released only once the slow first batch landed.
        assert released[0][1] >= 100_000.0

    def test_backpressure_room_api(self):
        engine = Engine()
        log = SlowLogFile(engine, write_latency_ns=1_000_000.0)
        manager = LogManager(engine, log, group_commit_bytes=1 << 20,
                             group_commit_timeout_ns=1e12,
                             max_inflight_flushes=1,
                             pending_cap_bytes=1000)
        assert manager.has_room
        manager.append_and_wait(records_of(2000, 1))
        assert not manager.has_room
        waited = []

        def waiter():
            yield manager.wait_for_room()
            waited.append(engine.now)

        engine.process(waiter())
        # Arm the timer path so the batch gets carved despite the huge
        # threshold: carving empties pending and frees room.
        manager.group_commit_timeout_ns = 10_000.0
        manager._wake()
        engine.run(until=10_000_000.0)
        assert waited  # the room waiter was eventually released

    def test_read_surface_tracks_pending_records_and_waiters(self):
        engine = Engine()
        manager = LogManager(engine, SlowLogFile(engine, 1_000.0),
                             group_commit_bytes=1 << 20,
                             group_commit_timeout_ns=5_000.0)
        manager.append_and_wait(records_of(200, 10))
        manager.append_and_wait(records_of(200, 20))
        assert manager.pending_records == 4
        assert manager.waiter_count == 2
        assert manager.waiting_lsns == (11, 21)
        engine.run(until=1_000_000.0)
        assert manager.durable_lsn == 21
        assert (manager.pending_records, manager.pending_bytes,
                manager.waiter_count, manager.waiting_lsns) == (0, 0, 0, ())


class TestAsyncCommit:
    def make_db(self, max_inflight=4):
        engine = Engine()
        log = NvdimmLogFile(engine, Nvdimm(engine, capacity=1 << 30))
        database = Database(engine, log, group_commit_bytes=1024,
                            group_commit_timeout_ns=10_000.0,
                            max_inflight_flushes=max_inflight)
        database.create_table("t")
        return engine, database

    def test_writes_visible_before_durable(self):
        engine, database = self.make_db()
        snapshots = []

        def proc():
            txn = database.begin()
            txn.write("t", "k", "v")
            durable = txn.commit_async()
            snapshots.append(("immediately", database.table("t").get("k")))
            yield durable
            snapshots.append(("after-durable", database.table("t").get("k")))

        engine.process(proc())
        engine.run(until=10_000_000.0)
        assert snapshots == [("immediately", "v"), ("after-durable", "v")]

    def test_same_worker_can_update_same_key_back_to_back(self):
        """ELR: the commit lock releases at install, not at durability."""
        engine, database = self.make_db()

        def proc():
            first = database.begin()
            first.write("t", "hot", 1)
            first.commit_async()
            second = database.begin()
            second.read("t", "hot")
            second.write("t", "hot", 2)
            last = second.commit_async()
            yield last

        done = engine.process(proc())
        engine.run(until=10_000_000.0)
        assert done.triggered
        assert database.table("t").get("hot") == 2

    def test_async_worker_pipelines_transactions(self):
        engine, database = self.make_db()

        def bodies():
            i = 0
            while True:
                captured = i

                def body(txn, captured=captured):
                    txn.write("t", f"k{captured % 5}", captured)

                yield body
                i += 1

        done = database.run_worker(bodies(), transactions=50,
                                   txn_cpu_ns=1_000.0, async_commit=True)
        engine.run(until=100_000_000.0)
        assert done.triggered
        assert database.stats.commits == 50

    def test_latency_recorded_at_durability_not_install(self):
        engine, database = self.make_db()

        def proc():
            txn = database.begin()
            txn.write("t", "k", "v")
            yield txn.commit_async()

        engine.process(proc())
        engine.run(until=10_000_000.0)
        # Latency includes the group-commit timer (10 us floor here).
        assert database.stats.commits == 1
        assert database.stats.mean_latency_ns >= 10_000.0 * 0.5
