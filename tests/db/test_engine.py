"""Tests for the database engine: transactions, commit, group commit, OCC."""

import tracemalloc

import pytest

from repro.db.engine import Database, DatabaseStats
from repro.db.txn import TransactionAborted
from repro.host.baselines import NoLogFile, NvdimmLogFile
from repro.pm.nvdimm import Nvdimm
from repro.sim import Engine


def make_db(group_commit_bytes=512):
    engine = Engine()
    log = NvdimmLogFile(engine, Nvdimm(engine, capacity=1 << 30))
    database = Database(engine, log, group_commit_bytes=group_commit_bytes,
                        group_commit_timeout_ns=10_000.0)
    database.create_table("accounts")
    return engine, database


def test_commit_installs_writes():
    engine, database = make_db()

    def proc():
        txn = database.begin()
        txn.write("accounts", "alice", 100)
        yield txn.commit()

    engine.process(proc())
    engine.run(until=10_000_000.0)
    assert database.table("accounts").get("alice") == 100
    assert database.stats.commits == 1


def test_uncommitted_writes_invisible():
    engine, database = make_db()
    observations = []

    def writer():
        txn = database.begin()
        txn.write("accounts", "bob", 50)
        observations.append(("before-commit", database.table("accounts").get("bob")))
        yield txn.commit()
        observations.append(("after-commit", database.table("accounts").get("bob")))

    engine.process(writer())
    engine.run(until=10_000_000.0)
    assert observations == [("before-commit", None), ("after-commit", 50)]


def test_read_own_writes():
    engine, database = make_db()
    seen = []

    def proc():
        txn = database.begin()
        txn.write("accounts", "carol", 7)
        seen.append(txn.read("accounts", "carol"))
        yield txn.commit()

    engine.process(proc())
    engine.run(until=10_000_000.0)
    assert seen == [7]


def test_write_write_conflict_aborts_later_committer():
    engine, database = make_db()
    outcomes = []

    def racer(name, delay):
        yield engine.timeout(delay)
        txn = database.begin()
        balance = txn.read("accounts", "shared") or 0
        txn.write("accounts", "shared", balance + 1)
        yield engine.timeout(5_000.0)  # both read before either commits
        try:
            yield txn.commit()
            outcomes.append((name, "committed"))
        except TransactionAborted:
            outcomes.append((name, "aborted"))

    engine.process(racer("t1", 0.0))
    engine.process(racer("t2", 1.0))
    engine.run(until=100_000_000.0)
    assert sorted(result for _name, result in outcomes) == [
        "aborted", "committed"
    ]
    assert database.table("accounts").get("shared") == 1


def test_read_only_transaction_commits_instantly():
    engine, database = make_db()
    lsns = []

    def proc():
        txn = database.begin()
        txn.read("accounts", "nobody")
        lsn = yield txn.commit()
        lsns.append((lsn, engine.now))

    engine.process(proc())
    engine.run(until=10_000_000.0)
    assert lsns[0][0] == 0  # no log records emitted


def test_group_commit_batches_multiple_transactions():
    engine, database = make_db(group_commit_bytes=4096)

    def worker(key):
        txn = database.begin()
        txn.write("accounts", key, key * 2)
        yield txn.commit()

    for key in range(8):
        engine.process(worker(key))
    engine.run(until=10_000_000.0)
    assert database.stats.commits == 8
    # Far fewer flushes than transactions: the group absorbed them.
    assert database.log_manager.flushes < 8


def test_group_commit_timer_rescues_lone_transaction():
    engine, database = make_db(group_commit_bytes=1 << 20)  # never fills

    def proc():
        txn = database.begin()
        txn.write("accounts", "solo", 1)
        yield txn.commit()

    done = engine.process(proc())
    engine.run(until=50_000_000.0)
    assert done.triggered  # the timeout flushed the batch


def test_worker_runs_workload_to_count():
    engine, database = make_db()

    def bodies():
        key = 0
        while True:
            captured = key

            def body(txn, captured=captured):
                txn.write("accounts", f"k{captured}", captured)

            yield body
            key += 1

    done = database.run_worker(bodies(), transactions=5)
    engine.run(until=100_000_000.0)
    assert done.value == 5
    assert database.stats.commits == 5


def test_latency_recorded_per_commit():
    engine, database = make_db()

    def proc():
        txn = database.begin()
        txn.write("accounts", "x", 1)
        yield txn.commit()

    engine.process(proc())
    engine.run(until=10_000_000.0)
    assert database.stats.commits == 1
    assert database.stats.mean_latency_ns > 0


class TestDatabaseStats:
    def test_mean_latency(self):
        stats = DatabaseStats()
        for value in (10.0, 20.0, 30.0):
            stats.record_commit(value, now_ns=100.0)
        assert stats.mean_latency_ns == 20.0
        assert stats.commits == 3
        assert stats.last_commit_at == 100.0

    def test_empty_mean_latency_is_zero(self):
        assert DatabaseStats().mean_latency_ns == 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            DatabaseStats().record_commit(-1.0, now_ns=0.0)

    def test_windows_keep_only_commits_after_registration(self):
        stats = DatabaseStats()
        stats.record_commit(5.0, now_ns=0.0)  # before any reader: not kept
        stats.latency_windows["a"] = []
        stats.record_commit(7.0, now_ns=1.0)
        stats.latency_windows["b"] = []
        stats.record_commit(9.0, now_ns=2.0)
        assert stats.latency_windows == {"a": [7.0, 9.0], "b": [9.0]}


# Modules whose allocations a long-lived database must not accumulate.
LATENCY_STATE_FILES = (
    "*/repro/sim/stats.py",
    "*/repro/db/engine.py",
    "*/repro/db/wal.py",
    "*/repro/slo/signals.py",
)


def _latency_state_bytes(commits):
    """Bytes still held by LATENCY_STATE_FILES allocations after a run."""
    tracemalloc.start()
    try:
        engine = Engine()
        database = Database(engine, NoLogFile(engine))
        database.create_table("kv")

        def worker():
            for index in range(commits):
                txn = database.begin()
                txn.write("kv", f"k{index % 8}", index)
                yield txn.commit()

        engine.process(worker())
        engine.run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert database.stats.commits == commits
    watched = snapshot.filter_traces(
        [tracemalloc.Filter(True, pattern) for pattern in LATENCY_STATE_FILES]
    )
    return sum(stat.size for stat in watched.statistics("filename"))


def test_latency_state_does_not_grow_with_commits():
    small = _latency_state_bytes(300)
    large = _latency_state_bytes(3000)
    assert large - small <= 1024, (
        f"latency state grew {large - small} B from 300 to 3000 commits"
    )


def test_duplicate_table_rejected():
    engine, database = make_db()
    with pytest.raises(ValueError):
        database.create_table("accounts")


def test_unknown_table_rejected():
    engine, database = make_db()
    with pytest.raises(KeyError):
        database.table("ghosts")


def test_no_log_database_commits_fast():
    engine = Engine()
    database = Database(engine, NoLogFile(engine),
                        group_commit_timeout_ns=1_000.0)
    database.create_table("t")
    finish = []

    def proc():
        txn = database.begin()
        txn.write("t", 1, "v")
        yield txn.commit()
        finish.append(engine.now)

    engine.process(proc())
    engine.run(until=10_000_000.0)
    assert finish[0] < 100_000.0
