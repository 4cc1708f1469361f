"""The one WAL decoder: incremental feeds, commit gating, failed scans,
and a hot standby that keeps one reader across ``x_pread`` rounds."""

from collections import Counter
from types import SimpleNamespace

from repro.cluster.topology import SecondaryApplyLoop
from repro.core.crash import PowerLossInjector, read_durable_pages
from repro.db.engine import Database
from repro.db.log_record import LogRecord, RecordKind
from repro.db.recovery import LogReader, extract_records, recover_pages
from repro.db.wal import LogBatch
from repro.host.api import XssdLogFile
from repro.host.baselines import NoLogFile
from repro.sim import Engine
from repro.sim.units import KIB
from repro.workloads.tpcc import TABLES, TpccWorkload

from tests.conftest import make_xssd_device


def tpcc_log(workers, transactions, group_commit_bytes,
             group_commit_timeout_ns=20_000.0, max_inflight_flushes=1):
    """Run TPC-C on a device, cut power, and read its durable pages."""
    engine, device = make_xssd_device(blocks_per_die=64)
    database = Database(engine, XssdLogFile(device),
                        group_commit_bytes=group_commit_bytes,
                        group_commit_timeout_ns=group_commit_timeout_ns,
                        max_inflight_flushes=max_inflight_flushes)
    TpccWorkload.create_schema(database)
    TpccWorkload().populate(database)
    done = [
        database.run_worker(TpccWorkload(worker_id=worker),
                            transactions=transactions // workers)
        for worker in range(workers)
    ]
    while not all(event.triggered for event in done):
        engine.run(until=engine.now + 1e6)
    PowerLossInjector(engine, device).power_loss()
    pages, errors = read_durable_pages(engine, device)
    assert not errors
    return engine, device, pages


def chunk(batch, cursor, step):
    return (0, step, (batch, cursor, step))


class TestFeed:
    def test_records_emit_per_chunk_in_stream_order(self):
        first = LogBatch([
            LogRecord(1, 1, RecordKind.UPDATE, "kv", "a", "x" * 40),
            LogRecord(2, 1, RecordKind.COMMIT),
        ])
        second = LogBatch([
            LogRecord(3, 2, RecordKind.UPDATE, "kv", "b", "y" * 40),
            LogRecord(4, 2, RecordKind.COMMIT),
        ])
        a, b = first.records, second.records
        reader = LogReader()
        # Concurrent flushes interleave the two batches' chunks.
        page = SimpleNamespace(chunks=[
            chunk(second, 0, b[0].nbytes),
            chunk(first, 0, a[0].nbytes + 10),
        ])
        assert reader.feed([page]) == [b[0], a[0]]
        page = SimpleNamespace(chunks=[
            chunk(first, a[0].nbytes + 10, a[1].nbytes - 10),
            chunk(second, b[0].nbytes, b[1].nbytes),
        ])
        assert reader.feed([page]) == [a[1], b[1]]
        assert reader.feed([page]) == []  # fully emitted batches stay quiet

    def test_committed_holds_data_until_the_commit_arrives(self):
        data = LogRecord(1, 7, RecordKind.UPDATE, "kv", "a", "v")
        commit = LogRecord(2, 7, RecordKind.COMMIT)
        later = LogRecord(3, 8, RecordKind.UPDATE, "kv", "b", "w")
        later_commit = LogRecord(4, 8, RecordKind.COMMIT)
        reader = LogReader()
        assert reader.committed([data, later]) == []
        assert reader.committed([later_commit, commit]) == [
            (commit, [data]),
            (later_commit, [later]),
        ]


def test_pipelined_flushes_never_release_half_a_transaction():
    """Eight flush slots interleave concurrent batches' chunks, and the
    log manager may split one transaction across two batches, so a
    later batch's COMMIT can land below an earlier batch's tail.  On
    every page-aligned prefix of the durable log, each COMMIT the reader
    releases must come with all of its transaction's data records."""
    _engine, _device, pages = tpcc_log(
        workers=8, transactions=800, group_commit_bytes=16 * KIB,
        group_commit_timeout_ns=100_000.0, max_inflight_flushes=8,
    )
    data_records = Counter()
    batches = {}
    for page in pages:
        for _offset, _nbytes, payload in page.chunks:
            if payload is not None and id(payload[0]) not in batches:
                batches[id(payload[0])] = payload[0]
                data_records.update(record.txn_id
                                    for record in payload[0].records
                                    if record.is_data())
    torn = []
    for end in range(len(pages) + 1):
        reader = LogReader()
        for commit, data in reader.committed(reader.feed(pages[:end])):
            if len(data) != data_records[commit.txn_id]:
                torn.append((end, commit.txn_id))
    assert not torn, f"half-installed transactions (prefix, txn): {torn}"
    # Every worker finished before the cut, so every batch is whole and
    # the full log releases every COMMIT it carries: nothing stays held.
    reader = LogReader()
    released = reader.committed(reader.feed(pages))
    assert len(released) == sum(
        record.kind is RecordKind.COMMIT
        for batch in batches.values() for record in batch.records
    )


def test_reader_keeps_no_coverage_for_batches_seen_whole():
    """A long-lived reader (the hot standby, the archiver, a migration)
    keeps a batch's coverage only while the batch is in flight: once its
    last byte has been fed, the entry and the batch it pins are gone,
    and feeding page by page emits what one whole feed does."""
    _engine, _device, pages = tpcc_log(workers=4, transactions=400,
                                       group_commit_bytes=4 * KIB)
    reader = LogReader()
    fed = []
    whole = set()
    for page in pages:
        fed += reader.feed([page])
        for _offset, _nbytes, payload in page.chunks:
            if payload is not None:
                batch, cursor, step = payload
                if cursor + step == batch.nbytes:
                    whole.add(id(batch))
        assert not whole & {id(batch) for batch in reader._coverage}
    assert len(whole) > 100
    # Every worker finished before the cut, so every batch is whole.
    assert reader._coverage == {}
    assert fed == LogReader().feed(pages)


def test_failed_page_read_loses_no_records():
    """A scan round that dies on its third page read advances nothing:
    the next round re-reads it, so every durable record is returned."""
    engine, device, pages = tpcc_log(workers=1, transactions=200,
                                     group_commit_bytes=2 * KIB)
    destage = device.destage
    read_page = destage.read_page
    reads = []

    def flaky_read_page(sequence):
        reads.append(sequence)
        if len(reads) == 3:
            raise RuntimeError("page read failed")
        return read_page(sequence)

    destage.read_page = flaky_read_page
    reader = LogReader(device)
    scanned = []
    failures = []

    def scan_round():
        try:
            scanned.extend((yield from reader.scan()))
        except RuntimeError as error:
            failures.append(error)

    for _round in range(2):
        done = engine.process(scan_round())
        while not done.triggered:
            engine.run(until=engine.now + 1e6)
    assert len(failures) == 1
    assert len(pages) > 3
    assert reader.pages_read == len(pages)
    assert sorted(scanned, key=lambda record: record.lsn) == (
        extract_records(pages)
    )


def test_overlapping_scan_rounds_feed_each_page_once():
    """Two scan rounds over one reader that overlap in time (the DR
    archiver drains beside its segment loop) read the same pages; the
    round that finishes second must not feed them again, or a batch the
    reader already forgot would be decoded twice."""
    engine, device, pages = tpcc_log(workers=1, transactions=200,
                                     group_commit_bytes=2 * KIB)
    reader = LogReader(device)
    scanned = []

    def scan_round():
        scanned.extend((yield from reader.scan()))

    rounds = [engine.process(scan_round()) for _round in range(2)]
    while not all(done.triggered for done in rounds):
        engine.run(until=engine.now + 1e6)
    assert reader.pages_read == 2 * len(pages)
    assert sorted(scanned, key=lambda record: record.lsn) == (
        extract_records(pages)
    )


class RoundLog:
    """An ``x_pread`` stand-in handing out recorded pages a few a round."""

    def __init__(self, engine, pages, per_round):
        self.engine = engine
        self.pages = pages
        self.per_round = per_round
        self.read_sequence = 0

    def x_pread(self, min_bytes=1):
        def read_round():
            yield self.engine.timeout(1_000.0)
            start = self.read_sequence
            self.read_sequence = min(start + self.per_round, len(self.pages))
            return self.pages[start:self.read_sequence]

        return self.engine.process(read_round())


def test_standby_decodes_batches_straddling_pread_rounds():
    """The hot standby keeps one reader for the life of its loop, so a
    batch split across two ``x_pread`` rounds applies exactly once."""
    _engine, _device, pages = tpcc_log(workers=8, transactions=400,
                                       group_commit_bytes=16 * KIB)
    per_round = 5
    rounds_of = {}
    for index, page in enumerate(pages):
        for _offset, _nbytes, payload in page.chunks:
            if payload is not None:
                rounds_of.setdefault(id(payload[0]), set()).add(
                    index // per_round
                )
    assert any(len(rounds) > 1 for rounds in rounds_of.values())

    engine = Engine()
    standby = Database(engine, NoLogFile(engine), name="standby")
    TpccWorkload.create_schema(standby)
    log = RoundLog(engine, pages, per_round)
    server = SimpleNamespace(
        log=log,
        device=SimpleNamespace(
            destage=SimpleNamespace(durable_tail=len(pages))
        ),
    )
    loop = SecondaryApplyLoop(engine, server, standby, poll_ns=1_000.0)
    loop.start()
    while log.read_sequence < len(pages):
        engine.run(until=engine.now + 100_000.0)
    loop.stop()
    engine.run(until=engine.now + 100_000.0)

    recovered, redone = recover_pages(pages, TABLES)
    assert loop.transactions_applied == redone > 0
    for name in TABLES:
        assert dict(standby.table(name).scan()) == (
            dict(recovered.table(name).scan())
        ), name
