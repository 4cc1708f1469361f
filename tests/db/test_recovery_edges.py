"""Edge cases in log extraction and redo: deletes, torn batches,
secondary apply, and record sizing."""

from repro.db.engine import Database
from repro.db.log_record import (
    LogRecord,
    RecordKind,
    record_bytes,
)
from repro.db.recovery import LogReader, apply_transactions, extract_records
from repro.db.wal import LogBatch
from repro.host.baselines import NoLogFile
from repro.sim import Engine


def fresh_db(tables=("kv",)):
    engine = Engine()
    database = Database(engine, NoLogFile(engine))
    for name in tables:
        database.create_table(name)
    return database


class FakePage:
    """Minimal destage-page stand-in carrying chunk payloads."""

    def __init__(self, chunks):
        self.chunks = chunks


def page_for(batch, covered_bytes=None):
    """One page carrying ``covered_bytes`` of ``batch`` (all by default)."""
    nbytes = covered_bytes if covered_bytes is not None else batch.nbytes
    return FakePage([(0, nbytes, (batch, 0, nbytes))])


class TestExtractRecords:
    def test_full_batch_extracts_everything(self):
        records = [
            LogRecord(1, 1, RecordKind.UPDATE, "kv", "a", "v1"),
            LogRecord(2, 1, RecordKind.COMMIT),
        ]
        batch = LogBatch(records)
        assert extract_records([page_for(batch)]) == records

    def test_torn_batch_extracts_covered_prefix_only(self):
        records = [
            LogRecord(1, 1, RecordKind.UPDATE, "kv", "a", "v1"),
            LogRecord(2, 1, RecordKind.COMMIT),
        ]
        batch = LogBatch(records)
        only_first = records[0].nbytes
        extracted = extract_records([page_for(batch, only_first)])
        assert extracted == [records[0]]

    def test_chunks_without_payload_are_skipped(self):
        page = FakePage([(0, 64, None)])
        assert extract_records([page]) == []

    def test_batch_bytes_spread_over_pages_accumulate(self):
        records = [
            LogRecord(1, 1, RecordKind.UPDATE, "kv", "a", "x" * 100),
            LogRecord(2, 1, RecordKind.COMMIT),
        ]
        batch = LogBatch(records)
        half = batch.nbytes // 2
        pages = [
            FakePage([(0, half, (batch, 0, half))]),
            FakePage([(half, batch.nbytes - half,
                       (batch, half, batch.nbytes - half))]),
        ]
        assert extract_records(pages) == records


def apply_committed(database, records):
    """Commit-gate ``records`` and apply them (the secondary's hot path)."""
    return apply_transactions(database, LogReader().committed(records))


class TestApplyRecords:
    def test_delete_records_remove_rows(self):
        database = fresh_db()
        database.table("kv").install("doomed", "exists", 1)
        records = [
            LogRecord(10, 5, RecordKind.DELETE, "kv", "doomed", None),
            LogRecord(11, 5, RecordKind.COMMIT),
        ]
        applied = apply_committed(database, records)
        assert applied == 1
        assert database.table("kv").get("doomed") is None

    def test_uncommitted_records_not_applied(self):
        database = fresh_db()
        records = [
            LogRecord(10, 5, RecordKind.UPDATE, "kv", "a", "torn"),
            # no COMMIT for txn 5
        ]
        assert apply_committed(database, records) == 0
        assert database.table("kv").get("a") is None

    def test_last_writer_wins_across_transactions(self):
        database = fresh_db()
        records = [
            LogRecord(1, 1, RecordKind.UPDATE, "kv", "a", "first"),
            LogRecord(2, 1, RecordKind.COMMIT),
            LogRecord(3, 2, RecordKind.UPDATE, "kv", "a", "second"),
            LogRecord(4, 2, RecordKind.COMMIT),
        ]
        apply_committed(database, records)
        assert database.table("kv").get("a") == "second"

    def test_abort_records_are_inert(self):
        database = fresh_db()
        records = [
            LogRecord(1, 1, RecordKind.UPDATE, "kv", "a", "x"),
            LogRecord(2, 1, RecordKind.ABORT),
        ]
        assert apply_committed(database, records) == 0


class TestRecordSizing:
    def test_header_floor(self):
        record = LogRecord(1, 1, RecordKind.COMMIT)
        assert record.nbytes == 32  # header only

    def test_sizes_scale_with_payload(self):
        small = LogRecord(1, 1, RecordKind.UPDATE, "t", "k", "v")
        big = LogRecord(2, 1, RecordKind.UPDATE, "t", "k", "v" * 1000)
        assert big.nbytes - small.nbytes == 999

    def test_dict_and_tuple_footprints(self):
        record = LogRecord(
            1, 1, RecordKind.UPDATE, "t",
            key=(1, 2), value={"balance": 1.5, "data": "abcd"},
        )
        # key: 2 ints = 16; value: 7+4 strings... footprint is
        # deterministic and positive; exact arithmetic asserted loosely.
        assert record.nbytes > 32 + 16

    def test_none_value_is_free(self):
        deletion = LogRecord(1, 1, RecordKind.DELETE, "t", "k", None)
        assert record_bytes(deletion) == 32 + 1  # header + 1-char key

    def test_opaque_objects_have_placeholder_cost(self):
        class Opaque:
            pass

        record = LogRecord(1, 1, RecordKind.UPDATE, "t", "k", Opaque())
        assert record.nbytes == 32 + 1 + 16
