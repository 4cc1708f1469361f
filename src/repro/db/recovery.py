"""Recovery: rebuilding committed state from the destaged log.

The destaged stream on the conventional side carries the WAL as chunk
payloads of the form ``(batch, cursor, step)`` — a byte slice of one
:class:`~repro.db.wal.LogBatch`.  Recovery walks the pages in stream
order, reassembles how many bytes of each batch made it to durable
storage, takes the record prefix those bytes fully cover, and redoes
every record belonging to a transaction whose COMMIT record survived.

This is redo-only (ARIES-lite) recovery, which suffices because the
engine installs values into tables only after durability: there is never
an un-undone dirty page to roll back.
"""

from repro.db.engine import Database
from repro.db.log_record import RecordKind
from repro.host.baselines import NoLogFile
from repro.sim import Engine


def extract_records(pages):
    """Reassemble the durable record stream from destaged pages.

    ``pages`` are :class:`~repro.core.destage.DestagePage` objects in
    stream order.  Returns the list of fully durable records, in LSN
    order.  A batch whose tail bytes miss the durable prefix contributes
    only the records its covered bytes span — the torn-tail rule.
    """
    covered_bytes = {}  # id(batch) -> (batch, bytes seen)
    order = []  # batches in first-seen order
    for page in pages:
        for _offset, nbytes, payload in page.chunks:
            if payload is None:
                continue
            batch, _cursor, step = payload
            key = id(batch)
            if key not in covered_bytes:
                covered_bytes[key] = [batch, 0]
                order.append(key)
            covered_bytes[key][1] += step
    records = []
    for key in order:
        batch, nbytes = covered_bytes[key]
        records.extend(batch.records_covered_by(nbytes))
    records.sort(key=lambda record: record.lsn)
    return records


def durable_commit_ids(pages):
    """Transaction ids whose COMMIT record is fully durable, in LSN order.

    The commit order on the log is the order transactions became durable,
    which is what differential checkers compare against a reference
    model's submission order.
    """
    commits = [
        record for record in extract_records(pages)
        if record.kind is RecordKind.COMMIT
    ]
    commits.sort(key=lambda record: record.lsn)
    return [record.txn_id for record in commits]


def recover_from_pages(database, pages):
    """Redo the durable log into ``database``'s tables.

    Only transactions with a durable COMMIT record are applied (atomicity:
    a torn tail cannot expose half a transaction).  Returns the number of
    transactions redone.
    """
    records = extract_records(pages)
    committed = {
        record.txn_id
        for record in records
        if record.kind is RecordKind.COMMIT
    }
    commit_lsn_of = {
        record.txn_id: record.lsn
        for record in records
        if record.kind is RecordKind.COMMIT
    }
    redone = set()
    for record in records:
        if not record.is_data() or record.txn_id not in committed:
            continue
        table = database.table(record.table)
        value = None if record.kind is RecordKind.DELETE else record.value
        table.install(record.key, value, commit_lsn_of[record.txn_id])
        redone.add(record.txn_id)
    return len(redone)


def recover_pages(pages, tables):
    """Replay ``pages`` into a fresh database that holds ``tables``.

    The database runs on its own engine with logging off, so the replay
    never touches the crashed run.  Returns ``(database,
    transactions_redone)``.
    """
    fresh = Engine()
    database = Database(fresh, NoLogFile(fresh))
    for table in tables:
        database.create_table(table)
    return database, recover_from_pages(database, pages)


def apply_records(database, records):
    """Apply already-extracted records (the secondary's hot-apply path)."""
    committed = {
        record.txn_id
        for record in records
        if record.kind is RecordKind.COMMIT
    }
    commit_lsn_of = {
        record.txn_id: record.lsn
        for record in records
        if record.kind is RecordKind.COMMIT
    }
    applied = set()
    for record in records:
        if not record.is_data() or record.txn_id not in committed:
            continue
        value = None if record.kind is RecordKind.DELETE else record.value
        database.table(record.table).install(
            record.key, value, commit_lsn_of[record.txn_id]
        )
        applied.add(record.txn_id)
    return len(applied)
