"""Recovery: rebuilding committed state from the destaged log.

The destaged stream on the conventional side carries the WAL as chunk
payloads of the form ``(batch, cursor, step)`` — a byte slice of one
:class:`~repro.db.wal.LogBatch`.  :class:`LogReader`, the one decoder of
that stream, walks the pages in stream order, reassembles how many bytes
of each batch made it to durable storage, takes the record prefix those
bytes fully cover (the torn-tail rule), and hands back every transaction
whose COMMIT record survived, in commit-LSN order.

This is redo-only (ARIES-lite) recovery, which suffices because the
engine installs values into tables only after durability: there is never
an un-undone dirty page to roll back.
"""

from operator import attrgetter

from repro.db.engine import Database
from repro.db.log_record import RecordKind
from repro.host.baselines import NoLogFile
from repro.sim import Engine

_LSN = attrgetter("lsn")


class LogReader:
    """Incremental decoder of one destaged WAL stream.

    A batch can straddle pages and read rounds, so per-batch byte
    coverage, the page cursor of :meth:`scan` (which needs ``device``)
    and each open transaction's data records persist between calls.  A
    batch's coverage goes once its last byte is fed: its chunks come in
    cursor order, so nothing more of it can follow.

    Pipelined flushes (``max_inflight_flushes > 1``) interleave several
    batches' chunks in the stream, and one transaction's records may be
    split across two batches, so a later batch's COMMIT can land below
    an earlier batch's tail.  The reader therefore holds each COMMIT of
    batch *b* until it has seen the last byte of every batch with a
    lower ``LogBatch.sequence``.  One ``x_pwrite`` claims a batch's
    chunks in cursor order, so seeing a batch's last byte means all of
    it is in the prefix.  With one flush slot a batch's bytes all
    precede the next batch's, and nothing is ever held.

    The count starts at the first batch sequence this reader sees.  A
    reader that starts mid-stream (at the ring head, say) never waits
    for batches below that sequence: their commits, if any of their
    chunks come later, are released as soon as they are covered, and
    they gate nothing.
    """

    def __init__(self, device=None):
        self.device = device
        self.pages_read = 0
        self._next_sequence = None
        # batch -> [bytes seen not yet emitted, emitted], kept only until
        # the batch's last byte is seen, so memory follows the batches in
        # flight rather than the length of the log.
        self._coverage = {}
        self._held = {}  # txn_id -> data records awaiting a durable COMMIT
        self._gate = None  # lowest batch sequence not yet seen whole
        self._whole = set()  # sequences above the gate seen whole
        self._gated_commits = {}  # sequence -> COMMITs awaiting the gate

    def feed(self, pages):
        """The records ``pages`` newly make durable, in stream order
        (a held COMMIT follows the chunk that releases it)."""
        fresh = []
        coverage = self._coverage
        for page in pages:
            for _offset, _nbytes, payload in page.chunks:
                if payload is None:
                    continue
                batch, cursor, step = payload
                sequence = batch.sequence
                if self._gate is None:
                    self._gate = sequence
                entry = coverage.setdefault(batch, [0, 0])
                spare, emitted = entry[0] + step, entry[1]
                records = batch.records
                gated = sequence > self._gate
                while (emitted < len(records)
                       and records[emitted].nbytes <= spare):
                    record = records[emitted]
                    spare -= record.nbytes
                    if gated and record.kind is RecordKind.COMMIT:
                        self._gated_commits.setdefault(sequence, []).append(
                            record)
                    else:
                        fresh.append(record)
                    emitted += 1
                if cursor + step < batch.nbytes:
                    entry[0], entry[1] = spare, emitted
                    continue
                del coverage[batch]  # its last byte: forget the batch
                if sequence >= self._gate:
                    self._seen_whole(sequence, fresh)
        return fresh

    def _seen_whole(self, sequence, fresh):
        """Advance the gate over whole batches; release what it passes."""
        whole = self._whole
        whole.add(sequence)
        gate = self._gate
        while gate in whole:
            whole.discard(gate)
            gate += 1
            fresh.extend(self._gated_commits.pop(gate, ()))
        self._gate = gate

    def scan(self):
        """Feed the pages from the cursor (or the ring head, if later)
        to the durable tail (sim body).  State moves only once the whole
        round is read, so a failed page read loses no records.  Rounds
        may overlap (the DR archiver drains beside its segment loop); a
        page that an overlapping round fed while this one read is not
        fed again, since :meth:`feed` forgets a batch at its last byte."""
        destage = self.device.destage
        start = destage.head_sequence
        if self._next_sequence is not None:
            start = max(self._next_sequence, start)
        sequence = start
        pages = []
        while sequence < destage.durable_tail:
            pages.append((yield destage.read_page(sequence)))
            sequence += 1
        self.pages_read += len(pages)
        fed = self._next_sequence
        if fed is not None and fed > start:
            pages = pages[fed - start:]
            sequence = max(sequence, fed)
        self._next_sequence = sequence
        return self.feed(pages)

    def committed(self, records):
        """``(commit, data records)`` per COMMIT in ``records``, both in
        LSN order; data waits for its COMMIT across calls."""
        held = self._held
        commits = []
        for record in records:
            if record.kind is RecordKind.COMMIT:
                commits.append(record)
            elif record.is_data():
                held.setdefault(record.txn_id, []).append(record)
        commits.sort(key=_LSN)
        return [
            (commit, sorted(held.pop(commit.txn_id, ()), key=_LSN))
            for commit in commits
        ]


def _committed(pages):
    reader = LogReader()
    return reader.committed(reader.feed(pages))


def extract_records(pages):
    """The fully durable records in ``pages`` (stream order), LSN order."""
    return sorted(LogReader().feed(pages), key=_LSN)


def durable_commit_ids(pages):
    """Transaction ids whose COMMIT record is fully durable, in LSN order.

    The commit order on the log is the order transactions became durable,
    which is what differential checkers compare against a reference
    model's submission order.
    """
    return [commit.txn_id for commit, _data in _committed(pages)]


def apply_transactions(database, transactions):
    """Install each ``(commit, data)`` pair's rows at its commit LSN;
    returns how many transactions carried data."""
    applied = 0
    for commit, data in transactions:
        for record in data:
            value = None if record.kind is RecordKind.DELETE else record.value
            database.table(record.table).install(record.key, value,
                                                 commit.lsn)
        applied += bool(data)
    return applied


def recover_from_pages(database, pages):
    """Redo the durable log into ``database``'s tables.

    Only transactions with a durable COMMIT record are applied (atomicity:
    a torn tail cannot expose half a transaction).  Returns the number of
    transactions redone.
    """
    return apply_transactions(database, _committed(pages))


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
