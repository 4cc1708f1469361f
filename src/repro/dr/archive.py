"""WAL archival: tail the committed log, seal segments, ship to the grid.

One :class:`Archiver` per fleet node tails the node primary's destage
ring through the same incremental readback scanner the rebalancer uses
(:class:`~repro.cluster.rebalance.StreamScanner`) — the archival path is
the traced pipeline itself, not a side channel, so the model checker
reasons about it with the machinery it already has.  Durable records
accumulate in a buffer; when the buffer crosses ``segment_bytes`` the
archiver seals a :dfn:`WAL segment`, uploads it, reads it back to verify
the landed checksum (catching torn uploads), and re-ships the manifest.
A second loop takes periodic snapshots of the node database's committed
tables so restores replay a bounded tail instead of the whole history.

Everything that crosses the wire is a plain JSON-able dict serialized by
:func:`canonical_json` — sorted keys, compact separators — so manifests
and checksums are byte-stable across processes and platforms
(``PYTHONHASHSEED`` cannot perturb them; the property tests prove it).
"""

import hashlib
import json

from repro.db.log_record import LogRecord, RecordKind
from repro.dr.grid import GridUnavailable

MANIFEST_VERSION = 1


# -- serialization -------------------------------------------------------------------


def encode_value(value):
    """Lift a record key/value into JSON-able form, tagged for round-trip.

    JSON has no tuples and only string dict keys; both appear in record
    keys (TPC-C composite keys).  Tagging keeps decoding unambiguous:
    a genuine dict ``{"__tuple__": ...}`` would be mis-decoded, so dicts
    are always shipped as tagged pair lists.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"__list__": [encode_value(item) for item in value]}
    if isinstance(value, dict):
        return {"__dict__": [
            [encode_value(key), encode_value(val)]
            for key, val in value.items()
        ]}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    raise TypeError(f"cannot archive value of type {type(value).__name__}")


def decode_value(encoded):
    """Inverse of :func:`encode_value`."""
    if encoded is None or isinstance(encoded, (bool, int, float, str)):
        return encoded
    if isinstance(encoded, dict):
        if "__tuple__" in encoded:
            return tuple(decode_value(item) for item in encoded["__tuple__"])
        if "__list__" in encoded:
            return [decode_value(item) for item in encoded["__list__"]]
        if "__dict__" in encoded:
            return {
                decode_value(key): decode_value(val)
                for key, val in encoded["__dict__"]
            }
        if "__bytes__" in encoded:
            return bytes.fromhex(encoded["__bytes__"])
    raise TypeError(f"cannot decode archived value: {encoded!r}")


def record_to_dict(record):
    return {
        "lsn": record.lsn,
        "txn": record.txn_id,
        "kind": record.kind.value,
        "table": record.table,
        "key": encode_value(record.key),
        "value": encode_value(record.value),
    }


def record_from_dict(data):
    return LogRecord(
        lsn=data["lsn"],
        txn_id=data["txn"],
        kind=RecordKind(data["kind"]),
        table=data["table"],
        key=decode_value(data["key"]),
        value=decode_value(data["value"]),
    )


def canonical_json(payload):
    """The one serialization: sorted keys, compact, no trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload):
    """Content digest of a payload's canonical bytes."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# -- payload builders ----------------------------------------------------------------


def segment_payload(node, seq, records):
    """A sealed WAL segment: records in LSN order, self-describing bounds."""
    ordered = sorted(records, key=lambda record: record.lsn)
    return {
        "kind": "segment",
        "node": node,
        "seq": seq,
        "first_lsn": ordered[0].lsn,
        "last_lsn": ordered[-1].lsn,
        "records": [record_to_dict(record) for record in ordered],
    }


def snapshot_payload(node, seq, database):
    """The node database's committed state, cut at its installed frontier.

    Rows carry their commit LSN so replay on top stays idempotent; the
    snapshot's ``as_of_lsn`` is the highest installed commit LSN, and a
    restore replays only transactions committing after it (re-applying a
    boundary transaction would be a harmless same-value install anyway).
    Row lists are sorted by encoded key, so equal states serialize to
    identical bytes.
    """
    tables = {}
    as_of_lsn = 0
    for name, table in sorted(database.tables().items()):
        rows = []
        for key, value in table.scan():
            version = table.version_of(key)
            as_of_lsn = max(as_of_lsn, version)
            rows.append([encode_value(key), encode_value(value), version])
        rows.sort(key=lambda row: canonical_json(row[0]))
        tables[name] = rows
    return {
        "kind": "snapshot",
        "node": node,
        "seq": seq,
        "as_of_lsn": as_of_lsn,
        "tables": tables,
    }


def payload_nbytes(payload):
    """Wire size of a payload: its canonical serialization's length."""
    return len(canonical_json(payload).encode("utf-8"))


def manifest_key(node):
    return f"{node}/manifest"


def segment_key(node, seq):
    return f"{node}/wal/{seq:06d}"


def snapshot_key(node, seq):
    return f"{node}/snapshot/{seq:06d}"


# -- the archiver --------------------------------------------------------------------


class Archiver:
    """Tail one node's durable WAL and ship it to the grid.

    Two background processes: the segment loop polls the destage ring
    every ``poll_ns``, buffers fresh durable records, and seals/ships a
    segment whenever the buffer crosses ``segment_bytes``; the snapshot
    loop (enabled when ``snapshot_every_ns > 0``) captures the database's
    committed tables on a period.  Every upload is verified by readback
    (landed checksum vs intended) and retried through partitions after
    ``retry_ns``.  The manifest — the byte-stable index restores start
    from — re-ships after every successful object upload.

    With ``retention=True``, each successful snapshot also compacts the
    archive: sealed segments whose every LSN the snapshot covers are
    dropped from the manifest (atomically — the slimmed manifest ships
    before any object is deleted) and their grid objects reclaimed.
    ``keep_segments`` holds back that many newest covered segments as
    PITR headroom below the snapshot boundary.

    ``drop_segment_seqs`` seeds the archiver bug the mutation tests
    prove the ``dr`` checker tier catches: listed segment seqs are
    sealed, recorded in the manifest, and counted as archived — but
    never uploaded.
    """

    def __init__(self, engine, node, device, database, grid,
                 poll_ns=40_000.0, segment_bytes=2048,
                 snapshot_every_ns=0.0, retry_ns=60_000.0,
                 retention=False, keep_segments=0,
                 drop_segment_seqs=()):
        from repro.cluster.rebalance import StreamScanner

        self.engine = engine
        self.node = node
        self.device = device
        self.database = database
        self.grid = grid
        self.poll_ns = float(poll_ns)
        self.segment_bytes = int(segment_bytes)
        self.snapshot_every_ns = float(snapshot_every_ns)
        self.retry_ns = float(retry_ns)
        self.retention = bool(retention)
        self.keep_segments = int(keep_segments)
        if self.keep_segments < 0:
            raise ValueError("keep_segments must be >= 0")
        self.drop_segment_seqs = frozenset(drop_segment_seqs)
        self.track = f"{node}.dr"
        self.running = False
        self._scanner = StreamScanner(device)
        self._buffer = []  # durable records awaiting a segment seal
        self._buffered_bytes = 0
        self._segment_entries = []  # manifest entries, seal order
        self._snapshot_entries = []
        self._next_segment_seq = 0
        self._next_snapshot_seq = 0
        self.archived_lsn = 0
        self.segments_shipped = 0
        self.snapshots_taken = 0
        self.bytes_shipped = 0
        self.upload_retries = 0
        self.torn_detected = 0
        self.dropped_segments = 0
        self.segments_pruned = 0
        self.bytes_reclaimed = 0
        self.prune_failures = 0
        self.scan_errors = 0
        self.events = []  # [{"time_ns", "action", "seq"}, ...]

    # -- lifecycle -----------------------------------------------------------------

    def start(self):
        if self.running:
            raise RuntimeError("archiver already started")
        self.running = True
        self.engine.process(self._segment_loop(),
                            name=f"{self.node}-archiver")
        if self.snapshot_every_ns > 0:
            self.engine.process(self._snapshot_loop(),
                                name=f"{self.node}-snapshotter")
        return self

    def stop(self):
        self.running = False

    @property
    def archive_lag_lsn(self):
        """Durable LSNs the archive does not cover yet (0 = caught up)."""
        return max(0, self.database.log_manager.durable_lsn
                   - self.archived_lsn)

    def manifest_payload(self):
        return {
            "kind": "manifest",
            "version": MANIFEST_VERSION,
            "node": self.node,
            "segments": list(self._segment_entries),
            "snapshots": list(self._snapshot_entries),
        }

    # -- the loops -----------------------------------------------------------------

    def _segment_loop(self):
        while self.running:
            yield self.engine.timeout(self.poll_ns)
            if not self.running:
                break
            try:
                fresh = yield from self._scanner.scan()
            except Exception:  # noqa: BLE001 — device died under the scan
                self.scan_errors += 1
                if not self.running:
                    break
                continue
            for record in fresh:
                self._buffer.append(record)
                self._buffered_bytes += record.nbytes
            while self._buffered_bytes >= self.segment_bytes and self._buffer:
                yield from self._seal_and_ship()
            self._note_lag()

    def _snapshot_loop(self):
        while self.running:
            yield self.engine.timeout(self.snapshot_every_ns)
            if not self.running:
                break
            yield from self._take_snapshot()

    def drain(self):
        """Ship everything outstanding: final scan, final segment, snapshot.

        A sim process (``yield from``) used by benches and tests to
        quiesce the archive before measuring a restore; a crashed node
        never gets to drain — that lag is exactly what the archive-lag
        check family probes.
        """
        try:
            fresh = yield from self._scanner.scan()
        except Exception:  # noqa: BLE001
            self.scan_errors += 1
            fresh = []
        for record in fresh:
            self._buffer.append(record)
            self._buffered_bytes += record.nbytes
        while self._buffer:
            yield from self._seal_and_ship()
        if self.snapshot_every_ns >= 0:
            yield from self._take_snapshot()
        self._note_lag()

    # -- sealing and shipping ------------------------------------------------------

    def _seal_and_ship(self):
        take, taken_bytes = [], 0
        while self._buffer and taken_bytes < self.segment_bytes:
            record = self._buffer.pop(0)
            take.append(record)
            taken_bytes += record.nbytes
        self._buffered_bytes -= taken_bytes
        seq = self._next_segment_seq
        self._next_segment_seq += 1
        payload = segment_payload(self.node, seq, take)
        checksum = payload_checksum(payload)
        nbytes = payload_nbytes(payload)
        entry = {
            "seq": seq,
            "key": segment_key(self.node, seq),
            "first_lsn": payload["first_lsn"],
            "last_lsn": payload["last_lsn"],
            "records": len(payload["records"]),
            "nbytes": nbytes,
            "checksum": checksum,
        }
        if seq in self.drop_segment_seqs:
            # The seeded bug: the archiver *believes* this segment
            # shipped — manifest entry, archived frontier, counters all
            # advance — but the object never goes out.
            self.dropped_segments += 1
            self._segment_entries.append(entry)
            self.archived_lsn = max(self.archived_lsn, entry["last_lsn"])
            self._event("drop-segment", seq)
            yield from self._ship_manifest()
            return
        yield from self._upload_verified(entry["key"], payload, nbytes,
                                         checksum, "ship-segment", seq)
        self._segment_entries.append(entry)
        self.segments_shipped += 1
        self.bytes_shipped += nbytes
        self.archived_lsn = max(self.archived_lsn, entry["last_lsn"])
        self._event("ship-segment", seq)
        yield from self._ship_manifest()

    def _take_snapshot(self):
        seq = self._next_snapshot_seq
        self._next_snapshot_seq += 1
        payload = snapshot_payload(self.node, seq, self.database)
        checksum = payload_checksum(payload)
        nbytes = payload_nbytes(payload)
        yield from self._upload_verified(snapshot_key(self.node, seq),
                                         payload, nbytes, checksum,
                                         "ship-snapshot", seq)
        self._snapshot_entries.append({
            "seq": seq,
            "key": snapshot_key(self.node, seq),
            "as_of_lsn": payload["as_of_lsn"],
            "rows": sum(len(rows) for rows in payload["tables"].values()),
            "nbytes": nbytes,
            "checksum": checksum,
        })
        self.snapshots_taken += 1
        self.bytes_shipped += nbytes
        self._event("ship-snapshot", seq)
        pruned = self._prunable_segments() if self.retention else []
        if pruned:
            # Atomic cutover: drop the covered entries from the manifest
            # *before* it ships, so no manifest the grid ever serves
            # references an object a later delete removes.  Objects are
            # only deleted after the pruned manifest has verifiably
            # landed; a partition mid-delete leaves harmless garbage
            # (unreferenced objects), never a dangling manifest entry.
            self._segment_entries = self._segment_entries[len(pruned):]
        yield from self._ship_manifest()
        for entry in pruned:
            try:
                yield from self.grid.delete(entry["key"])
            except GridUnavailable:
                self.prune_failures += 1
                continue
            self.segments_pruned += 1
            self.bytes_reclaimed += entry["nbytes"]
            self._event("prune-segment", entry["seq"])

    def _prunable_segments(self):
        """The manifest-prefix of sealed segments a snapshot fully covers.

        A segment is covered when its ``last_lsn`` is at or below the
        newest snapshot's ``as_of_lsn``: every transaction it holds is
        already folded into that snapshot's state, so restores (and
        PITR targets at or after the snapshot) never need it.  Pruning
        is prefix-only, which keeps the retained segment chain
        LSN-contiguous for :meth:`~repro.dr.restore.Archive.verify`;
        ``keep_segments`` retains that many newest covered segments as
        extra PITR headroom below the snapshot boundary.
        """
        if not self._snapshot_entries:
            return []
        as_of = max(entry["as_of_lsn"] for entry in self._snapshot_entries)
        covered = 0
        for entry in self._segment_entries:
            if entry["last_lsn"] > as_of:
                break
            covered += 1
        covered = max(0, covered - self.keep_segments)
        return self._segment_entries[:covered]

    def _ship_manifest(self):
        payload = self.manifest_payload()
        yield from self._upload_verified(
            manifest_key(self.node), payload, payload_nbytes(payload),
            payload_checksum(payload), "ship-manifest",
            len(self._segment_entries),
        )

    def _upload_verified(self, key, payload, nbytes, checksum, action, seq):
        """PUT + readback-verify + retry until the landed checksum matches."""
        tracer = self.engine.tracer
        token = None
        if tracer.enabled:
            token = tracer.begin(self.track, action, key=key, seq=seq,
                                 nbytes=nbytes)
        attempts = 0
        while True:
            attempts += 1
            try:
                yield from self.grid.put(key, payload, nbytes, checksum)
                stored = yield from self.grid.get(key)
            except (GridUnavailable, KeyError):
                self.upload_retries += 1
                yield self.engine.timeout(self.retry_ns)
                continue
            if stored.checksum == checksum:
                break
            # Torn upload: the landed bytes differ from what we meant to
            # write.  Re-ship; the readback is the only way to know.
            self.torn_detected += 1
            yield self.engine.timeout(self.retry_ns)
        if token is not None:
            tracer.end(token, attempts=attempts)

    def _note_lag(self):
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.counter(self.track, "archive-lag-lsn",
                           self.archive_lag_lsn)

    def _event(self, action, seq):
        self.events.append({
            "time_ns": self.engine.now, "action": action, "seq": seq,
        })

    def stats(self):
        return {
            "segments_shipped": self.segments_shipped,
            "snapshots_taken": self.snapshots_taken,
            "bytes_shipped": self.bytes_shipped,
            "archived_lsn": self.archived_lsn,
            "archive_lag_lsn": self.archive_lag_lsn,
            "upload_retries": self.upload_retries,
            "torn_detected": self.torn_detected,
            "dropped_segments": self.dropped_segments,
            "segments_pruned": self.segments_pruned,
            "bytes_reclaimed": self.bytes_reclaimed,
            "prune_failures": self.prune_failures,
            "scan_errors": self.scan_errors,
            "pages_read": self._scanner.pages_read,
        }
