"""Restore: rebuild node state from archived snapshot + segment replay.

An :class:`Archive` is one node's recovered view of the grid: the
manifest plus every object it names.  Two ways to get one:

* :meth:`Archive.load_sync` — read the grid's stored objects directly,
  without simulated transfer time.  The checker's path: it audits
  *correctness* of what landed, not restore latency.
* :func:`fetch_archive` — a sim process that pays the grid's latency
  and bandwidth for every object.  The bench's path: restore time is
  the deliverable it compares against full chain resync.

Both verify the same way (:meth:`Archive.verify`): every manifest entry
must have its object present, the landed checksum must match what the
archiver intended, and consecutive segments must be LSN-contiguous — a
silently dropped segment shows up as a missing object *and* an LSN gap.

Restoration folds the newest usable snapshot with commit-gated segment
replay (:func:`restore_state`).  Point-in-time recovery is the same fold
with ``upto_lsn`` set to a committed transaction's COMMIT LSN: segments
are retained from the start of history, so any committed boundary is
reachable.  Replay is idempotent — records are deduplicated by LSN and
re-installing a snapshot-covered transaction writes the same value.
"""

from repro.db.log_record import RecordKind
from repro.db.recovery import LogReader
from repro.dr.archive import (
    decode_value,
    manifest_key,
    payload_checksum,
    record_from_dict,
)
from repro.dr.grid import GridUnavailable


class RestoreError(Exception):
    """The archive cannot produce the requested state."""


class Archive:
    """One node's archive: manifest + fetched objects, ready to verify."""

    def __init__(self, node, manifest, objects):
        self.node = node
        self.manifest = manifest  # payload dict, or None (nothing archived)
        self.objects = objects  # key -> (payload, landed_checksum)

    @classmethod
    def load_sync(cls, grid, node):
        """Read the node's archive straight off the grid's stored objects.

        No simulated time passes — this is the checker's autopsy view of
        what the archiver actually landed.  A missing manifest is a
        legitimate early-crash state (nothing was ever archived) and
        yields an empty archive, not an error.
        """
        stored = grid.objects.get(manifest_key(node))
        manifest = stored.payload if stored is not None else None
        objects = {}
        for entry in _manifest_entries(manifest):
            obj = grid.objects.get(entry["key"])
            if obj is not None:
                objects[entry["key"]] = (obj.payload, obj.checksum)
        return cls(node, manifest, objects)

    # -- verification --------------------------------------------------------------

    def verify(self):
        """Every problem standing between this archive and a clean restore."""
        problems = []
        if self.manifest is None:
            return problems
        for entry in _manifest_entries(self.manifest):
            key = entry["key"]
            got = self.objects.get(key)
            if got is None:
                problems.append(
                    f"missing object {key}: manifest claims "
                    f"{entry['nbytes']} bytes (checksum {entry['checksum'][:12]})"
                )
                continue
            payload, landed = got
            if landed != entry["checksum"]:
                problems.append(
                    f"checksum mismatch on {key}: landed {landed[:12]} != "
                    f"manifest {entry['checksum'][:12]} (torn upload persisted)"
                )
            elif payload_checksum(payload) != landed:
                problems.append(
                    f"corrupt object {key}: landed payload does not match "
                    f"its own landed checksum"
                )
        segments = self.manifest.get("segments", [])
        for prev, entry in zip(segments, segments[1:]):
            if entry["first_lsn"] != prev["last_lsn"] + 1:
                problems.append(
                    f"lsn gap: segment {prev['seq']} ends at "
                    f"{prev['last_lsn']} but segment {entry['seq']} starts "
                    f"at {entry['first_lsn']}"
                )
        return problems

    # -- contents ------------------------------------------------------------------

    def segment_records(self):
        """Archived WAL records from intact segments, deduped, LSN order."""
        by_lsn = {}
        if self.manifest is None:
            return []
        for entry in self.manifest.get("segments", []):
            got = self.objects.get(entry["key"])
            if got is None:
                continue
            payload, landed = got
            if landed != entry["checksum"]:
                continue  # torn object: unusable, verify() reported it
            for data in payload.get("records", []):
                record = record_from_dict(data)
                by_lsn[record.lsn] = record
        return [by_lsn[lsn] for lsn in sorted(by_lsn)]

    def commit_boundaries(self):
        """``(commit_lsn, txn_id)`` for every archived COMMIT, LSN order."""
        return [
            (record.lsn, record.txn_id)
            for record in self.segment_records()
            if record.kind is RecordKind.COMMIT
        ]

    def snapshots(self):
        """Usable ``(entry, payload)`` snapshot pairs, oldest first."""
        pairs = []
        if self.manifest is None:
            return pairs
        for entry in self.manifest.get("snapshots", []):
            got = self.objects.get(entry["key"])
            if got is None:
                continue
            payload, landed = got
            if landed != entry["checksum"]:
                continue
            pairs.append((entry, payload))
        return pairs


def _manifest_entries(manifest):
    if manifest is None:
        return []
    return list(manifest.get("segments", [])) + list(
        manifest.get("snapshots", [])
    )


def fetch_archive(grid, node):
    """Timed archive fetch: a sim process paying grid latency per object.

    Returns an :class:`Archive`.  Propagates :class:`GridUnavailable`
    when the grid is partitioned; a missing manifest yields an empty
    archive (nothing was ever shipped).
    """
    try:
        stored = yield from grid.get(manifest_key(node))
    except KeyError:
        return Archive(node, None, {})
    manifest = stored.payload
    objects = {}
    for entry in _manifest_entries(manifest):
        try:
            obj = yield from grid.get(entry["key"])
        except KeyError:
            continue  # verify() reports the hole
        objects[entry["key"]] = (obj.payload, obj.checksum)
    return Archive(node, manifest, objects)


# -- state reconstruction ------------------------------------------------------------


def restore_state(archive, upto_lsn=None):
    """Fold snapshot + commit-gated replay into ``{table: {key: value}}``.

    ``upto_lsn`` is the PITR knob: only transactions whose COMMIT LSN is
    at or below it are applied, and only snapshots cut at or below it
    are eligible bases — so the result is exactly the committed state at
    that transaction boundary.  ``None`` restores to the archive's full
    frontier.
    """
    base_lsn = 0
    state = {}
    versions = {}  # (table, key) -> commit lsn of the installed value
    best = None
    for entry, payload in archive.snapshots():
        if upto_lsn is not None and payload["as_of_lsn"] > upto_lsn:
            continue
        if best is None or payload["as_of_lsn"] >= best["as_of_lsn"]:
            best = payload
    if best is not None:
        base_lsn = best["as_of_lsn"]
        for table_name, rows in best["tables"].items():
            table_state = state.setdefault(table_name, {})
            for encoded_key, encoded_value, version in rows:
                key = decode_value(encoded_key)
                table_state[key] = decode_value(encoded_value)
                versions[(table_name, key)] = version
    for commit, data in LogReader().committed(archive.segment_records()):
        if upto_lsn is not None and commit.lsn > upto_lsn:
            break  # not committed yet at this point in time
        if commit.lsn <= base_lsn:
            continue  # folded into the snapshot
        for record in data:
            table_state = state.setdefault(record.table, {})
            if record.kind is RecordKind.DELETE:
                table_state.pop(record.key, None)
            else:
                table_state[record.key] = record.value
            versions[(record.table, record.key)] = commit.lsn
    return state, versions


def apply_to_database(database, archive, upto_lsn=None):
    """Install a restored state into a live ``Database`` (tables created
    as discovered).  Returns the number of rows installed."""
    state, versions = restore_state(archive, upto_lsn=upto_lsn)
    installed = 0
    for table_name, rows in sorted(state.items()):
        try:
            table = database.table(table_name)
        except KeyError:
            table = database.create_table(table_name)
        for key, value in rows.items():
            table.install(key, value, versions.get((table_name, key), 0))
            installed += 1
    return installed


def reseed_node_from_archive(engine, grid, node, database):
    """Timed single-node restore: fetch, verify, apply.  A sim process.

    Returns ``(archive, rows_installed)``; the elapsed sim time around
    this call is the restore latency the bench compares against a full
    chain resync.  Retries through partitions are the caller's policy —
    this raises :class:`GridUnavailable` straight through.
    """
    archive = yield from fetch_archive(grid, node)
    problems = archive.verify()
    if problems:
        raise RestoreError(
            f"archive for {node} failed verification: {problems[:3]}"
        )
    rows = apply_to_database(database, archive)
    return archive, rows


__all__ = [
    "Archive",
    "GridUnavailable",
    "RestoreError",
    "apply_to_database",
    "fetch_archive",
    "reseed_node_from_archive",
    "restore_state",
]
