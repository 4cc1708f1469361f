"""Transactions: private write staging, OCC validation, commit pipeline.

A transaction reads committed state, stages writes privately, and at
commit time (a) validates that nothing it read changed underneath it,
(b) emits its log records, (c) waits for the log manager to declare them
durable (group commit), and (d) installs its writes.  Durability-before-
visibility keeps recovery simple: a value is in a table only if its
commit record is on (replicated, if configured) persistent storage.
"""

from repro.db.log_record import LogRecord, RecordKind


class TransactionAborted(Exception):
    """Raised at commit when validation fails (write-write conflict)."""


class Transaction:
    """One unit of work against a :class:`~repro.db.engine.Database`."""

    def __init__(self, database, txn_id):
        self.database = database
        self.txn_id = txn_id
        self.started_at = database.engine.now
        self._writes = {}  # (table, key) -> value
        self._read_versions = {}  # (table, key) -> version LSN at read time
        self.state = "active"

    # -- data operations -----------------------------------------------------------

    def read(self, table_name, key):
        """Committed-or-own-write read."""
        self._check_active()
        if (table_name, key) in self._writes:
            return self._writes[(table_name, key)]
        table = self.database.table(table_name)
        self._read_versions[(table_name, key)] = table.version_of(key)
        return table.get(key)

    def write(self, table_name, key, value):
        """Stage an insert/update (``None`` deletes)."""
        self._check_active()
        self.database.table(table_name)  # validate the table exists
        self._writes[(table_name, key)] = value

    def _check_active(self):
        if self.state != "active":
            raise TransactionAborted(
                f"transaction {self.txn_id} is {self.state}"
            )

    # -- commit ----------------------------------------------------------------------

    def commit(self):
        """Validate, log, await durability, install.

        Returns an event whose value is the commit LSN; a validation
        failure raises :class:`TransactionAborted` at the yield point.
        """
        return self.database.engine.process(
            self._commit_proc(), name=f"commit-{self.txn_id}"
        )

    def _commit_proc(self):
        self._check_active()
        self._validate()
        if not self._writes:
            self.state = "committed"
            now = self.database.engine.now
            self.database.stats.record_commit(now - self.started_at, now)
            yield self.database.engine.timeout(0.0)
            return 0
        self._acquire_commit_locks()
        try:
            records = self._build_records()
            commit_lsn = records[-1].lsn
            yield self.database.log_manager.append_and_wait(records)
            for (table_name, key), value in self._writes.items():
                self.database.table(table_name).install(
                    key, value, commit_lsn
                )
        finally:
            self._release_commit_locks()
        self.state = "committed"
        now = self.database.engine.now
        self.database.stats.record_commit(now - self.started_at, now)
        return commit_lsn

    def _acquire_commit_locks(self):
        """First-committer-wins: a concurrent committer touching our write
        set is already past validation, so we must abort, not wait."""
        locks = self.database.commit_locks
        conflict = [key for key in self._writes if key in locks]
        if conflict:
            self.state = "aborted"
            self.database.stats.aborts += 1
            raise TransactionAborted(
                f"txn {self.txn_id}: write set conflicts with an "
                f"in-flight commit on {conflict[0]}"
            )
        locks.update(self._writes)

    def _release_commit_locks(self):
        self.database.commit_locks.difference_update(self._writes)

    def _validate(self):
        for (table_name, key), seen_version in self._read_versions.items():
            current = self.database.table(table_name).version_of(key)
            if current != seen_version:
                self.state = "aborted"
                self.database.stats.aborts += 1
                raise TransactionAborted(
                    f"txn {self.txn_id}: {table_name}[{key!r}] changed "
                    f"(read v{seen_version}, now v{current})"
                )

    def _build_records(self):
        records = []
        for (table_name, key), value in self._writes.items():
            kind = RecordKind.UPDATE if value is not None else RecordKind.DELETE
            records.append(
                LogRecord(
                    lsn=self.database.next_lsn(),
                    txn_id=self.txn_id,
                    kind=kind,
                    table=table_name,
                    key=key,
                    value=value,
                )
            )
        records.append(
            LogRecord(
                lsn=self.database.next_lsn(),
                txn_id=self.txn_id,
                kind=RecordKind.COMMIT,
            )
        )
        return records

    def commit_async(self):
        """Pipelined commit: validate, log, install *now*, ack later.

        This is the early-lock-release discipline memory-optimized engines
        use so a worker can start its next transaction while the group
        commit is still in flight: writes become visible immediately; the
        returned event fires when the log manager declares the records
        durable.  On a crash, an installed-but-not-yet-durable transaction
        simply vanishes at recovery (its COMMIT record never hit storage),
        which is exactly the contract recovery tests assert.

        Returns the durability event (value: commit LSN).  Raises
        :class:`TransactionAborted` synchronously on validation failure.
        """
        self._check_active()
        self._validate()
        if not self._writes:
            self.state = "committed"
            self.database.stats.record_commit(0.0, self.database.engine.now)
            return self.database.engine.timeout(0.0, value=0)
        self._acquire_commit_locks()
        try:
            records = self._build_records()
            commit_lsn = records[-1].lsn
            durable = self.database.log_manager.append_and_wait(records)
            for (table_name, key), value in self._writes.items():
                self.database.table(table_name).install(
                    key, value, commit_lsn
                )
        finally:
            self._release_commit_locks()
        self.state = "committed"
        started = self.started_at
        database = self.database

        def _on_durable(_event):
            now = database.engine.now
            database.stats.record_commit(now - started, now)

        durable.then(_on_durable)
        return durable

    def abort(self):
        self.state = "aborted"
        self.database.stats.aborts += 1
