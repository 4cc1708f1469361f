"""The database engine: tables, transactions, workers, statistics.

The engine owns the tables and the log manager and runs *workers* —
processes that repeatedly draw a transaction from a workload generator,
execute it, and commit.  Each worker has at most one transaction in
flight (the queue-depth-1 logging behavior the paper's experiments note),
and workers map one-to-one to the paper's "threads" axis in Fig. 9.
"""

from repro.db.storage import Table
from repro.db.txn import Transaction, TransactionAborted
from repro.db.wal import LogManager
from repro.sim.units import KIB


class DatabaseStats:
    """Commit/abort counters and O(1) commit-latency state.

    A running latency total and the commit count give the mean Fig. 9
    plots.  Individual latencies are kept only for windowed readers: each
    registers a list in ``latency_windows`` (keyed by the reader) and
    swaps it for an empty one when it reads, so a database nobody
    watches keeps no samples at all.
    """

    def __init__(self):
        self.commits = 0
        self.aborts = 0
        self.latency_total_ns = 0
        self.last_commit_at = 0.0
        self.latency_windows = {}  # reader -> latencies since its last read

    def record_commit(self, latency_ns, now_ns):
        """Count a commit that took ``latency_ns``, ending at ``now_ns``."""
        if latency_ns < 0:
            raise ValueError("negative latency recorded")
        self.commits += 1
        self.latency_total_ns += latency_ns
        self.last_commit_at = now_ns
        for window in self.latency_windows.values():
            window.append(latency_ns)

    def throughput_per_s(self, elapsed_ns):
        if elapsed_ns <= 0:
            return 0.0
        return self.commits * 1e9 / elapsed_ns

    @property
    def mean_latency_ns(self):
        if not self.commits:
            return 0.0
        return self.latency_total_ns / self.commits


class Database:
    """An in-memory database persisting only its WAL."""

    def __init__(self, engine, log_file, group_commit_bytes=16 * KIB,
                 group_commit_timeout_ns=100_000.0, name="db",
                 max_inflight_flushes=1):
        self.engine = engine
        self.name = name
        self.log_manager = LogManager(
            engine, log_file,
            group_commit_bytes=group_commit_bytes,
            group_commit_timeout_ns=group_commit_timeout_ns,
            max_inflight_flushes=max_inflight_flushes,
        )
        self._tables = {}
        self._next_txn_id = 1
        self._next_lsn = 1
        # Commit-time write locks: (table, key) pairs owned by transactions
        # between validation and install.  First committer wins.
        self.commit_locks = set()
        self.stats = DatabaseStats()

    # -- schema -----------------------------------------------------------------------

    def create_table(self, name):
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        table = Table(name)
        self._tables[name] = table
        return table

    def table(self, name):
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no such table: {name!r}") from None

    def tables(self):
        return dict(self._tables)

    # -- transactions --------------------------------------------------------------------

    def begin(self):
        txn = Transaction(self, self._next_txn_id)
        self._next_txn_id += 1
        return txn

    def next_lsn(self):
        lsn = self._next_lsn
        self._next_lsn += 1
        return lsn

    # -- workers ----------------------------------------------------------------------------

    def run_worker(self, workload, transactions=None, duration_ns=None,
                   txn_cpu_ns=0.0, async_commit=False):
        """Start one worker process; returns its completion event.

        ``workload`` is an iterator of transaction bodies — callables
        ``body(txn)`` that perform reads/writes on the open transaction.
        The worker stops after ``transactions`` commits or when the
        engine clock passes ``duration_ns``, whichever comes first.  A
        body whose transaction aborts is retried in a fresh transaction.

        ``txn_cpu_ns`` charges simulated CPU time per transaction (an
        in-memory engine spends a handful of microseconds of compute per
        TPC-C transaction; without this the simulation would execute
        transactions in zero time and every throughput curve would be
        storage-bound only).

        ``async_commit`` switches the worker to the pipelined discipline
        (see :meth:`Transaction.commit_async`): it issues the commit,
        throttles on the log manager's backlog, and moves on — the
        behavior that lets one worker keep a deep flush pipeline busy.
        """
        if transactions is None and duration_ns is None:
            raise ValueError("bound the worker by count or duration")
        return self.engine.process(
            self._worker(workload, transactions, duration_ns, txn_cpu_ns,
                         async_commit),
            name=f"{self.name}-worker",
        )

    def _worker(self, workload, transactions, duration_ns, txn_cpu_ns,
                async_commit):
        deadline = (
            self.engine.now + duration_ns if duration_ns is not None else None
        )
        issued = 0
        last_durable = None
        for body in workload:
            if transactions is not None and issued >= transactions:
                break
            if deadline is not None and self.engine.now >= deadline:
                break
            while True:
                txn = self.begin()
                try:
                    body(txn)
                    if txn_cpu_ns:
                        yield self.engine.timeout(txn_cpu_ns)
                    if async_commit:
                        if not self.log_manager.has_room:
                            yield self.log_manager.wait_for_room()
                        last_durable = txn.commit_async()
                    else:
                        yield txn.commit()
                except TransactionAborted:
                    continue
                issued += 1
                break
        if last_durable is not None and not last_durable.triggered:
            yield last_durable  # drain the pipeline before finishing
        return issued

    def checksum(self):
        """Digest of all committed table state (for replica comparison)."""
        total = 0
        for table in self._tables.values():
            total ^= table.checksum()
        return total
