"""The database substrate: an in-memory engine with WAL and replication.

The paper's experiments drive the storage stack with ERMIA, an open-source
memory-optimized database generating TPC-C write-ahead logs at hundreds of
ktxn/s.  This package provides the equivalent workload source, faithful in
the aspects the evaluation depends on:

* all data lives in memory; the transaction log is the only persistence
  traffic (main-memory DB discipline);
* **group commit**: transactions wait until a threshold of log bytes
  (16 KB in the paper's setup) accumulates before the flush, so commit
  latency falls as worker count rises;
* per-worker log writers with queue depth 1 (each worker has at most one
  outstanding flush);
* the log writer is pluggable: any object with ``x_pwrite``/``x_fsync``
  (the Villars drop-in API, or any baseline from
  :mod:`repro.host.baselines`) can absorb the stream;
* recovery replays the destaged log back into tables, and a secondary
  server applies shipped log pages to stay hot (Fig. 1's step (3)); both
  decode it through one :class:`~repro.db.recovery.LogReader`, which the
  secondary keeps across ``x_pread`` rounds.
"""

from repro.db.engine import Database, DatabaseStats
from repro.db.log_record import LogRecord, RecordKind, record_bytes
from repro.db.recovery import recover_from_pages, extract_records
from repro.db.storage import Table
from repro.db.txn import Transaction, TransactionAborted
from repro.db.wal import LogManager

__all__ = [
    "Database",
    "DatabaseStats",
    "Table",
    "Transaction",
    "TransactionAborted",
    "LogManager",
    "LogRecord",
    "RecordKind",
    "record_bytes",
    "recover_from_pages",
    "extract_records",
]
