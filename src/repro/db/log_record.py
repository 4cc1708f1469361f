"""Write-ahead log records and their on-wire sizing.

A record's byte size is what the storage stack sees; the structured fields
are what recovery and replication apply.  Sizing: a fixed header plus the
key and value footprints — small for OLTP updates, matching the
observation the paper cites that OLTP log records are well under 20 KB.
"""

import enum
from dataclasses import dataclass, field

# Header: LSN + txn id + kind + table id + lengths.
RECORD_HEADER_BYTES = 32


class RecordKind(enum.Enum):
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    COMMIT = "commit"
    ABORT = "abort"


def _footprint(values):
    """Summed approximate serialized sizes of ``values`` (keys or values).

    The common shapes — exact-type numbers, ASCII text, and tuples and
    dicts of them — are tested first; the isinstance ladder after them
    sizes the rest, subclasses included.
    """
    total = 0
    for value in values:
        kind = type(value)
        if kind is int or kind is float:
            total += 8
        elif kind is str and value.isascii():
            total += len(value)
        elif kind is tuple:
            total += _footprint(value)
        elif kind is dict:
            total += _footprint(value) + _footprint(value.values())
        elif value is None:
            pass
        elif isinstance(value, bytes):
            total += len(value)
        elif isinstance(value, str):
            total += len(value.encode("utf-8", errors="replace"))
        elif isinstance(value, (int, float)):
            total += 8
        elif isinstance(value, (tuple, list)):
            total += _footprint(value)
        elif isinstance(value, dict):
            total += _footprint(value) + _footprint(value.values())
        else:
            total += 16  # opaque object: pointer-ish placeholder
    return total


def record_bytes(record):
    """Serialized size of ``record`` in bytes."""
    return RECORD_HEADER_BYTES + _footprint((record.key, record.value))


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One WAL entry.

    Slotted: destaged pages pin every record for the whole run, and a
    slotted instance takes about two thirds of a dict-backed one's heap.
    """

    lsn: int
    txn_id: int
    kind: RecordKind
    table: str = ""
    key: object = None
    value: object = None
    # Sized once: the WAL reads the size several times per record (pending
    # bytes, group carving, batch totals), and records are frozen.
    nbytes: int = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "nbytes", record_bytes(self))

    def is_data(self):
        return self.kind in (RecordKind.INSERT, RecordKind.UPDATE,
                             RecordKind.DELETE)
