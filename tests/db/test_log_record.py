"""A log record is sized once, at construction, and the size is exact.

``LogRecord.nbytes`` is a field computed when the record is built; it must
equal ``record_bytes`` for every kind and value shape, agree with the
plain type ladder the sizing rules were first written as, and stay out
of equality, hashing and the repr.  Records are slotted (destaged pages
pin every one for the whole run), and the size survives the copies the
checkers and tests make of them.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.db.log_record import (
    RECORD_HEADER_BYTES,
    LogRecord,
    RecordKind,
    record_bytes,
)


def ladder_footprint(value):
    """The sizing rules as a plain isinstance ladder (the reference)."""
    if value is None:
        return 0
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8", errors="replace"))
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, (tuple, list)):
        return sum(ladder_footprint(item) for item in value)
    if isinstance(value, dict):
        return sum(ladder_footprint(k) + ladder_footprint(v)
                   for k, v in value.items())
    return 16


class Label(str):
    pass


class Count(int):
    pass


class Opaque:
    pass


VALUES = [
    None,
    b"",
    b"\x00\xffpayload",
    "",
    "ascii",
    "naïve café ✓",
    "\ud800lone surrogate",
    Label("subclassed"),
    Label("subclassé"),
    0,
    -(2 ** 70),
    True,
    Count(3),
    0.0,
    3.25,
    float("nan"),
    (1, "two", 3.0),
    [b"abc", None, ("nested", ["deeper", 7])],
    {"balance": 10.5, "name": "Ünïcode", 4: (1, 2), "blob": b"xyz"},
    {"outer": {"inner": [1, {"k": "v"}]}},
    Opaque(),
    [Opaque(), {Opaque(): "x"}],
]


@pytest.mark.parametrize("kind", list(RecordKind))
@pytest.mark.parametrize("value", VALUES, ids=range(len(VALUES)))
def test_cached_size_matches_record_bytes(kind, value):
    record = LogRecord(lsn=1, txn_id=2, kind=kind, table="t", key=value,
                       value=value)
    expected = RECORD_HEADER_BYTES + 2 * ladder_footprint(value)
    assert record.nbytes == record_bytes(record) == expected


def test_size_stays_out_of_eq_hash_and_repr():
    record = LogRecord(lsn=7, txn_id=3, kind=RecordKind.UPDATE, table="t",
                       key=("w", 1), value="v")
    twin = LogRecord(lsn=7, txn_id=3, kind=RecordKind.UPDATE, table="t",
                     key=("w", 1), value="v")
    assert record == twin
    assert hash(record) == hash(twin)
    assert "nbytes" not in repr(record)
    assert repr(record) == (
        "LogRecord(lsn=7, txn_id=3, kind=<RecordKind.UPDATE: 'update'>, "
        "table='t', key=('w', 1), value='v')"
    )
    fields = {f.name: f for f in dataclasses.fields(LogRecord)}
    assert not fields["nbytes"].init
    assert not fields["nbytes"].compare
    # A forged size does not make two records differ.
    object.__setattr__(twin, "nbytes", 0)
    assert record == twin
    assert hash(record) == hash(twin)


def test_records_stay_frozen():
    record = LogRecord(lsn=1, txn_id=1, kind=RecordKind.COMMIT)
    assert record.nbytes == RECORD_HEADER_BYTES
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.nbytes = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.value = "changed"
    with pytest.raises(TypeError):
        LogRecord(lsn=1, txn_id=1, kind=RecordKind.COMMIT, nbytes=99)


def test_replace_resizes():
    record = LogRecord(lsn=1, txn_id=1, kind=RecordKind.INSERT, key="k",
                       value="short")
    longer = dataclasses.replace(record, value="a much longer value")
    assert longer.nbytes - record.nbytes == len("a much longer value") - 5


def test_records_are_slotted_and_survive_pickle_and_deepcopy():
    record = LogRecord(lsn=9, txn_id=4, kind=RecordKind.UPDATE, table="t",
                       key=("w", 1, 2), value={"qty": 5, "name": "x"})
    assert not hasattr(record, "__dict__")
    assert record.nbytes == record_bytes(record)
    copies = [copy.deepcopy(record), copy.copy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is LogRecord
        assert twin == record
        assert twin.nbytes == record.nbytes
        assert not hasattr(twin, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.lsn = 1
    deep = copies[0]
    assert deep.value == record.value and deep.value is not record.value
