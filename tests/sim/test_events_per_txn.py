"""Regression gate: process resumes per acknowledged operation.

Wall-clock throughput is noisy; the number of generator resumes the
engine performs per acknowledged operation is not.  These cells count
``Process._resume`` calls by wrapping the engine inside the test only
(the hot path carries no counter).  Some count more: the standalone
group-commit and NVMe cells count timers created, and the group-commit
and chain cells immediate-queue dispatches and ``Event`` constructions (a reused event
makes no construction but still costs a dispatch), and the group-commit
cell also the chunk entries each destaged page holds.  Ceilings sit about
10% above the counts measured when the counter reporters, the CMB
intake and the destage loop became change-driven.  A loop that wakes
without news — a reporter ticking through idle periods, a per-chunk
intake process, a destage loop re-arming its deadline on every credit
advance or hopping through fresh events, a timer per DMA packet, a
destaged page that keeps one entry per 64 B intake chunk —
pushes a cell over its ceiling deterministically.
"""

import random
from collections import deque

import pytest

from repro.cluster import Fleet, run_shard_body
from repro.cluster.topology import replicated_chain
from repro.core.destage import DestagePage
from repro.faults.scenario import chaos_config_factory
from repro.nand.geometry import Geometry
from repro.sim import Engine, Event, Process, Timeout
from repro.sim.units import KIB
from repro.ssd.device import ConventionalSsd, SsdConfig

from tests.conftest import (
    build_logging_device,
    cluster_config_factory,
    fast_timing,
)

# Resumes per acknowledged operation at seed 7, measured: chain 147.35
# (825.5 with a reporter that ticked every period and a process per
# intake chunk, 184.6 with a destage loop resumed on every credit
# advance, 155.7 with flash-dispatch workers woken as a herd), fleet
# 28.43 (88.8, then 33.5, then 29.5), standalone group commit 10.75
# (14.2, then 11.0) with 12.8 timers created per commit (18.9, then
# 15.9 with a zero-delay timeout per CMB intake chunk nobody awaited).
# Timers per 16 KiB NVMe I/O: 8 per write and 6 per read (71 and 69
# with one link timer per 256 B DMA packet).  Ceilings sit about 10%
# above.  Immediate-queue dispatches and ``Event`` constructions per
# operation: chain 137.4 and 96.0, standalone group commit 11.45 and
# 7.96, once the destage loop reused its one hop event and ran its
# second hop in place when nothing was queued between (146.3 and 146.9,
# 14.6 and 14.3 with two fresh hop events per wake).  The chain's
# dispatch ceiling sits 5% above, under the two-hop count.  Chunk
# entries per destaged page in the group-commit cell: 10.83 once the ring
# merges one payload's contiguous slices (62.3 with one entry per 64 B
# chunk); the ceiling sits 10% above.
CHAIN_CEILING = 162.1
CHAIN_DISPATCH_CEILING = 144.2
CHAIN_EVENT_CEILING = 105.6
FLEET_CEILING = 31.3
GROUP_COMMIT_CEILING = 11.8
GROUP_COMMIT_TIMEOUT_CEILING = 14.1
NVME_WRITE_TIMEOUT_CEILING = 8.8
NVME_READ_TIMEOUT_CEILING = 6.6
GROUP_COMMIT_DISPATCH_CEILING = 12.6
GROUP_COMMIT_EVENT_CEILING = 8.8
GROUP_COMMIT_PAGE_ENTRIES_CEILING = 11.9


@pytest.fixture
def resumes(monkeypatch):
    """Count every generator resume the engine performs."""
    counted = {"resumes": 0}
    resume = Process._resume

    def counting_resume(self, event):
        counted["resumes"] += 1
        return resume(self, event)

    monkeypatch.setattr(Process, "_resume", counting_resume)
    return counted


class CountingDeque(deque):
    """An immediate queue that counts the events dispatched off it."""

    def __init__(self, counted):
        super().__init__()
        self.counted = counted

    def popleft(self):
        event = super().popleft()
        if not event.cancelled:
            self.counted["dispatches"] += 1
        return event


@pytest.fixture
def immediates(monkeypatch):
    """Count immediate-queue dispatches (cancelled events skipped) and
    ``Event`` constructions (``Timeout``s aside: they skip
    ``Event.__init__`` and the ``timeouts`` fixture counts them)."""
    counted = {"dispatches": 0, "events": 0}
    install = Engine._install_timeout_fast_path
    construct = Event.__init__

    def counting_install(self):
        self._immediate = CountingDeque(counted)
        install(self)

    def counting_construct(self, engine):
        counted["events"] += 1
        construct(self, engine)

    monkeypatch.setattr(Engine, "_install_timeout_fast_path",
                        counting_install)
    monkeypatch.setattr(Event, "__init__", counting_construct)
    return counted


@pytest.fixture
def page_entries(monkeypatch):
    """Record the chunk entries of every destaged page built."""
    counted = []
    construct = DestagePage.__init__

    def counting_construct(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        counted.append(len(self.chunks))

    monkeypatch.setattr(DestagePage, "__init__", counting_construct)
    return counted


@pytest.fixture
def timeouts(monkeypatch):
    """Count every timer created: ``engine.timeout`` and ``Timeout(...)``."""
    counted = {"timeouts": 0}
    install = Engine._install_timeout_fast_path
    construct = Timeout.__init__

    def counting_install(self):
        install(self)
        timeout = self.timeout

        def counting_timeout(delay, value=None):
            counted["timeouts"] += 1
            return timeout(delay, value)

        self.timeout = counting_timeout

    def counting_construct(self, *args, **kwargs):
        counted["timeouts"] += 1
        construct(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "_install_timeout_fast_path",
                        counting_install)
    monkeypatch.setattr(Timeout, "__init__", counting_construct)
    return counted


def group_commit_txns(seed, clients=4, txns=30):
    """Closed-loop kv writers group-committing to one standalone SRAM device."""
    engine, _device, database = build_logging_device(
        group_commit_bytes=1024, group_commit_timeout_ns=5_000.0)
    rng = random.Random(seed)
    committed = []

    def client(client_id):
        for index in range(txns):
            yield engine.timeout(rng.uniform(200.0, 2_000.0))
            txn = database.begin()
            txn.write("kv", f"k{client_id}-{index % 8}",
                      "v" * rng.randrange(16, 200))
            yield txn.commit_async()
            committed.append(index)

    for client_id in range(clients):
        engine.process(client(client_id))
    engine.run(until=5_000_000.0)
    assert len(committed) == clients * txns
    return len(committed)


def chain_appends(seed, appends=40):
    """Paced 512 B append + fsync pairs into a primary and 2 secondaries."""
    engine = Engine()
    cluster = replicated_chain(engine, cluster_config_factory, secondaries=2)
    log = cluster.primary.log
    rng = random.Random(seed)
    acked = []

    def writer():
        for index in range(appends):
            yield engine.timeout(rng.uniform(10_000.0, 30_000.0))
            yield log.x_pwrite(f"record-{index}", 512)
            yield log.x_fsync()
            acked.append(index)

    engine.process(writer())
    engine.run(until=5_000_000.0)  # ~1 ms of appends, then idle
    assert len(acked) == appends
    return len(acked)


def fleet_commits(seed, deadline_ns=2_000_000.0):
    """Two replicated nodes, four kv shards, paced open-loop tenants."""
    engine = Engine()
    fleet = Fleet(engine, chaos_config_factory(seed),
                  group_commit_bytes=384, group_commit_timeout_ns=5_000.0)
    fleet.add_nodes(2)
    rng = random.Random(seed)
    committed = []

    def tenant(shard_id):
        shard = fleet.create_shard(shard_id)
        seq = 0
        while engine.now < deadline_ns:
            yield engine.timeout(rng.uniform(5_000.0, 25_000.0))

            def body(txn, seq=seq):
                txn.write("kv", f"k{seq % 4}", f"{shard_id}-{seq}")

            yield from run_shard_body(engine, shard, body)
            committed.append(seq)
            seq += 1

    for index in range(4):
        engine.process(tenant(f"tenant-{index}"))
    engine.run(until=deadline_ns + 1_000_000.0)
    assert committed
    return len(committed)


def nvme_ios(timeouts, reads, ios=16):
    """Timers per closed-loop 16 KiB NVMe I/O on one conventional SSD."""
    engine = Engine()
    config = SsdConfig(
        geometry=Geometry(channels=2, ways_per_channel=2, blocks_per_die=16,
                          pages_per_block=16, page_bytes=16 * KIB),
        timing=fast_timing())
    ssd = ConventionalSsd(engine, config).start()

    def writer():
        for lba in range(ios):
            yield ssd.write(lba, f"page-{lba}")

    def reader():
        for lba in range(ios):
            completion = yield ssd.read(lba)
            assert completion.result == f"page-{lba}"

    engine.process(writer())
    engine.run()
    if reads:
        timeouts["timeouts"] = 0
        engine.process(reader())
        engine.run()
    return timeouts["timeouts"] / ios


def test_chain_resumes_per_append(resumes):
    ops = chain_appends(seed=7)
    assert resumes["resumes"] / ops <= CHAIN_CEILING


def test_chain_events_per_append(immediates):
    ops = chain_appends(seed=7)
    assert immediates["dispatches"] / ops <= CHAIN_DISPATCH_CEILING
    assert immediates["events"] / ops <= CHAIN_EVENT_CEILING


def test_fleet_resumes_per_commit(resumes):
    ops = fleet_commits(seed=7)
    assert resumes["resumes"] / ops <= FLEET_CEILING


def test_timers_per_nvme_write(timeouts):
    assert nvme_ios(timeouts, reads=False) <= NVME_WRITE_TIMEOUT_CEILING


def test_timers_per_nvme_read(timeouts):
    assert nvme_ios(timeouts, reads=True) <= NVME_READ_TIMEOUT_CEILING


def test_group_commit_events_per_commit(resumes, timeouts, immediates,
                                       page_entries):
    ops = group_commit_txns(seed=7)
    assert resumes["resumes"] / ops <= GROUP_COMMIT_CEILING
    assert timeouts["timeouts"] / ops <= GROUP_COMMIT_TIMEOUT_CEILING
    assert immediates["dispatches"] / ops <= GROUP_COMMIT_DISPATCH_CEILING
    assert immediates["events"] / ops <= GROUP_COMMIT_EVENT_CEILING
    assert page_entries
    assert (sum(page_entries) / len(page_entries)
            <= GROUP_COMMIT_PAGE_ENTRIES_CEILING)
