"""Regression gate: process resumes per acknowledged operation.

Wall-clock throughput is noisy; the number of generator resumes the
engine performs per acknowledged operation is not.  These cells count
``Process._resume`` calls by wrapping the method inside the test only
(the engine's hot path carries no counter) and pin ceilings about 10%
above the counts measured when the counter reporters and the CMB intake
became change-driven.  A loop that wakes without news — a reporter
ticking through idle periods, a per-chunk intake process — pushes a cell
over its ceiling deterministically.
"""

import random

import pytest

from repro.cluster import Fleet, run_shard_body
from repro.cluster.topology import replicated_chain
from repro.faults.scenario import chaos_config_factory
from repro.sim import Engine, Process

from tests.conftest import cluster_config_factory

# Resumes per acknowledged operation at seed 7, measured: chain 184.6
# (825.5 with a reporter that ticked every period and a process per
# intake chunk), fleet 33.5 (88.8).  Ceilings sit about 10% above.
CHAIN_CEILING = 203.0
FLEET_CEILING = 37.0


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
                  group_commit_bytes=384, group_commit_timeout_ns=5_000.0,
                  max_inflight_flushes=1)
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


def test_chain_resumes_per_append(resumes):
    ops = chain_appends(seed=7)
    assert resumes["resumes"] / ops <= CHAIN_CEILING


def test_fleet_resumes_per_commit(resumes):
    ops = fleet_commits(seed=7)
    assert resumes["resumes"] / ops <= FLEET_CEILING

