"""Fleet composition: nodes, shards, admission lanes, and the rebalancer.

Covers the tier that composes many replication chains under one engine:
shard namespacing inside a node's shared WAL, per-shard fair-throttle
lanes that follow a migration, and the :class:`FleetSupervisor` loop
from hot-shard detection through migration to convergence.
"""

import pytest

from repro.cluster import (
    Fleet,
    FleetSupervisor,
    HashRingPlacement,
    run_shard_body,
)
from repro.faults.scenario import chaos_config_factory
from repro.sim import Engine


def build_fleet(seed=5, nodes=2, **node_kw):
    engine = Engine()
    kw = dict(group_commit_bytes=384, group_commit_timeout_ns=5_000.0)
    kw.update(node_kw)
    fleet = Fleet(engine, chaos_config_factory(seed), **kw)
    fleet.add_nodes(nodes)
    return engine, fleet


def kv_body(key, value):
    def body(txn):
        txn.write("kv", key, value)
    return body


def open_loop_writer(engine, fleet, shard_id, deadline_ns, pace):
    shard = fleet.shards[shard_id]
    seq = 0
    while engine.now < deadline_ns:
        yield from run_shard_body(
            engine, shard, kv_body(f"k{seq % 4}", f"{shard_id}-v{seq}")
        )
        seq += 1
        if pace["think_ns"] > 0:
            yield engine.timeout(pace["think_ns"])


# -- composition ---------------------------------------------------------------------


def test_fleet_builds_named_chains_with_policy_placement():
    engine, fleet = build_fleet(nodes=3)
    assert sorted(fleet.nodes) == ["node0", "node1", "node2"]
    for name, node in fleet.nodes.items():
        assert node.cluster.primary.name == f"{name}.primary"
        assert f"{name}.secondary-1" in node.cluster.servers
    # No explicit node: the placement policy decides, and the directory
    # agrees with it until a migration moves the shard.
    shard = fleet.create_shard("tenant-a")
    assert fleet.node_of("tenant-a") == fleet.placement.place("tenant-a")
    assert shard.node.shards["tenant-a"] is shard
    with pytest.raises(ValueError):
        fleet.create_shard("tenant-a")
    with pytest.raises(ValueError):
        fleet.add_node("node0")


def test_shards_are_namespaced_inside_one_wal():
    engine, fleet = build_fleet()
    first = fleet.create_shard("s0", node="node0")
    second = fleet.create_shard("s1", node="node0")
    assert first.view.database is second.view.database

    def commit(shard, value):
        yield from run_shard_body(engine, shard, kv_body("k", value))

    engine.process(commit(first, "from-s0"))
    engine.process(commit(second, "from-s1"))
    engine.run(until=engine.now + 500_000.0)
    # Same bare key, same node, different tables — no interference.
    assert first.view.table("kv").scan() == [("k", "from-s0")]
    assert second.view.table("kv").scan() == [("k", "from-s1")]
    assert set(fleet.nodes["node0"].database.tables()) >= {"s0.kv", "s1.kv"}
    assert first.view.tables().keys() == {"kv"}


def test_admission_lane_follows_the_shard_and_migrator_gets_its_own():
    engine, fleet = build_fleet()
    fleet.create_shard("s0", node="node0")
    source = fleet.nodes["node0"].admission
    dest = fleet.nodes["node1"].admission
    assert "shard:s0" in source._inflight
    assert "shard:s0" not in dest._inflight

    deadline = engine.now + 600_000.0
    engine.process(
        open_loop_writer(engine, fleet, "s0", deadline,
                         {"think_ns": 20_000.0}),
        name="tenant-s0",
    )
    observed = {}

    def probe():
        yield engine.timeout(100_000.0)  # mid-copy
        observed["migrator_lane_live"] = "s0:migrator" in dest._inflight

    engine.process(probe(), name="lane-probe")
    migration = fleet.migrate("s0", "node1", copy_rounds=2,
                              round_wait_ns=150_000.0)
    engine.run(until=engine.now + 2_000_000.0)
    assert migration.done
    assert observed["migrator_lane_live"], (
        "replay traffic did not run on its own admission lane"
    )
    # After cutover: tenant lane moved, migrator lane torn down.
    assert "shard:s0" not in source._inflight
    assert "shard:s0" in dest._inflight
    assert "s0:migrator" not in dest._inflight


def test_fleet_supervisor_rebalances_hot_node_and_converges():
    engine, fleet = build_fleet(seed=9)
    for index in range(4):
        fleet.create_shard(f"t{index}", node=f"node{index % 2}")
    supervisor = FleetSupervisor(
        fleet, poll_ns=300_000.0, hot_ratio=1.6, dwell_polls=2,
        cooldown_ns=1_000_000.0, converge_ratio=1.5,
        migration_kw={"copy_rounds": 1, "round_wait_ns": 100_000.0},
    )
    deadline = engine.now + 12_000_000.0
    paces = {}
    for index in range(4):
        paces[index] = {"think_ns": 200_000.0}
        engine.process(
            open_loop_writer(engine, fleet, f"t{index}", deadline,
                             paces[index]),
            name=f"tenant-t{index}",
        )

    def flash_crowd():
        yield engine.timeout(1_000_000.0)
        paces[0]["think_ns"] = 200_000.0 / 16  # t0 (node0) goes hot

    engine.process(flash_crowd(), name="flash-crowd")
    supervisor.start()
    engine.run(until=deadline)
    supervisor.stop()

    assert supervisor.migrations, "the hot node was never rebalanced"
    migration = supervisor.migrations[0]
    assert migration.done and migration.error is None
    # Policy: offload a *cold* colocated shard, not the hot one.
    assert migration.shard.shard_id == "t2"
    assert fleet.node_of("t2") == "node1"
    assert fleet.moves and fleet.moves[0]["shard"] == "t2"
    assert supervisor.converged_at_ns is not None
    assert supervisor.imbalance() <= 1.5
    actions = [event["action"] for event in supervisor.events]
    assert "rebalance" in actions and "converged" in actions


def test_supervisor_reports_hot_but_stuck_for_a_lone_shard():
    engine, fleet = build_fleet(seed=9)
    fleet.create_shard("only", node="node0")
    supervisor = FleetSupervisor(fleet, poll_ns=300_000.0, hot_ratio=1.3,
                                 dwell_polls=2)
    deadline = engine.now + 5_000_000.0
    engine.process(
        open_loop_writer(engine, fleet, "only", deadline,
                         {"think_ns": 10_000.0}),
        name="tenant-only",
    )
    supervisor.start()
    engine.run(until=deadline)
    supervisor.stop()
    assert not supervisor.migrations
    assert any(event["action"] == "hot-but-stuck"
               for event in supervisor.events)


def test_fleet_stop_halts_every_node():
    engine, fleet = build_fleet()
    fleet.create_shard("s0", node="node0")
    fleet.stop()
    for node in fleet.nodes.values():
        assert not node.database.log_manager._running


def test_fleet_nodes_run_one_flush_slot():
    """A node's WAL has exactly the one flush slot it reports, and the
    fleet accepts no option that would claim otherwise."""
    engine, fleet = build_fleet(nodes=1)
    log_manager = fleet.nodes["node0"].database.log_manager
    assert log_manager.max_inflight_flushes == 1
    assert log_manager._flush_slots.capacity == 1
    with pytest.raises(TypeError):
        Fleet(engine, chaos_config_factory(5), max_inflight_flushes=4)


def test_fleet_always_places_on_the_hash_ring():
    engine, fleet = build_fleet(nodes=2)
    assert isinstance(fleet.placement, HashRingPlacement)
    with pytest.raises(TypeError):
        Fleet(engine, chaos_config_factory(5), placement=HashRingPlacement())
