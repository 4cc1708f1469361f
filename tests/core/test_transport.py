"""Tests for the Transport module: mirroring, shadow counters, roles."""

import pytest

from repro.core.cmb import CmbModule
from repro.core.replication import LazyReplication
from repro.core.transport import TransportModule, TransportRole
from repro.pcie.ntb import NtbBridge, NtbPort
from repro.pm.backing import sram_backing
from repro.sim import Engine


def make_pair(update_period_ns=400.0):
    """A primary and a secondary transport joined by one NTB bridge."""
    engine = Engine()

    def make_side(name):
        backing = sram_backing(engine, capacity=128 * 1024)
        cmb = CmbModule(engine, backing, queue_bytes=4096, name=f"{name}.cmb")
        cmb.start()
        transport = TransportModule(engine, cmb, name=name,
                                    update_period_ns=update_period_ns)
        return cmb, transport

    primary_cmb, primary = make_side("primary")
    secondary_cmb, secondary = make_side("secondary")
    port_p = NtbPort(engine, "primary")
    port_s = NtbPort(engine, "secondary")
    NtbBridge(engine, port_p, port_s)
    primary.attach_ntb(port_p)
    secondary.attach_ntb(port_s)
    primary.set_primary()
    primary.add_peer("secondary")
    secondary.set_secondary("primary")
    return engine, (primary_cmb, primary), (secondary_cmb, secondary)


def test_roles_start_standalone():
    engine = Engine()
    cmb = CmbModule(engine, sram_backing(engine), queue_bytes=4096)
    transport = TransportModule(engine, cmb)
    assert transport.role is TransportRole.STANDALONE


def test_primary_requires_ntb_port():
    engine = Engine()
    cmb = CmbModule(engine, sram_backing(engine), queue_bytes=4096)
    transport = TransportModule(engine, cmb)
    with pytest.raises(RuntimeError):
        transport.set_primary()


def test_mirrored_writes_reach_secondary_cmb():
    engine, (primary_cmb, _p), (secondary_cmb, _s) = make_pair()

    def proc():
        yield primary_cmb.receive(0, 256, "log-chunk")

    engine.process(proc())
    engine.run(until=1_000_000.0)
    assert secondary_cmb.credit.value == 256
    payloads = [p for _o, _n, p in secondary_cmb.ring.peek_ready()]
    assert payloads == ["log-chunk"]


def test_shadow_counter_converges_to_secondary_credit():
    engine, (primary_cmb, primary), (_secondary_cmb, _s) = make_pair()

    def proc():
        for i in range(4):
            yield primary_cmb.receive(i * 100, 100, f"c{i}")

    engine.process(proc())
    engine.run(until=1_000_000.0)
    assert primary.shadow_counters["secondary"].value == 400


def test_eager_visible_counter_waits_for_secondary():
    engine, (primary_cmb, primary), (_scmb, _s) = make_pair(
        update_period_ns=100_000.0  # slow reporting
    )

    def proc():
        yield primary_cmb.receive(0, 100, "x")

    engine.process(proc())
    engine.run(until=5_000.0)
    # Local persist is done, but no shadow update arrived yet.
    assert primary_cmb.credit.value == 100
    assert primary.visible_counter() == 0
    engine.run(until=1_000_000.0)
    assert primary.visible_counter() == 100


def test_lazy_policy_ignores_secondary_lag():
    engine, (primary_cmb, primary), _secondary = make_pair(
        update_period_ns=100_000.0
    )
    primary.policy = LazyReplication()

    def proc():
        yield primary_cmb.receive(0, 100, "x")

    engine.process(proc())
    engine.run(until=5_000.0)
    assert primary.visible_counter() == 100


def test_shadow_update_latency_includes_period_and_hops():
    """Fig. 13's mechanism: update delay ~ persist + wait-for-cycle + hop."""
    deltas = []
    for period in (400.0, 1600.0):
        engine, (primary_cmb, primary), _sec = make_pair(
            update_period_ns=period
        )
        arrival = {}
        primary.watch_shadow(
            lambda peer, value: arrival.setdefault(value, engine.now)
        )
        start = {}

        def proc():
            start["t"] = engine.now
            yield primary_cmb.receive(0, 64, "probe")

        engine.process(proc())
        engine.run(until=1_000_000.0)
        deltas.append(arrival[64] - start["t"])
    # Slower reporting can only increase the observed delay.
    assert deltas[1] >= deltas[0]


def test_secondary_counts_updates_sent_only_on_change():
    engine, _primary, (_scmb, secondary) = make_pair(update_period_ns=100.0)
    engine.run(until=10_000.0)
    # No writes happened: the reporter must stay quiet (no redundant TLPs).
    assert secondary.counter_updates_sent == 0


def test_add_peer_requires_primary_role():
    engine = Engine()
    cmb = CmbModule(engine, sram_backing(engine), queue_bytes=4096)
    transport = TransportModule(engine, cmb)
    with pytest.raises(RuntimeError):
        transport.add_peer("x")


def test_duplicate_peer_rejected():
    engine, (_pcmb, primary), _secondary = make_pair()
    with pytest.raises(ValueError):
        primary.add_peer("secondary")


def test_set_standalone_clears_replication_state():
    engine, (_pcmb, primary), _secondary = make_pair()
    primary.set_standalone()
    assert primary.role is TransportRole.STANDALONE
    assert not primary.shadow_counters
    assert primary.visible_counter() == primary.cmb.credit.value


def test_quick_rejoin_leaves_one_reporter():
    """A halt and a rejoin at one instant leave exactly one reporter.

    The old reporter has a tick pending when the new one starts; it must
    stand down instead of reporting every later change a second time.
    """
    engine, (primary_cmb, primary), (_scmb, secondary) = make_pair()
    received = []
    primary.watch_shadow(lambda _peer, value: received.append(value))

    def proc():
        yield engine.timeout(10_000.0)
        secondary.halt()
        secondary.restart_flows()
        secondary.set_secondary("primary")
        for index in range(5):
            yield engine.timeout(20_000.0)
            yield primary_cmb.receive(index * 64, 64, f"c{index}")

    engine.process(proc())
    engine.run(until=500_000.0)
    assert secondary.counter_updates_sent == 5
    assert received == [64, 128, 192, 256, 320]
