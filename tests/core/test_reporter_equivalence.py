"""The change-driven counter reporter sends what a periodic loop sends.

A secondary's reporter sleeps until an input of ``_report_value`` changes,
then rejoins its update-period grid.  ``PeriodicTransport`` keeps the loop
that wakes on every tick as a test-only reference.  Both drive the same
primary -> mid -> tail chain under hypothesis-generated inputs (chunk
arrivals, peer removal and re-addition, ``update_period_ns`` changes,
halt and rejoin, and one input landing exactly on a tick instant); the
counter updates each upstream hop receives must match, hop by hop, as
``(time, peer, value)`` logs.  (Updates to different receivers that land
at one instant may interleave differently between the loops; each
receiver's own log is what the rest of the system observes.)
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cmb import CmbModule
from repro.core.transport import TransportModule
from repro.pcie.ntb import NtbBridge, NtbPort
from repro.pm.backing import sram_backing
from repro.sim import Engine

PERIODS = (100.0, 400.0, 1_000.0, 1_600.0, 2_500.0)
HORIZON_NS = 150_000
RUN_UNTIL_NS = 400_000.0


class PeriodicTransport(TransportModule):
    """Reference reporter: wakes on every tick, whether or not news came.

    This is the loop the change-driven reporter replaced, with the same
    generation token so halt-and-rejoin compares like for like.  It also
    records every tick it wakes on, for placing inputs on ticks.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.evaluations = []

    def _report_loop(self, generation):
        engine = self.engine
        last_sent = self._report_value()
        while self._reporter_generation == generation:
            yield engine.at(engine.now + self.update_period_ns)
            self.evaluations.append(engine.now)
            value = self._report_value()
            if value == last_sent:
                continue
            last_sent = value
            yield from self._send_update(value)


class Chain:
    """primary -> mid -> tail over two NTB bridges, on bare modules."""

    def __init__(self, transport_cls, period):
        self.engine = engine = Engine()
        self.cmbs = {}
        self.transports = {}
        for name in ("primary", "mid", "tail"):
            cmb = CmbModule(engine, sram_backing(engine, capacity=256 * 1024),
                            queue_bytes=4096, name=f"{name}.cmb")
            cmb.start()
            self.cmbs[name] = cmb
            self.transports[name] = transport_cls(
                engine, cmb, name=name, update_period_ns=period)
        primary, mid, tail = (self.transports[n]
                              for n in ("primary", "mid", "tail"))
        up_primary, up_mid = NtbPort(engine, "primary"), NtbPort(engine, "mid")
        NtbBridge(engine, up_primary, up_mid)
        self.down_mid = NtbPort(engine, "mid-down")
        down_tail = NtbPort(engine, "tail")
        NtbBridge(engine, self.down_mid, down_tail)
        primary.attach_ntb(up_primary)
        mid.attach_ntb(up_mid)
        mid.attach_extra_port(self.down_mid)
        tail.attach_ntb(down_tail)
        self.log = {"primary": [], "mid": []}  # receiver -> updates
        self._log_updates(up_primary, primary)
        self._log_updates(self.down_mid, mid)
        self.offset = 0

    def _log_updates(self, port, transport):
        def sink(tlp):
            if tlp.metadata.get("kind") == "counter-update":
                self.log[transport.name].append(
                    (self.engine.now, tlp.metadata["peer"],
                     tlp.metadata["value"]))
            transport._on_ntb_packet(tlp)

        port.attach_sink(sink)

    def at(self, time_ns, action):
        """Run ``action`` at ``time_ns`` from a timer armed at time 0."""
        def proc():
            yield self.engine.timeout(time_ns)
            action()

        self.engine.process(proc())

    def wire_roles(self):
        primary, mid, tail = (self.transports[n]
                              for n in ("primary", "mid", "tail"))
        primary.set_primary()
        primary.add_peer("mid")
        mid.set_secondary("primary")
        mid.add_peer("tail", port=self.down_mid)
        tail.set_secondary("mid")

    # -- inputs ------------------------------------------------------------------

    def write(self, nbytes):
        self.cmbs["primary"].receive(self.offset, nbytes, f"c@{self.offset}")
        self.offset += nbytes

    def set_period(self, name, period):
        self.transports[name].update_period_ns = period

    def toggle_tail_peer(self):
        mid = self.transports["mid"]
        if "tail" in mid.shadow_counters:
            mid.remove_peer("tail")
        else:
            mid.add_peer("tail", port=self.down_mid)
            self._resync_tail()

    def halt_tail(self):
        self.transports["tail"].halt()

    def rejoin_tail(self):
        tail = self.transports["tail"]
        tail.restart_flows()
        tail.set_secondary("mid")
        self._resync_tail()

    def _resync_tail(self):
        if "tail" in self.transports["mid"].shadow_counters:
            self.transports["mid"].resync_peer(
                "tail", from_offset=self.cmbs["tail"].credit.value)


def run(transport_cls, inputs, tie=None):
    """Build a chain, schedule ``inputs`` (and the tie input), run it."""
    chain = Chain(transport_cls, inputs["period"])
    # Every input's timer is armed before the reporters start, so an
    # input landing on a tick fires before that tick's evaluation under
    # either loop.
    for time_ns, nbytes in inputs["chunks"]:
        chain.at(time_ns, lambda n=nbytes: chain.write(n))
    for time_ns, name, period in inputs["period_changes"]:
        chain.at(time_ns, lambda n=name, p=period: chain.set_period(n, p))
    for time_ns in inputs["peer_toggles"]:
        chain.at(time_ns, chain.toggle_tail_peer)
    if inputs["halt"] is not None:
        halt_at, down_for = inputs["halt"]
        chain.at(halt_at, chain.halt_tail)
        chain.at(halt_at + down_for, chain.rejoin_tail)
    if tie is not None:
        time_ns, target, deferred = tie
        if target == "mid":
            action = chain.toggle_tail_peer
        else:  # halt and rejoin the tail at one instant, on its tick
            def action():
                chain.halt_tail()
                chain.rejoin_tail()
        if deferred:
            # Off the immediate queue: after every timer of that instant,
            # the periodic loop's included.
            chain.at(time_ns, lambda: chain.engine.timeout(0.0).then(
                lambda _event: action()))
        else:
            chain.at(time_ns, action)
    chain.wire_roles()
    chain.engine.run(until=RUN_UNTIL_NS)
    return chain


times = st.integers(min_value=0, max_value=HORIZON_NS)
chain_inputs = st.fixed_dictionaries({
    "period": st.sampled_from(PERIODS),
    "chunks": st.lists(
        st.tuples(times, st.sampled_from((64, 128, 256, 512))),
        min_size=1, max_size=30),
    "period_changes": st.lists(
        st.tuples(times, st.sampled_from(("mid", "tail")),
                  st.sampled_from(PERIODS)),
        max_size=3),
    "peer_toggles": st.lists(times, max_size=3),
    "halt": st.none() | st.tuples(
        times, st.sampled_from((0, 1, 400, 5_000, 40_000))),
})


@settings(max_examples=60, deadline=None)
@given(inputs=chain_inputs, target=st.sampled_from(("mid", "tail")),
       pick=st.integers(min_value=0, max_value=10_000),
       deferred=st.booleans())
# At a 1 us period the tail's update, armed one NTB hop (~705 ns) before
# it lands, arrives exactly on the middle server's tick: the periodic
# loop evaluates first and reports it one period later.
@example(inputs={"period": 1_000.0, "chunks": [(0, 64)] * 7 + [(10_590, 512)],
                 "period_changes": [], "peer_toggles": [9_876], "halt": None},
         target="mid", pick=10, deferred=False)
def test_change_driven_reporter_matches_periodic_loop(inputs, target, pick,
                                                      deferred):
    # A first reference run finds the target reporter's tick instants;
    # the tie input then lands exactly on one of them.
    probe = run(PeriodicTransport, inputs)
    ticks = probe.transports[target].evaluations
    tie = (ticks[pick % len(ticks)], target, deferred) if ticks else None

    reference = run(PeriodicTransport, inputs, tie)
    if tie is not None:
        assert tie[0] in reference.transports[target].evaluations
    changed = run(TransportModule, inputs, tie)

    assert changed.log == reference.log
    for name in ("mid", "tail"):
        assert (changed.transports[name].counter_updates_sent
                == reference.transports[name].counter_updates_sent)
    assert changed.cmbs["tail"].credit.value == \
        reference.cmbs["tail"].credit.value
