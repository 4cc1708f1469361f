"""Differential test: NTB packets by size against a per-packet-object bridge.

The bridge forwards a packet as plain values (kind, wire address,
payload size, body).  The reference below is the earlier forwarding
path, where every packet was a ``Tlp`` object carrying its kind and body
in a ``metadata`` dict and its corruption as a metadata flag.  Both run
on the same :class:`~repro.pcie.ntb.NtbBridge` state (its two
``BandwidthPipe``s, sever, corruption and latency-spike injection), and
must agree on every arrival instant, every sink call and its order, every
delivered-or-dropped value, the drop and corruption counts and every
tracer span and instant.
"""

from hypothesis import given, strategies as st

from repro.obs.trace import Tracer
from repro.pcie.ntb import NtbBridge, NtbPort
from repro.pcie.tlp import TLP_OVERHEAD_BYTES
from repro.sim import Engine


class Tlp:
    """The reference's packet object: size, address and a metadata dict."""

    __slots__ = ("address", "payload", "metadata", "wire_size")

    def __init__(self, address, payload, metadata):
        self.address = address
        self.payload = payload
        self.metadata = metadata
        self.wire_size = payload + TLP_OVERHEAD_BYTES


def reference_forward(bridge, source_port, tlp):
    """The per-``Tlp`` ``NtbBridge.forward``, on ``bridge``'s state."""
    if source_port is bridge.port_a:
        peer, pipe = bridge.port_b, bridge._pipe_ab
    elif source_port is bridge.port_b:
        peer, pipe = bridge.port_a, bridge._pipe_ba
    else:
        raise ValueError("port does not belong to this bridge")
    tracer = bridge._tracer
    token = None
    if bridge._tracing:
        kind = tlp.metadata.get("kind")
        token = tracer.begin(
            pipe.name, kind or "tlp",
            flow=tlp.address if kind == "mirror" else None,
            nbytes=tlp.wire_size,
        )
    if bridge._corrupt_budget > 0:
        bridge._corrupt_budget -= 1
        bridge.tlps_corrupted += 1
        tlp.metadata["corrupted"] = True
        if bridge._tracing:
            tracer.instant(pipe.name, "tlp-corrupted", address=tlp.address)
    done = pipe.transfer(tlp.wire_size)
    delivery = bridge.engine.event()

    def _arrived(_event):
        if bridge.link_up:
            if token is not None:
                tracer.end(token)
            peer._sink(tlp)
            delivery.succeed(tlp)
        else:
            bridge.tlps_dropped += 1
            if token is not None:
                tracer.instant(pipe.name, "tlp-dropped",
                               address=tlp.address)
                tracer.end(token, dropped=True)
            delivery.succeed(None)

    def _maybe_delayed(_event):
        if bridge.engine.now < bridge._spike_until_ns:
            bridge.engine.timeout(bridge._spike_extra_ns).then(_arrived)
        else:
            _arrived(_event)

    done.then(_maybe_delayed)
    return delivery


def _as_tlp(kind, address, nbytes, body):
    """The reference's packet for a send of ``body``."""
    if kind == "mirror":
        metadata = {"contributions": [body], "kind": "mirror"}
    else:
        peer, value = body
        metadata = {"kind": kind, "peer": peer, "value": value}
    return Tlp(address, nbytes, metadata)


def _from_tlp(tlp):
    """A delivered reference packet as the sink values the bridge passes."""
    metadata = tlp.metadata
    kind = metadata["kind"]
    if kind == "mirror":
        body = metadata["contributions"][0]
    else:
        body = (metadata["peer"], metadata["value"])
    return (kind, tlp.address, tlp.payload,
            metadata.get("corrupted", False), *body)


SEND = st.tuples(
    st.just("send"), st.floats(0.0, 400.0), st.booleans(),
    st.one_of(
        st.tuples(st.just("mirror"), st.integers(1, 4096)),
        st.tuples(st.just("counter-update"), st.just(8)),
    ),
)
OPS = st.lists(
    st.one_of(
        SEND, SEND, SEND,
        st.tuples(st.just("sever"), st.floats(0.0, 400.0)),
        st.tuples(st.just("restore"), st.floats(0.0, 400.0)),
        st.tuples(st.just("corrupt"), st.floats(0.0, 400.0),
                  st.integers(0, 3)),
        st.tuples(st.just("spike"), st.floats(0.0, 400.0),
                  st.floats(0.0, 3000.0), st.floats(0.0, 2000.0)),
    ),
    min_size=1, max_size=40,
)


def _run(ops, tracing, reference):
    """Drive ``ops`` through a fresh bridge; returns the bridge, the log
    of sink calls and delivery values, and the tracer's records."""
    engine = Engine()
    tracer = None
    if tracing:
        tracer = engine.tracer = Tracer(engine, label="ntb")
    ports = NtbPort(engine, "a"), NtbPort(engine, "b")
    bridge = NtbBridge(engine, *ports, bandwidth=2.0, hop_latency=300.0)
    log = []
    for port in ports:
        if reference:
            port.attach_sink(lambda tlp, name=port.name: log.append(
                ("sink", engine.now, name, _from_tlp(tlp))))
        else:
            port.attach_sink(lambda *packet, name=port.name: log.append(
                ("sink", engine.now, name, packet)))

    def send(index, from_b, kind, nbytes):
        source = ports[1] if from_b else ports[0]
        if kind == "mirror":
            address = 4096 * index
            body = (address, nbytes, f"chunk-{index}")
        else:
            address = 0
            body = (f"peer-{index % 3}", index)
        if reference:
            delivery = reference_forward(
                bridge, source, _as_tlp(kind, address, nbytes, body))
        else:
            delivery = source.send(kind, address, nbytes, *body)
        delivery.then(lambda event: log.append(
            ("delivery", engine.now, index, event.value is not None)))

    def driver():
        for index, op in enumerate(ops):
            yield engine.timeout(op[1])
            if op[0] == "send":
                send(index, op[2], *op[3])
            elif op[0] == "sever":
                bridge.sever()
            elif op[0] == "restore":
                bridge.restore()
            elif op[0] == "corrupt":
                bridge.corrupt_next(op[2])
            else:
                bridge.inject_latency_spike(op[2], op[3])

    engine.process(driver())
    engine.run()
    records = [
        (type(event).__name__,
         tuple(getattr(event, slot) for slot in event.__slots__))
        for event in (tracer.events if tracing else ())]
    return bridge, log, records


@given(ops=OPS, tracing=st.booleans())
def test_bridge_matches_per_tlp_reference(ops, tracing):
    bridge, log, records = _run(ops, tracing, reference=False)
    ref_bridge, ref_log, ref_records = _run(ops, tracing, reference=True)
    assert log == ref_log
    assert records == ref_records
    assert bridge.tlps_dropped == ref_bridge.tlps_dropped
    assert bridge.tlps_corrupted == ref_bridge.tlps_corrupted
    for pipe, ref_pipe in ((bridge._pipe_ab, ref_bridge._pipe_ab),
                           (bridge._pipe_ba, ref_bridge._pipe_ba)):
        assert pipe._busy_until == ref_pipe._busy_until
        assert pipe.bytes_transferred == ref_pipe.bytes_transferred


def test_spiked_packet_is_overtaken_in_both():
    """A packet reaching the far end of the pipe inside a spike window
    is delayed; one reaching it after the window is not, and overtakes
    it.  The bridge and the reference agree on that order."""
    ops = [
        ("spike", 0.0, 2000.0, 600.0),
        ("send", 0.0, False, ("mirror", 64)),
        ("send", 600.0, False, ("mirror", 64)),
    ]
    _bridge, log, _records = _run(ops, tracing=True, reference=False)
    _ref_bridge, ref_log, _ref_records = _run(ops, tracing=True,
                                              reference=True)
    assert log == ref_log
    sinks = [entry[3][1] for entry in log if entry[0] == "sink"]
    assert sinks == [4096 * 2, 4096 * 1]
