"""Non-Transparent Bridging: PCIe as the inter-server network.

NTB connects two hosts' PCIe domains through an adapter that translates
addresses and forwards TLPs (Section 2.3).  Unlike Ethernet or InfiniBand
there is no protocol conversion — a TLP goes in, a TLP comes out — which is
why the paper picked it for the Transport module: the device already speaks
TLPs, so bridging costs only address translation plus the cable.

The model: an :class:`NtbBridge` joins two :class:`NtbPort` endpoints.  Each
direction is a finite-bandwidth pipe with a per-hop translation latency.
A packet is its size: it occupies its payload plus the TLP overhead on
the wire, and carries its kind, wire address and body (the data the
simulator tracks beside the bytes) as plain values to the peer's sink.
Daisy-chaining (the Dolphin PXH830 setup of the experiments) composes
bridges, one per adjacent pair of servers (see
:mod:`repro.cluster.topology`); a forwarded packet pays each hop it
crosses.
"""

from repro.sim.resources import BandwidthPipe
from repro.pcie.tlp import TLP_OVERHEAD_BYTES

# Dolphin PXH830-class adapters: x8 Gen3 cable ~= 7.9 GB/s; we expose a
# conservative usable figure.
DEFAULT_NTB_BANDWIDTH = 7.0  # bytes/ns == GB/s

# One-way latency of an NTB hop (address translation + cable + switch).
# Measured sub-microsecond figures appear in the device-lending literature
# cited by the paper ([43], [52]); 700 ns is representative.
DEFAULT_NTB_HOP_NS = 700.0


class NtbPort:
    """One endpoint of an NTB connection, owned by a device or host.

    A port hands arriving packets to its registered sink.  The address the
    peer writes to is translated by the bridge before delivery, so sinks
    see addresses in their local domain.
    """

    def __init__(self, engine, name):
        self.engine = engine
        self.name = name
        self._sink = None
        self._bridge = None

    def attach_sink(self, callback):
        """Register ``callback(kind, address, nbytes, corrupted, *body)``
        for packets arriving at this port."""
        self._sink = callback

    def send(self, kind, address, nbytes, *body):
        """Forward an ``nbytes``-payload ``kind`` packet written at
        ``address`` to the peer port; the peer's sink gets ``body``.
        The event fires on delivery there (see :meth:`NtbBridge.forward`).
        """
        if self._bridge is None:
            raise RuntimeError(f"NTB port {self.name!r} is not connected")
        return self._bridge.forward(self, kind, address, nbytes, body)


class NtbBridge:
    """A point-to-point non-transparent bridge between two ports.

    Addresses cross unchanged: the simulator's rings use region-relative
    offsets, so translation is a latency cost, not an arithmetic one.
    """

    def __init__(self, engine, port_a, port_b,
                 bandwidth=DEFAULT_NTB_BANDWIDTH, hop_latency=DEFAULT_NTB_HOP_NS):
        self.engine = engine
        self.port_a = port_a
        self.port_b = port_b
        # Pre-resolved tracing guard: ``forward`` runs once per TLP, so a
        # quiet wire should pay no engine->tracer->enabled chain per hop.
        self._tracer = engine.tracer
        self._tracing = engine.tracer.enabled
        port_a._bridge = self
        port_b._bridge = self
        # One pipe per direction, named for its trace track.
        self._pipe_ab = BandwidthPipe(
            engine, bandwidth, latency=hop_latency,
            name=f"ntb:{port_a.name}->{port_b.name}",
        )
        self._pipe_ba = BandwidthPipe(
            engine, bandwidth, latency=hop_latency,
            name=f"ntb:{port_b.name}->{port_a.name}",
        )
        # Fault injection: a severed cable silently drops TLPs (posted
        # writes have no acknowledgement), which is exactly the failure
        # the transport's status register must surface (Section 7.1).
        self.link_up = True
        self.tlps_dropped = 0
        # Corruption injection: the next N forwarded TLPs are delivered
        # with a poisoned LCRC (the sink's ``corrupted`` flag); receivers
        # discard them, so a corrupted packet behaves like a drop that
        # *did* consume wire bandwidth.
        self._corrupt_budget = 0
        self.tlps_corrupted = 0
        # Latency-spike injection: packets forwarded before the deadline
        # pay an extra per-hop delay (a congested switch, a retraining
        # link) on top of the pipe's base latency.
        self._spike_extra_ns = 0.0
        self._spike_until_ns = -1.0

    def sever(self):
        """Cut the cable: subsequent packets vanish without error."""
        self.link_up = False

    def restore(self):
        self.link_up = True

    def corrupt_next(self, count=1):
        """Poison the next ``count`` forwarded TLPs (delivered, then dropped)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._corrupt_budget += count

    def inject_latency_spike(self, extra_ns, duration_ns):
        """Add ``extra_ns`` per hop for the next ``duration_ns`` of sim time."""
        if extra_ns < 0 or duration_ns < 0:
            raise ValueError("latency spike needs non-negative magnitudes")
        self._spike_extra_ns = extra_ns
        self._spike_until_ns = self.engine.now + duration_ns

    def forward(self, source_port, kind, address, nbytes, body):
        """Carry a packet from ``source_port`` to its peer's sink.

        On a severed link the packet is dropped: the returned event still
        fires (posted writes complete locally regardless), but nothing
        arrives at the peer.  The event's value tells the sender what the
        *link layer* observed — ``True`` for a delivered packet, ``None``
        for a drop — which is what lets the transport run bounded retries
        without inventing an end-to-end acknowledgement the paper doesn't
        have.
        """
        if source_port is self.port_a:
            peer, pipe = self.port_b, self._pipe_ab
        elif source_port is self.port_b:
            peer, pipe = self.port_a, self._pipe_ba
        else:
            raise ValueError("port does not belong to this bridge")
        wire_size = nbytes + TLP_OVERHEAD_BYTES
        tracer = self._tracer
        token = None
        if self._tracing:
            # Mirror packets carry their stream offset as the wire address,
            # so the hop span joins the primary's ship span to the peer's
            # intake span in the flow view.
            token = tracer.begin(
                pipe.name, kind,
                flow=address if kind == "mirror" else None,
                nbytes=wire_size,
            )
        corrupted = self._corrupt_budget > 0
        if corrupted:
            self._corrupt_budget -= 1
            self.tlps_corrupted += 1
            if self._tracing:
                tracer.instant(pipe.name, "tlp-corrupted", address=address)
        done = pipe.transfer(wire_size)
        delivery = self.engine.event()

        def _arrived(_event):
            if self.link_up:
                if token is not None:
                    tracer.end(token)
                if peer._sink is not None:
                    peer._sink(kind, address, nbytes, corrupted, *body)
                delivery.succeed(True)
            else:
                self.tlps_dropped += 1
                if token is not None:
                    tracer.instant(pipe.name, "tlp-dropped", address=address)
                    tracer.end(token, dropped=True)
                delivery.succeed(None)

        def _maybe_delayed(_event):
            if self.engine.now < self._spike_until_ns:
                self.engine.timeout(self._spike_extra_ns).then(_arrived)
            else:
                _arrived(_event)

        done.then(_maybe_delayed)
        return delivery
