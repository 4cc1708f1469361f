"""The PCIe link: a pair of serial, finite-bandwidth lanes bundles.

A link is full-duplex; each direction is an independent
:class:`~repro.sim.resources.BandwidthPipe`.  Bandwidth comes from the lane
count and generation: Gen2 delivers 500 MB/s per lane after 8b/10b coding,
so the paper's deliberately constrained x4 Gen2 CMB path is 2 GB/s —
matching the Villars experiments (Section 6, "Implementation details").
"""

from collections import deque

from repro.sim.resources import BandwidthPipe
from repro.pcie.tlp import TLP_OVERHEAD_BYTES, Tlp, TlpType

# Effective per-lane bandwidth in GB/s (== bytes/ns) after line coding.
_PER_LANE_GBPS = {
    1: 0.25,  # Gen1: 2.5 GT/s with 8b/10b
    2: 0.50,  # Gen2: 5.0 GT/s with 8b/10b
    3: 0.985,  # Gen3: 8.0 GT/s with 128b/130b
    4: 1.969,  # Gen4
}

# One-way propagation + switch latency for a TLP, in ns.  Within a single
# host's PCIe hierarchy this is a few hundred nanoseconds.
DEFAULT_PROPAGATION_NS = 250.0


def link_bandwidth(lanes, gen):
    """Usable bandwidth in bytes/ns for a ``lanes`` x Gen ``gen`` link."""
    if gen not in _PER_LANE_GBPS:
        raise ValueError(f"unsupported PCIe generation: {gen}")
    if lanes not in (1, 2, 4, 8, 16):
        raise ValueError(f"invalid lane count: {lanes}")
    return lanes * _PER_LANE_GBPS[gen]


class PcieLink:
    """A full-duplex point-to-point link carrying TLPs.

    ``send(tlp)`` (host -> device direction) and ``receive(tlp)``
    (device -> host) return events that fire when the packet has fully
    arrived at the other end.  ``send_train``/``receive_train`` and
    ``read_roundtrip`` move packets by size alone, building no
    :class:`Tlp`, which is how DMA bursts, MMIO stores and MMIO reads
    travel.  Observers can subscribe to packets delivered downstream;
    while one is subscribed, those paths build each packet so it sees
    them all.
    """

    def __init__(self, engine, lanes=4, gen=2,
                 propagation_ns=DEFAULT_PROPAGATION_NS, name="pcie"):
        bandwidth = link_bandwidth(lanes, gen)
        self.engine = engine
        self.name = name
        self.lanes = lanes
        self.gen = gen
        self.downstream = BandwidthPipe(
            engine, bandwidth, latency=propagation_ns, name=f"{name}.down"
        )
        self.upstream = BandwidthPipe(
            engine, bandwidth, latency=propagation_ns, name=f"{name}.up"
        )
        self._downstream_taps = []
        # MMIO reads in flight: (size, event) per request on its way
        # down, then the event per completion on its way up.
        self._requests = deque()
        self._completions = deque()
        self.tlps_down = 0
        self.tlps_up = 0

    @property
    def bandwidth(self):
        """One-direction bandwidth in bytes/ns."""
        return self.downstream.bandwidth

    def tap_downstream(self, callback):
        """Register ``callback(tlp)`` invoked when a TLP is delivered."""
        self._downstream_taps.append(callback)

    def send(self, tlp):
        """Transmit ``tlp`` toward the device; event fires on delivery."""
        self._check(tlp)
        self.tlps_down += 1
        done = self.downstream.transfer(tlp.wire_size)
        if self._downstream_taps:
            done.then(lambda _event: self._notify(tlp))
        return done

    def receive(self, tlp):
        """Transmit ``tlp`` toward the host; event fires on delivery."""
        self._check(tlp)
        self.tlps_up += 1
        return self.upstream.transfer(tlp.wire_size)

    def send_train(self, kind, payloads, address=0):
        """Transmit back-to-back ``kind`` TLPs carrying ``payloads`` bytes
        each toward the device; the event fires when the last arrives.

        Every packet is counted and paces the wire as if sent with
        :meth:`send`, but no :class:`Tlp` is built and only the last
        packet arms a timer.  While a downstream tap is installed the
        train goes packet by packet instead, so the tap sees each one,
        addressed contiguously from ``address``.  ``payloads`` must not
        be empty.
        """
        if self._downstream_taps:
            for payload in payloads:
                last = self.send(Tlp(kind, address=address, payload=payload))
                address += payload
            return last
        self.tlps_down += len(payloads)
        return self.downstream.transfer_train(payloads, TLP_OVERHEAD_BYTES)

    def receive_train(self, payloads):
        """Transmit back-to-back TLPs carrying ``payloads`` bytes each
        toward the host; the event fires when the last arrives.

        The upstream counterpart of :meth:`send_train` (the upstream
        direction has no taps).
        """
        self.tlps_up += len(payloads)
        return self.upstream.transfer_train(payloads, TLP_OVERHEAD_BYTES)

    def _notify(self, tlp):
        for tap in self._downstream_taps:
            tap(tlp)

    @staticmethod
    def _check(tlp):
        if not isinstance(tlp, Tlp):
            raise TypeError(f"expected a Tlp, got {type(tlp).__name__}")

    def read_roundtrip(self, size):
        """Host MMIO read of ``size`` bytes: request down, completion up.

        Returns an event firing when the completion data reaches the host.
        MMIO reads are non-posted and stall the issuing CPU — this is why
        polling the credit counter has a real cost (Sections 4.1, 5.1).

        Like :meth:`send_train`, the round trip builds no :class:`Tlp`
        unless a downstream tap must see the request: it arms one timer
        per direction, and the returned event fires one immediate hop
        after the completion's arrival.  Reads in flight wait in two FIFOs
        (requests, then completions), which is exact because each
        direction's completions fire in send order.
        """
        if self._downstream_taps:
            request_sent = self.send(
                Tlp(TlpType.MEMORY_READ, address=0, payload=0))
        else:
            self.tlps_down += 1
            request_sent = self.downstream.transfer(TLP_OVERHEAD_BYTES)
        done = self.engine.event()
        self._requests.append((size, done))
        request_sent.then(self._on_request)
        return done

    def _on_request(self, _event):
        size, done = self._requests.popleft()
        self.tlps_up += 1
        self._completions.append(done)
        self.upstream.transfer(size + TLP_OVERHEAD_BYTES).then(
            self._on_completion)

    def _on_completion(self, event):
        self._completions.popleft().succeed(event._value)
