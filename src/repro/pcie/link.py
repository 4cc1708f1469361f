"""The PCIe link: a pair of serial, finite-bandwidth lanes bundles.

A link is full-duplex; each direction is an independent
:class:`~repro.sim.resources.BandwidthPipe`.  Bandwidth comes from the lane
count and generation: Gen2 delivers 500 MB/s per lane after 8b/10b coding,
so the paper's deliberately constrained x4 Gen2 CMB path is 2 GB/s —
matching the Villars experiments (Section 6, "Implementation details").
"""

from collections import deque

from repro.sim.resources import BandwidthPipe
from repro.pcie.tlp import TLP_OVERHEAD_BYTES

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

    Packets travel by size: ``send_train`` (host -> device) and
    ``receive_train`` (device -> host) put back-to-back packets on one
    direction and return an event that fires when the last has fully
    arrived at the other end; ``read_roundtrip`` is a non-posted MMIO
    read.  DMA bursts, MMIO stores and MMIO reads all travel this way.
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

    def send_train(self, payloads):
        """Transmit back-to-back TLPs carrying ``payloads`` bytes each
        toward the device; the event fires when the last arrives.

        Every packet is counted and paces the wire, each occupying its
        payload plus :data:`~repro.pcie.tlp.TLP_OVERHEAD_BYTES`, but only
        the last packet arms a timer.  ``payloads`` must not be empty.
        """
        arrived = self.downstream.transfer_train(payloads, TLP_OVERHEAD_BYTES)
        self.tlps_down += len(payloads)
        return arrived

    def receive_train(self, payloads):
        """Transmit back-to-back TLPs carrying ``payloads`` bytes each
        toward the host; the event fires when the last arrives.

        The upstream counterpart of :meth:`send_train`.
        """
        arrived = self.upstream.transfer_train(payloads, TLP_OVERHEAD_BYTES)
        self.tlps_up += len(payloads)
        return arrived

    def read_roundtrip(self, size):
        """Host MMIO read of ``size`` bytes: request down, completion up.

        Returns an event firing when the completion data reaches the host.
        MMIO reads are non-posted and stall the issuing CPU — this is why
        polling the credit counter has a real cost (Sections 4.1, 5.1).

        The round trip arms one timer per direction, and the returned
        event fires one immediate hop after the completion's arrival.
        Reads in flight wait in two FIFOs (requests, then completions),
        which is exact because each direction's completions fire in send
        order.
        """
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
