"""The device-side DMA engine.

When the HIC fetches an NVMe write command it uses DMA to pull the payload
from host memory into the device's data buffer (Section 2.2, "The Life of a
Log Write").  A DMA burst is a stream of read-request/completion exchanges;
we model it as one request round plus the payload streaming back as
Max-Payload-sized completions.  Packets travel by size: the completions
of a burst go on the wire as one train
(:meth:`~repro.pcie.link.PcieLink.send_train`), where every packet is
counted and paces the link but only the last one arms a timer, since
nothing waits on the others.  The read request is a one-packet train
with no payload.
"""

from repro.pcie.tlp import DEFAULT_MAX_PAYLOAD, payload_sizes


class DmaEngine:
    """Moves bulk data between host memory and the device over the link."""

    def __init__(self, engine, link, max_payload=DEFAULT_MAX_PAYLOAD):
        self.engine = engine
        self.link = link
        self.max_payload = max_payload
        self.bytes_pulled = 0
        self.bytes_pushed = 0

    def pull(self, size):
        """Host memory -> device, ``size`` bytes (NVMe write payload).

        The device sends one read request toward host memory; once it has
        crossed the link, the host returns the data as completions on the
        host-to-device direction.  Returns an event firing, with value
        ``size``, when the last completion arrives at the device.
        """
        if size < 0:
            raise ValueError("cannot DMA a negative size")
        self.bytes_pulled += size
        done = self.engine.event()

        def _after_request(_event):
            if not size:
                done.succeed(0)
                return
            last = self.link.send_train(payload_sizes(size, self.max_payload))
            last.then(lambda _event: done.succeed(size))

        self.link.receive_train([0]).then(_after_request)
        return done

    def push(self, size):
        """Device -> host memory, ``size`` bytes (NVMe read payload).

        Posted memory writes upstream; event fires when the last lands.
        """
        if size < 0:
            raise ValueError("cannot DMA a negative size")
        self.bytes_pushed += size
        if not size:
            return self.engine.timeout(0.0, value=0)
        done = self.engine.event()
        self.link.receive_train(payload_sizes(size, self.max_payload)).then(
            lambda _event: done.succeed(size))
        return done
