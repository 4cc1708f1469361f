"""MMIO regions: how CPU stores become TLPs.

The CMB area is exposed to the host via memory mapping.  How the CPU maps
the region determines the store-to-TLP relationship (Intel SDM ch. 11,
cited as [32] in the paper):

* **Uncached (UC)**: every store issues immediately as its own TLP, at most
  8 bytes of payload each.  Strongly ordered, horribly inefficient.
* **Write Combining (WC)**: stores accumulate in a 64-byte WC buffer that
  flushes as one TLP when full (or on an explicit fence / partial-flush
  trigger).  Up to 64 bytes per TLP — an ~8x payload improvement.

Fig. 10 of the paper measures exactly this difference; the model below
reproduces the mechanism, not a curve fit.  Packets travel by size (see
:meth:`~repro.pcie.link.PcieLink.send_train`); the data they carry is
handed to the device as contributions, not inside packet objects.
"""

import enum
from collections import deque

from repro.pcie.tlp import payload_sizes

# x86 WC buffer (fill buffer) size in bytes.
WC_BUFFER_BYTES = 64

# Largest single store a CPU can issue to UC space (one register's worth).
MAX_UC_STORE_BYTES = 8

# Cost of executing one register-width store instruction to an MMIO
# address, beyond link time (pipeline + SFENCE amortization), in ns.  A
# logical write of N bytes is ceil(N / 8) such stores.
STORE_ISSUE_NS = 5.0


class CachePolicy(enum.Enum):
    """Memory type the region is mapped with."""

    UNCACHED = "UC"
    WRITE_COMBINING = "WC"


# Bound once: on CPython 3.11 reading an enum member through its class
# costs about as much as a function call, and every store reads it.
_WRITE_COMBINING = CachePolicy.WRITE_COMBINING


class MmioRegion:
    """A device memory window mapped into the host address space.

    ``store(address, size, contribution)`` models the CPU writing ``size``
    bytes at the region-relative ``address``; it returns an event that
    fires when the CPU has issued the stores.  The device side observes
    the data through ``on_write(callback)``.

    Packets go on the link by size, one :meth:`~repro.pcie.link.PcieLink.
    send_train` of one packet each.  Contributions wait in one FIFO
    until the packet carrying their last byte is sent, then ride in a
    second FIFO, one entry per packet in flight; each arrival delivers
    the head entry.  That is exact because every packet of a region
    crosses the same link direction, whose completions fire in send
    order.

    ``load(size)`` models an MMIO read (control-interface polls): a
    non-posted round trip over the link.
    """

    def __init__(self, engine, link, size,
                 policy=CachePolicy.WRITE_COMBINING, name="mmio"):
        if size <= 0:
            raise ValueError("MMIO region size must be positive")
        self.engine = engine
        self.link = link
        self.size = size
        self.policy = policy
        self.name = name
        # The CPU-side 64-byte WC buffer: base address and byte count of
        # the run being combined (WC mappings only).
        self._run_base = 0
        self._run_filled = 0
        self._write_callbacks = []
        # Contributions (stream offset, nbytes, payload) whose bytes are
        # not yet fully on the wire, in store order; ``_head_sent`` bytes
        # of the head already are.  A contribution rides with the packet
        # carrying its *last* byte, so the device never learns of data
        # still sitting in the host's WC buffer (crash fidelity).
        self._pending = deque()
        self._head_sent = 0
        # Per packet in flight to observers, in send order: the
        # contributions its arrival delivers.
        self._arrivals = deque()
        # Bound once: it is registered on every packet's arrival.
        self._deliver = self._deliver_head
        self.stores_issued = 0
        self.tlps_emitted = 0

    def on_write(self, callback):
        """Register ``callback(offset, nbytes, payload)`` for data arriving
        at the device: once per contribution, at the arrival of the packet
        carrying its last byte."""
        self._write_callbacks.append(callback)

    # -- host-side operations ---------------------------------------------------

    def store(self, address, size, contribution):
        """CPU store of ``size`` bytes at ``address`` (region-relative).

        ``contribution`` is the ``(stream_offset, nbytes, payload)`` these
        bytes represent; the region delivers each contribution exactly
        once, in store order, with the packet that flushes its last byte.

        Memory writes are *posted*: the store retires once the write
        leaves the store buffer — the CPU never waits for PCIe delivery.
        The returned event therefore models only the instruction-issue
        cost; packets travel (and reach the ``on_write`` observers)
        asynchronously.
        """
        if size < 0:
            raise ValueError(f"cannot store a negative size ({size})")
        if address < 0 or address + size > self.size:
            raise ValueError(
                f"store [{address}, {address + size}) outside region of "
                f"size {self.size}"
            )
        self.stores_issued += 1
        self._pending.append(contribution)
        if self.policy is _WRITE_COMBINING:
            # Sequential stores append to the run.  A non-contiguous store
            # evicts it first (as the hardware does), and every 64 bytes
            # the run fills go out as one packet.
            filled = self._run_filled
            if filled and address != self._run_base + filled:
                self._send(filled)
                filled = 0
            if not filled:
                self._run_base = address
            filled += size
            while filled >= WC_BUFFER_BYTES:
                self._send(WC_BUFFER_BYTES)
                self._run_base += WC_BUFFER_BYTES
                filled -= WC_BUFFER_BYTES
            self._run_filled = filled
        else:
            for payload in payload_sizes(size, MAX_UC_STORE_BYTES):
                self._send(payload)
        register_stores = -(-size // MAX_UC_STORE_BYTES)
        return self.engine.timeout(STORE_ISSUE_NS * register_stores)

    def fence(self):
        """SFENCE: force out any half-filled WC buffer."""
        if self.policy is _WRITE_COMBINING and self._run_filled:
            self._send(self._run_filled)
            self._run_filled = 0
        return self.engine.timeout(0.0)

    def load(self, size=8):
        """MMIO read of ``size`` bytes; event fires when data arrives."""
        return self.link.read_roundtrip(size)

    # -- internals ---------------------------------------------------------------

    def _send(self, payload):
        """Put one ``payload``-byte write packet on the link."""
        self.tlps_emitted += 1
        done = self.link.send_train([payload])
        # Byte conservation holds — the region emits exactly the bytes it
        # was asked to store — so consuming each packet's payload from the
        # FIFO identifies the packet carrying each contribution's final
        # byte.  A packet may complete none.
        pending = self._pending
        entry = ()
        while payload > 0 and pending:
            left = pending[0][1] - self._head_sent
            if left > payload:
                self._head_sent += payload
                break
            payload -= left
            self._head_sent = 0
            entry += (pending.popleft(),)
        if self._write_callbacks:
            self._arrivals.append(entry)
            done.then(self._deliver)

    def _deliver_head(self, _event):
        entry = self._arrivals.popleft()
        for callback in self._write_callbacks:
            for offset, nbytes, payload in entry:
                callback(offset, nbytes, payload)
