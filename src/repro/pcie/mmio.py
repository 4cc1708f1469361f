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
reproduces the mechanism, not a curve fit.
"""

import enum

from repro.pcie.tlp import Tlp, TlpType, split_into_tlps

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


class WriteCombiningBuffer:
    """The CPU-side 64-byte coalescing buffer for one WC mapping.

    Tracks only byte counts and the base address of the run being combined;
    sequential stores append, a fence or a full buffer emits a TLP.
    """

    def __init__(self):
        self.base_address = None
        self.filled = 0

    def add(self, address, size):
        """Append a store; returns a list of TLPs emitted by this store.

        A store that is non-contiguous with the current run, or that
        overfills the buffer, flushes first (the hardware evicts the WC
        buffer on such events).
        """
        emitted = []
        contiguous = (
            self.base_address is not None
            and address == self.base_address + self.filled
        )
        if self.filled and not contiguous:
            emitted.extend(self.flush())
        if self.base_address is None or not self.filled:
            self.base_address = address
        remaining = size
        cursor = address
        while remaining > 0:
            space = WC_BUFFER_BYTES - self.filled
            take = min(space, remaining)
            self.filled += take
            remaining -= take
            cursor += take
            if self.filled == WC_BUFFER_BYTES:
                emitted.extend(self.flush())
                self.base_address = cursor
        return emitted

    def flush(self):
        """Evict the buffer; returns the TLP list (empty if nothing pending)."""
        if not self.filled:
            return []
        tlp = Tlp(
            kind=TlpType.MEMORY_WRITE,
            address=self.base_address,
            payload=self.filled,
        )
        self.base_address = None
        self.filled = 0
        return [tlp]


class MmioRegion:
    """A device memory window mapped into the host address space.

    ``store(address, size)`` models the CPU writing ``size`` bytes at the
    region-relative ``address``; it returns an event that fires when all
    resulting TLPs have been delivered to the device.  The device side
    observes packets through ``on_write(callback)``.

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
        self._wc_buffer = WriteCombiningBuffer()
        self._write_callbacks = []
        # Contributions (stream offset, nbytes, payload) whose bytes are
        # not yet fully on the wire.  Each entry tracks its remaining
        # byte count; a contribution rides with the TLP carrying its
        # *last* byte, so the device never learns of data still sitting
        # in the host's WC buffer (crash fidelity).
        self._unattached = []
        # Once a store has supplied explicit contributions, every TLP from
        # this region carries a contributions list (possibly empty) so
        # receivers never misinterpret raw wire addresses as stream data.
        self._streamed = False
        self.stores_issued = 0
        self.tlps_emitted = 0

    def on_write(self, callback):
        """Register ``callback(tlp)`` for packets arriving at the device."""
        self._write_callbacks.append(callback)

    # -- host-side operations ---------------------------------------------------

    def store(self, address, size, tag=None):
        """CPU store of ``size`` bytes at ``address`` (region-relative).

        ``tag`` may carry ``{"contributions": [(stream_offset, nbytes,
        payload), ...]}`` describing the logical data these bytes
        represent; the region delivers each contribution exactly once,
        in store order, attached to the TLP that flushes its bytes.
        """
        if address < 0 or address + size > self.size:
            raise ValueError(
                f"store [{address}, {address + size}) outside region of "
                f"size {self.size}"
            )
        self.stores_issued += 1
        contributions = (tag or {}).get("contributions") if tag else None
        if contributions:
            for offset, nbytes, payload in contributions:
                self._unattached.append([offset, nbytes, payload, nbytes])
            self._streamed = True
        if self.policy is CachePolicy.WRITE_COMBINING:
            tlps = self._wc_buffer.add(address, size)
        else:
            tlps = split_into_tlps(address, size,
                                   max_payload=MAX_UC_STORE_BYTES)
        self._attach_contributions(tlps)
        register_stores = -(-size // MAX_UC_STORE_BYTES)
        return self._emit(tlps, issue_cost=STORE_ISSUE_NS * register_stores)

    def fence(self, tag=None):
        """SFENCE: force out any half-filled WC buffer."""
        if self.policy is not CachePolicy.WRITE_COMBINING:
            return self.engine.timeout(0.0)
        tlps = self._wc_buffer.flush()
        self._attach_contributions(tlps)
        return self._emit(tlps, issue_cost=0.0)

    def _attach_contributions(self, tlps):
        """Match emitted TLP payload bytes to pending contributions, FIFO.

        Byte conservation holds — the region emits exactly the bytes it
        was asked to store — so consuming each TLP's payload from the
        contribution queue identifies the packet carrying each
        contribution's final byte.
        """
        for tlp in tlps:
            budget = tlp.payload
            while budget > 0 and self._unattached:
                head = self._unattached[0]
                take = min(head[3], budget)
                head[3] -= take
                budget -= take
                if head[3] == 0:
                    self._unattached.pop(0)
                    tlp.metadata.setdefault("contributions", []).append(
                        (head[0], head[1], head[2])
                    )

    def load(self, size=8):
        """MMIO read of ``size`` bytes; event fires when data arrives."""
        return self.link.read_roundtrip(size)

    # -- internals ---------------------------------------------------------------

    def _emit(self, tlps, issue_cost):
        """Issue ``tlps`` as posted writes; event fires when the CPU is free.

        Memory writes are *posted*: the store retires once the write
        leaves the store buffer — the CPU never waits for PCIe delivery.
        The returned event therefore models only the instruction-issue
        cost; packets travel (and reach the device's ``on_write``
        observers) asynchronously.
        """
        self.tlps_emitted += len(tlps)
        for tlp in tlps:
            if self._streamed:
                tlp.metadata.setdefault("contributions", [])
            done = self.link.send(tlp)
            if self._write_callbacks:
                done.then(self._deliver_factory(tlp))
        return self.engine.timeout(issue_cost)

    def _deliver_factory(self, tlp):
        def _deliver(_event):
            for callback in self._write_callbacks:
                callback(tlp)

        return _deliver
