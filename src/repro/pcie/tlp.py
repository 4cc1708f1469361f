"""Transaction Layer Packets: the unit of traffic on the PCIe fabric.

Every byte moved between host and device ultimately travels inside a TLP.
What matters for performance modeling is the *fixed per-packet overhead*:
a memory-write TLP carries framing, sequence number, a 3-4 DW header and an
LCRC alongside its payload.  Small stores therefore waste most of the wire —
the effect the paper's Fig. 10 quantifies and Write Combining mitigates.
"""

import enum

# Per-TLP overhead on the wire, in bytes: STP/SDP framing (2) + sequence (2)
# + 4-DW header for 64-bit addressing (16) + LCRC (4) + END (1), rounded to
# a conservative 24.  The exact value shifts the curves of Fig. 10 but not
# their shape.
TLP_OVERHEAD_BYTES = 24

# Typical negotiated Max Payload Size for the class of platform the paper
# uses.  Writes larger than this split into multiple TLPs.
DEFAULT_MAX_PAYLOAD = 256


class TlpType(enum.Enum):
    """The TLP kinds this model distinguishes."""

    MEMORY_WRITE = "MWr"
    MEMORY_READ = "MRd"
    COMPLETION = "CplD"
    MESSAGE = "Msg"


class Tlp:
    """A single transaction-layer packet.

    ``payload`` is a byte count, not actual bytes: the simulator tracks data
    identity separately (in the rings) and the fabric only needs sizes.
    A slotted class rather than a dataclass: packets are built on every
    mirror hop and counter update (and on every packet while a downstream
    tap watches a link), and ``wire_size`` is computed once here instead
    of on every link transfer.
    """

    __slots__ = ("kind", "address", "payload", "metadata", "wire_size")

    def __init__(self, kind, address, payload, metadata=None):
        if payload < 0:
            raise ValueError("TLP payload cannot be negative")
        if kind is TlpType.MEMORY_READ and payload != 0:
            raise ValueError("read requests carry no payload")
        self.kind = kind
        self.address = address
        self.payload = payload
        self.metadata = {} if metadata is None else metadata
        # Bytes this packet occupies on the link, overhead included.
        self.wire_size = payload + TLP_OVERHEAD_BYTES


def payload_sizes(size, max_payload=DEFAULT_MAX_PAYLOAD):
    """Payload bytes of each TLP a ``size``-byte transfer splits into.

    This is what the Root Complex does with a large write or a DMA
    burst: full ``max_payload`` packets, then the tail.  The packets go
    on the wire by size (see
    :meth:`~repro.pcie.link.PcieLink.send_train`), so no :class:`Tlp` is
    built for them.
    """
    full, tail = divmod(size, max_payload)
    return [max_payload] * full + ([tail] if tail else [])
