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
    ``tag`` carries an opaque sender reference, e.g. for completion
    matching.  A slotted class rather than a dataclass: packets are built
    on every store and mirror hop, and ``wire_size`` is computed once here
    instead of on every link transfer.
    """

    __slots__ = ("kind", "address", "payload", "tag", "metadata",
                 "wire_size")

    def __init__(self, kind, address, payload, tag=None, metadata=None):
        if payload < 0:
            raise ValueError("TLP payload cannot be negative")
        if kind is TlpType.MEMORY_READ and payload != 0:
            raise ValueError("read requests carry no payload")
        self.kind = kind
        self.address = address
        self.payload = payload
        self.tag = tag
        self.metadata = {} if metadata is None else metadata
        # Bytes this packet occupies on the link, overhead included.
        self.wire_size = payload + TLP_OVERHEAD_BYTES


def payload_sizes(size, max_payload=DEFAULT_MAX_PAYLOAD):
    """Payload bytes of each TLP a ``size``-byte transfer splits into."""
    full, tail = divmod(size, max_payload)
    return [max_payload] * full + ([tail] if tail else [])


def split_into_tlps(address, size, max_payload=DEFAULT_MAX_PAYLOAD, tag=None):
    """Split a ``size``-byte write at ``address`` into wire TLPs.

    Returns the list of :class:`Tlp` covering the range contiguously.  This
    is what the Root Complex does with a large WC flush or a DMA burst (a
    DMA burst's packets travel as a train, see
    :meth:`~repro.pcie.link.PcieLink.send_train`, so it uses
    :func:`payload_sizes` alone).
    """
    if size < 0:
        raise ValueError("cannot split a negative size")
    tlps = []
    offset = 0
    for chunk in payload_sizes(size, max_payload):
        tlps.append(
            Tlp(
                kind=TlpType.MEMORY_WRITE,
                address=address + offset,
                payload=chunk,
                tag=tag,
            )
        )
        offset += chunk
    return tlps
