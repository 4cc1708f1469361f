"""Transaction Layer Packets: the unit of traffic on the PCIe fabric.

Every byte moved between host and device ultimately travels inside a TLP.
What matters for performance modeling is the *fixed per-packet overhead*:
a memory-write TLP carries framing, sequence number, a 3-4 DW header and an
LCRC alongside its payload.  Small stores therefore waste most of the wire —
the effect the paper's Fig. 10 quantifies and Write Combining mitigates.
"""

import enum
from dataclasses import dataclass, field

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


@dataclass
class Tlp:
    """A single transaction-layer packet.

    ``payload`` is a byte count, not actual bytes: the simulator tracks data
    identity separately (in the rings) and the fabric only needs sizes.
    ``tag`` carries an opaque sender reference, e.g. for completion
    matching.
    """

    kind: TlpType
    address: int
    payload: int
    tag: object = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.payload < 0:
            raise ValueError("TLP payload cannot be negative")
        if self.kind is TlpType.MEMORY_READ and self.payload != 0:
            raise ValueError("read requests carry no payload")

    @property
    def wire_size(self):
        """Bytes this packet occupies on the link, overhead included."""
        return self.payload + TLP_OVERHEAD_BYTES


def split_into_tlps(address, size, max_payload=DEFAULT_MAX_PAYLOAD, tag=None):
    """Split a ``size``-byte write at ``address`` into wire TLPs.

    Returns the list of :class:`Tlp` covering the range contiguously.  This
    is what the Root Complex does with a large WC flush or a DMA burst.
    """
    if size < 0:
        raise ValueError("cannot split a negative size")
    tlps = []
    offset = 0
    while offset < size:
        chunk = min(max_payload, size - offset)
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
