"""Transaction Layer Packets: the unit of traffic on the PCIe fabric.

Every byte moved between host and device ultimately travels inside a TLP.
What matters for performance modeling is the *fixed per-packet overhead*:
a memory-write TLP carries framing, sequence number, a 3-4 DW header and an
LCRC alongside its payload.  Small stores therefore waste most of the wire —
the effect the paper's Fig. 10 quantifies and Write Combining mitigates.

A packet is modeled by its size alone: it occupies its payload plus
:data:`TLP_OVERHEAD_BYTES` on the wire.  The simulator tracks data
identity separately (in the rings), so no packet object exists.
"""

# Per-TLP overhead on the wire, in bytes: STP/SDP framing (2) + sequence (2)
# + 4-DW header for 64-bit addressing (16) + LCRC (4) + END (1), rounded to
# a conservative 24.  The exact value shifts the curves of Fig. 10 but not
# their shape.
TLP_OVERHEAD_BYTES = 24

# Typical negotiated Max Payload Size for the class of platform the paper
# uses.  Writes larger than this split into multiple TLPs.
DEFAULT_MAX_PAYLOAD = 256


def payload_sizes(size, max_payload=DEFAULT_MAX_PAYLOAD):
    """Payload bytes of each TLP a ``size``-byte transfer splits into.

    This is what the Root Complex does with a large write or a DMA
    burst: full ``max_payload`` packets, then the tail.  The packets go
    on the wire by size (see
    :meth:`~repro.pcie.link.PcieLink.send_train`).
    """
    full, tail = divmod(size, max_payload)
    return [max_payload] * full + ([tail] if tail else [])
