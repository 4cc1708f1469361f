"""Unit tests for TLP packet modeling."""

import pytest

from repro.pcie.link import PcieLink
from repro.pcie.tlp import (
    DEFAULT_MAX_PAYLOAD,
    TLP_OVERHEAD_BYTES,
    Tlp,
    TlpType,
    payload_sizes,
)
from repro.sim import Engine


def wire_bytes(size):
    """Bytes a ``size``-byte write occupies on the link, overhead included."""
    return sum(Tlp(TlpType.MEMORY_WRITE, 0, payload).wire_size
               for payload in payload_sizes(size))


def test_wire_size_includes_overhead():
    tlp = Tlp(TlpType.MEMORY_WRITE, address=0, payload=64)
    assert tlp.wire_size == 64 + TLP_OVERHEAD_BYTES


def test_read_request_carries_no_payload():
    with pytest.raises(ValueError):
        Tlp(TlpType.MEMORY_READ, address=0, payload=8)


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        Tlp(TlpType.MEMORY_WRITE, address=0, payload=-1)


def test_split_covers_range_contiguously():
    """A tapped train shows each packet of the split, addressed
    contiguously from the train's start."""
    engine = Engine()
    link = PcieLink(engine)
    seen = []
    link.tap_downstream(lambda tlp: seen.append((tlp.address, tlp.payload)))
    link.send_train(TlpType.MEMORY_WRITE, payload_sizes(600), address=1000)
    engine.run()
    assert seen == [(1000, 256), (1256, 256), (1512, 88)]
    assert payload_sizes(512) == [256, 256]


def test_split_zero_size_is_empty():
    assert payload_sizes(0) == []


def test_split_respects_custom_max_payload():
    assert payload_sizes(100, max_payload=64) == [64, 36]


def test_wire_bytes_small_write_dominated_by_overhead():
    # A 4-byte UC-style write pays the full header.
    assert wire_bytes(4) == 4 + TLP_OVERHEAD_BYTES


def test_wire_bytes_large_write_amortizes_overhead():
    size = 10 * DEFAULT_MAX_PAYLOAD
    assert wire_bytes(size) == size + 10 * TLP_OVERHEAD_BYTES


def test_wire_bytes_efficiency_improves_with_size():
    def efficiency(size):
        return size / wire_bytes(size)

    assert efficiency(1) < efficiency(16) < efficiency(64) < efficiency(256)
