"""Unit tests for TLP packet modeling."""

import pytest

from repro.pcie.tlp import (
    DEFAULT_MAX_PAYLOAD,
    TLP_OVERHEAD_BYTES,
    Tlp,
    TlpType,
    split_into_tlps,
)


def wire_bytes(size):
    """Bytes a ``size``-byte write occupies on the link, overhead included."""
    return sum(tlp.wire_size for tlp in split_into_tlps(0, size))


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
    tlps = split_into_tlps(address=1000, size=600)
    assert [t.payload for t in tlps] == [256, 256, 88]
    assert [t.address for t in tlps] == [1000, 1256, 1512]


def test_split_zero_size_is_empty():
    assert split_into_tlps(0, 0) == []


def test_split_respects_custom_max_payload():
    tlps = split_into_tlps(0, 100, max_payload=64)
    assert [t.payload for t in tlps] == [64, 36]


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
