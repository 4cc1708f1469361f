"""Unit tests for TLP packet modeling: a packet is its size plus overhead."""

from repro.pcie.link import PcieLink
from repro.pcie.tlp import (
    DEFAULT_MAX_PAYLOAD,
    TLP_OVERHEAD_BYTES,
    payload_sizes,
)
from repro.sim import Engine


def wire_bytes(size):
    """Bytes a ``size``-byte write occupies on the link, overhead included."""
    engine = Engine()
    link = PcieLink(engine)
    link.send_train(payload_sizes(size))
    engine.run()
    return link.downstream.bytes_transferred


def test_wire_size_includes_overhead():
    assert wire_bytes(64) == 64 + TLP_OVERHEAD_BYTES


def test_read_request_carries_no_payload():
    """An MMIO read sends a bare header down; the completion carries
    the data up."""
    engine = Engine()
    link = PcieLink(engine)
    link.read_roundtrip(8)
    engine.run()
    assert link.downstream.bytes_transferred == TLP_OVERHEAD_BYTES
    assert link.upstream.bytes_transferred == 8 + TLP_OVERHEAD_BYTES
    assert (link.tlps_down, link.tlps_up) == (1, 1)


def test_split_covers_range_contiguously():
    """A write splits into full max-payload packets, then the tail, and
    each packet of the train is counted."""
    assert payload_sizes(600) == [256, 256, 88]
    assert payload_sizes(512) == [256, 256]
    engine = Engine()
    link = PcieLink(engine)
    link.send_train(payload_sizes(600))
    engine.run()
    assert link.tlps_down == 3


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
