"""Unit tests for MMIO regions and write-combining behavior."""

import pytest

from repro.pcie.link import PcieLink
from repro.pcie.mmio import (
    CachePolicy,
    MAX_UC_STORE_BYTES,
    MmioRegion,
    WC_BUFFER_BYTES,
)
from repro.sim import Engine


def make_region(policy, size=4096):
    engine = Engine()
    link = PcieLink(engine, lanes=4, gen=2)
    region = MmioRegion(engine, link, size=size, policy=policy)
    return engine, link, region


def record_packets(link):
    """List the payload size of every packet ``link`` sends downstream."""
    packets = []
    send_train = link.send_train

    def recording_send_train(payloads):
        packets.extend(payloads)
        return send_train(payloads)

    link.send_train = recording_send_train
    return packets


def wc_packets(stores, fence=False):
    """Payload size of each packet a WC region sends for ``stores``."""
    engine, link, region = make_region(CachePolicy.WRITE_COMBINING)
    packets = record_packets(link)
    for address, size in stores:
        region.store(address, size, (address, size, None))
    if fence:
        region.fence()
    engine.run()
    assert region.tlps_emitted == len(packets) == link.tlps_down
    return packets


class TestWriteCombiningBuffer:
    """The region's 64-byte WC buffer: which stores become which packets."""

    def test_sequential_stores_coalesce_into_one_tlp(self):
        stores = [(offset, 8) for offset in range(0, WC_BUFFER_BYTES, 8)]
        assert wc_packets(stores) == [WC_BUFFER_BYTES]

    def test_non_contiguous_store_flushes_previous_run(self):
        assert wc_packets([(0, 8), (100, 8)]) == [8]
        assert wc_packets([(0, 8), (100, 8)], fence=True) == [8, 8]
        assert wc_packets([(0, 8), (8, 8)], fence=True) == [16]

    def test_flush_on_empty_buffer_is_noop(self):
        assert wc_packets([], fence=True) == []
        assert wc_packets([(0, WC_BUFFER_BYTES)], fence=True) == [
            WC_BUFFER_BYTES]

    def test_large_store_emits_full_buffers(self):
        assert wc_packets([(0, 3 * WC_BUFFER_BYTES)]) == [
            WC_BUFFER_BYTES] * 3

    def test_partial_tail_stays_buffered(self):
        assert wc_packets([(0, WC_BUFFER_BYTES + 10)]) == [WC_BUFFER_BYTES]
        assert wc_packets([(0, WC_BUFFER_BYTES + 10)], fence=True) == [
            WC_BUFFER_BYTES, 10]


class TestMmioRegion:
    def test_uc_store_splits_into_register_sized_tlps(self):
        engine, link, region = make_region(CachePolicy.UNCACHED)
        packets = record_packets(link)
        delivered = []
        region.on_write(
            lambda offset, nbytes, _payload: delivered.append(
                (offset, nbytes)))

        def proc():
            yield region.store(0, 64, (0, 64, None))

        engine.process(proc())
        engine.run()
        assert packets == [MAX_UC_STORE_BYTES] * (64 // MAX_UC_STORE_BYTES)
        # The contribution arrives once, with the packet of its last byte.
        assert delivered == [(0, 64)]

    def test_wc_store_of_buffer_size_is_one_tlp(self):
        engine, link, region = make_region(CachePolicy.WRITE_COMBINING)
        seen = []
        region.on_write(lambda _offset, nbytes, _payload: seen.append(nbytes))

        def proc():
            yield region.store(0, WC_BUFFER_BYTES, (0, WC_BUFFER_BYTES, None))

        engine.process(proc())
        engine.run()
        assert seen == [WC_BUFFER_BYTES]

    def test_wc_partial_store_needs_fence_to_emit(self):
        engine, link, region = make_region(CachePolicy.WRITE_COMBINING)
        seen = []
        region.on_write(lambda _offset, nbytes, _payload: seen.append(nbytes))

        def proc():
            yield region.store(0, 16, (0, 16, None))
            assert seen == []
            yield region.fence()

        engine.process(proc())
        engine.run()
        assert seen == [16]

    def test_store_outside_region_rejected(self):
        engine, link, region = make_region(CachePolicy.UNCACHED, size=128)
        with pytest.raises(ValueError):
            region.store(120, 16, (120, 16, None))

    @pytest.mark.parametrize("policy", list(CachePolicy))
    def test_negative_store_rejected(self, policy):
        engine, link, region = make_region(policy)
        with pytest.raises(ValueError, match="negative"):
            region.store(0, -5, (0, -5, None))
        region.fence()
        engine.run()
        assert region.tlps_emitted == 0
        assert link.downstream.busy_time == 0

    def test_wc_is_fewer_tlps_than_uc_for_same_bytes(self):
        total = 1024
        engine_uc, _, uc = make_region(CachePolicy.UNCACHED)
        engine_wc, _, wc = make_region(CachePolicy.WRITE_COMBINING)

        def write_all(engine, region):
            def proc():
                for offset in range(0, total, 8):
                    yield region.store(offset, 8, (offset, 8, None))
                yield region.fence()

            engine.process(proc())
            engine.run()

        write_all(engine_uc, uc)
        write_all(engine_wc, wc)
        assert wc.tlps_emitted * 8 == uc.tlps_emitted  # 64B vs 8B per TLP

    def test_wc_throughput_beats_uc(self):
        """The Fig. 10 mechanism: same bytes, fewer packets, faster."""
        total = 64 * 1024

        def run(policy):
            engine, _, region = make_region(policy, size=total)

            def proc():
                for offset in range(0, total, 8):
                    yield region.store(offset, 8, (offset, 8, None))
                yield region.fence()

            engine.process(proc())
            return engine.run()

        assert run(CachePolicy.WRITE_COMBINING) < run(CachePolicy.UNCACHED)

    def test_load_round_trip_takes_two_link_crossings(self):
        engine, link, region = make_region(CachePolicy.UNCACHED)
        finished = []

        def proc():
            yield region.load(8)
            finished.append(engine.now)

        engine.process(proc())
        engine.run()
        # Two propagation delays (down + up) at minimum.
        assert finished[0] >= 2 * link.downstream.latency
