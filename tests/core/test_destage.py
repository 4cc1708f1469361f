"""Tests for the Destage module: page bundling, filler, ring-of-LBAs, crash."""

import pytest

from repro.core.cmb import CmbModule
from repro.core.destage import DestageModule
from repro.ftl.mapping import PageMappingFtl
from repro.nand.channel import Channel
from repro.nand.geometry import Geometry
from repro.nand.timing import NandTiming
from repro.pm.backing import sram_backing
from repro.sim import Engine
from repro.ssd.scheduler import SchedulingMode, WriteScheduler

PAGE = 4096


def make_stack(latency_threshold_ns=50_000.0, ring_blocks=8):
    engine = Engine()
    geometry = Geometry(channels=2, ways_per_channel=2, blocks_per_die=32,
                        pages_per_block=16, page_bytes=PAGE)
    timing = NandTiming(t_program=50_000.0, t_read=5_000.0,
                        t_erase=200_000.0, bus_bandwidth=1.0)
    channels = [Channel(engine, geometry, timing, channel_id=i)
                for i in range(2)]
    ftl = PageMappingFtl(engine, channels, geometry)
    scheduler = WriteScheduler(engine, ftl, mode=SchedulingMode.NEUTRAL)
    scheduler.start()
    backing = sram_backing(engine, capacity=64 * 1024)
    cmb = CmbModule(engine, backing, queue_bytes=8 * 1024)
    cmb.start()
    destage = DestageModule(
        engine, cmb, scheduler, page_bytes=PAGE,
        lba_ring_blocks=ring_blocks,
        latency_threshold_ns=latency_threshold_ns,
    )
    destage.start()
    return engine, cmb, destage


def feed(engine, cmb, total_bytes, chunk=512):
    def proc():
        offset = 0
        while offset < total_bytes:
            size = min(chunk, total_bytes - offset)
            yield cmb.receive(offset, size, f"log@{offset}")
            offset += size

    return engine.process(proc())


def test_full_pages_destage_without_filler():
    engine, cmb, destage = make_stack()
    feed(engine, cmb, 2 * PAGE)
    engine.run(until=10_000_000.0)
    assert destage.pages_written == 2
    assert destage.filler_bytes_total == 0
    assert destage.destaged_offset == 2 * PAGE


def test_partial_data_waits_for_latency_threshold():
    engine, cmb, destage = make_stack(latency_threshold_ns=100_000.0)
    feed(engine, cmb, 1000)  # far less than a page
    engine.run(until=50_000.0)
    assert destage.pages_written == 0  # still waiting
    engine.run(until=10_000_000.0)
    assert destage.pages_written == 1
    assert destage.filler_bytes_total == PAGE - 1000


def test_destaged_pages_carry_the_stream_in_order():
    engine, cmb, destage = make_stack()
    feed(engine, cmb, 3 * PAGE, chunk=1024)
    engine.run(until=20_000_000.0)
    reads = []

    def reader():
        for sequence in range(destage.head_sequence, destage.tail_sequence):
            page = yield destage.read_page(sequence)
            reads.append(page)

    engine.process(reader())
    engine.run(until=40_000_000.0)
    offsets = []
    for page in reads:
        for offset, nbytes, _payload in page.chunks:
            offsets.append((offset, nbytes))
    # The concatenation must be the exact contiguous stream.
    cursor = 0
    for offset, nbytes in offsets:
        assert offset == cursor
        cursor += nbytes
    assert cursor == 3 * PAGE


def test_lba_ring_wraps_and_head_advances():
    engine, cmb, destage = make_stack(ring_blocks=4)
    feed(engine, cmb, 6 * PAGE)
    engine.run(until=50_000_000.0)
    assert destage.tail_sequence == 6
    assert destage.head_sequence == 2  # oldest two pages overwritten
    with pytest.raises(IndexError):
        destage.read_page(0)
    with pytest.raises(IndexError):
        destage.read_page(6)


def test_ring_space_released_after_destage():
    engine, cmb, destage = make_stack()
    feed(engine, cmb, 4 * PAGE)
    engine.run(until=50_000_000.0)
    assert cmb.ring.released == 4 * PAGE
    assert cmb.ring.free_bytes == cmb.ring.capacity


def test_destage_all_now_flushes_contiguous_prefix():
    engine, cmb, destage = make_stack(latency_threshold_ns=1e12)

    def writer():
        yield cmb.receive(0, 1000, "prefix")
        # Deliberate gap: bytes [1000, 1100) never sent.
        yield cmb.receive(1100, 200, "beyond-gap")

    engine.process(writer())
    engine.run(until=1_000_000.0)
    assert destage.pages_written == 0
    cmb.stop()
    destage.stop()
    pages = destage.destage_all_now()
    assert pages == 1
    assert destage.destaged_offset == 1000  # stops at the gap
    # The beyond-gap chunk is still parked; the crash injector is the
    # component responsible for declaring it lost.
    assert cmb.ring.has_gap
    assert cmb.ring.drop_pending() == 1


def test_destage_all_now_counts_each_settled_page_once():
    # Two page programs in flight at the crash: the crash path finishes
    # them under reserve energy, and each counts as one page written.
    engine, cmb, destage = make_stack(latency_threshold_ns=1e12)
    feed(engine, cmb, 3 * PAGE)
    engine.run(until=6_000.0)
    assert destage.outstanding_pages == 2
    assert destage.pages_written == 0
    cmb.stop()
    destage.stop()
    pages = destage.destage_all_now()
    assert pages == 2
    assert destage.pages_written == 2
    assert destage.durable_tail == 2
    assert destage.destaged_offset == 2 * PAGE


def test_same_instant_restart_leaves_one_loop():
    # Device.halt() then restart() at one instant: the old loop must exit
    # instead of evaluating beside the new one.  Two loops would both see
    # the page's worth that the third chunk completes and both issue: the
    # second issue would pad the chunk left over behind the first page at
    # once instead of letting it wait for the threshold.
    engine, cmb, destage = make_stack(latency_threshold_ns=1e9)
    chunk = 3 * PAGE // 8

    def restart():
        yield engine.timeout(1_000.0)
        destage.stop()
        destage.start()
        feed(engine, cmb, 3 * chunk, chunk=chunk)

    engine.process(restart())
    engine.run(until=5_000_000.0)
    assert destage.tail_sequence == 1
    assert destage.pages_written == 1
    assert destage.destaged_offset == 2 * chunk
    assert cmb.ring.consumable_bytes() == chunk
