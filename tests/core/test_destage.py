"""Tests for the Destage module: page bundling, filler, ring-of-LBAs, crash."""

from types import SimpleNamespace

import pytest

from repro.core.cmb import CmbModule
from repro.core.crash import read_durable_pages
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


def crash(cmb, destage):
    """The power-loss steps the destage tests need: stop, then destage."""
    cmb.stop()
    destage.stop()
    return destage.destage_all_now()


def test_destage_all_now_counts_each_settled_page_once():
    # Two page programs in flight at the crash and a third page in its
    # backing-memory read: the crash path finishes all three under
    # reserve energy, and each counts as one page written.
    engine, cmb, destage = make_stack(latency_threshold_ns=1e12)
    feed(engine, cmb, 3 * PAGE)
    engine.run(until=6_000.0)
    assert destage.outstanding_pages == 2
    assert destage.pages_written == 0
    pages = crash(cmb, destage)
    assert pages == 3
    assert destage.pages_written == 3
    assert destage.durable_tail == 3
    assert destage.destaged_offset == 3 * PAGE


def test_crash_during_a_page_read_keeps_the_page_and_issues_nothing():
    # The third page's chunks have left the ring for its backing-memory
    # read when the power fails: the crash path must still destage it (up
    # to the credit the host saw), and the interrupted issue must not
    # program it on the stopped module afterwards.
    engine, cmb, destage = make_stack(latency_threshold_ns=1e12)
    feed(engine, cmb, 3 * PAGE)
    engine.run(until=6_000.0)
    assert cmb.credit.value == 3 * PAGE
    assert cmb.ring.consumable_bytes() == 0
    crash(cmb, destage)
    assert destage.destaged_offset == cmb.credit.value
    enqueued = []
    destage.scheduler.enqueue = enqueued.append
    state = (destage.tail_sequence, destage.durable_tail,
             destage.pages_written, destage.destaged_offset)
    engine.run(until=10_000_000.0)
    assert enqueued == []
    assert (destage.tail_sequence, destage.durable_tail,
            destage.pages_written, destage.destaged_offset) == state


def test_crash_during_a_page_read_on_a_wrapped_ring_programs_the_page():
    # The LBA ring (4 blocks) has wrapped, so the LBA of the page caught
    # in its backing-memory read is still bound to the page four
    # sequences older.  The crash path must program the new page there
    # all the same: reading the durable prefix back must give its data,
    # not the old page's.
    engine, cmb, destage = make_stack(latency_threshold_ns=1e12,
                                      ring_blocks=4)
    feed(engine, cmb, 6 * PAGE)
    engine.run(until=10_000_000.0)
    assert destage.durable_tail == 6
    assert destage.outstanding_pages == 0

    def seventh_page():
        for offset in range(6 * PAGE, 7 * PAGE, 512):
            yield cmb.receive(offset, 512, f"log@{offset}")

    engine.process(seventh_page())
    while not (cmb.credit.value == 7 * PAGE
               and cmb.ring.consumable_bytes() == 0):
        engine.run(until=engine.now + 100.0)
    assert destage.tail_sequence == 6  # the page is in its read
    assert crash(cmb, destage) == 1
    assert destage.destaged_offset == 7 * PAGE
    pages, errors = read_durable_pages(engine,
                                       SimpleNamespace(destage=destage))
    assert errors == []
    assert [page.stream_offset for page in pages] == [
        PAGE * sequence for sequence in range(destage.head_sequence, 7)
    ]


def test_crash_with_programs_in_flight_on_a_wrapped_ring_keeps_new_pages():
    # Sequences 0-5 are issued at the crash (four programs under way,
    # two queued) and share LBAs with the sequences the crash path
    # destages after them (the ring has four blocks).  The programs
    # still running must not bind their LBAs when they complete: the
    # durable read-back must give the newest pages, not theirs.
    engine, cmb, destage = make_stack(latency_threshold_ns=1e12,
                                      ring_blocks=4)
    feed(engine, cmb, 12 * PAGE)
    engine.run(until=18_500.0)
    assert destage.outstanding_pages == 6
    assert crash(cmb, destage) == 12
    assert destage.destaged_offset == 12 * PAGE
    pages, errors = read_durable_pages(engine,
                                       SimpleNamespace(destage=destage))
    assert errors == []
    assert [page.stream_offset for page in pages] == [
        PAGE * sequence for sequence in range(8, 12)]
    engine.run()  # every program under way completes and binds nothing
    assert destage.outstanding_pages == 0
    assert destage.durable_tail == 12
    assert not destage._completed_pages  # settled pages are not kept
    table = destage.scheduler.ftl.table
    channels = destage.scheduler.ftl.channels
    for sequence in range(8, 12):
        address = table.lookup(sequence % 4)
        payload, _nbytes = channels[address.channel].die(
            address.way).blocks[address.block].pages[address.page]
        assert payload.stream_offset == PAGE * sequence


def test_crash_beside_programs_in_their_data_phase_keeps_program_order():
    # Emergency programs must not land behind a page placed for a
    # program still in its data phase (NAND programs a block's pages in
    # ascending order).  Placing it there raises ProgramOrderError.
    engine, cmb, destage = make_stack(latency_threshold_ns=1e12)
    feed(engine, cmb, 6 * PAGE)
    engine.run(until=6_000.0)
    assert cmb.ring.consumable_bytes() > 0
    credit = cmb.credit.value
    crash(cmb, destage)
    assert destage.destaged_offset == credit
    engine.run(until=10_000_000.0)  # the in-flight programs complete


def test_ring_cut_pages_count_their_filler():
    # A crash with 1000 B waiting short of a page: the crash path cuts a
    # padded page from the ring, and its filler counts like any other.
    engine, cmb, destage = make_stack(latency_threshold_ns=1e12)
    feed(engine, cmb, 1000)
    engine.run(until=1_000_000.0)
    assert crash(cmb, destage) == 1
    assert destage.filler_bytes_total == PAGE - 1000


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
