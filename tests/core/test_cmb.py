"""Tests for the CMB module: intake queue, persistence, credit counter."""

import pytest

from repro.core.cmb import CmbModule
from repro.pm.backing import sram_backing
from repro.sim import Engine


def make_cmb(queue_bytes=512, capacity=128 * 1024):
    engine = Engine()
    backing = sram_backing(engine, capacity=capacity)
    cmb = CmbModule(engine, backing, queue_bytes=queue_bytes)
    cmb.start()
    return engine, cmb


def test_write_persists_and_advances_credit():
    engine, cmb = make_cmb()

    def proc():
        yield cmb.receive(0, 100, "chunk")

    engine.process(proc())
    engine.run()
    assert cmb.credit.value == 100
    assert cmb.ring.frontier == 100


def test_credit_advances_only_after_backing_write():
    """Step (3) of Fig. 5: the counter increments after PM, never before."""
    engine, cmb = make_cmb()
    timeline = []
    cmb.watch_credit(lambda value: timeline.append((engine.now, value)))

    def proc():
        yield cmb.receive(0, 256, "c")

    engine.process(proc())
    engine.run()
    (when, value), = timeline
    assert value == 256
    # Persisting 256 bytes through a 4 B/ns port takes at least 64 ns
    # plus access latency; credit cannot appear before that.
    assert when >= 256 / 4.0


def test_out_of_order_chunks_hold_credit_back():
    engine, cmb = make_cmb()

    def proc():
        yield cmb.receive(100, 50, "later")
        yield engine.timeout(1_000.0)
        assert cmb.credit.value == 0  # gap rule
        yield cmb.receive(0, 100, "first")

    engine.process(proc())
    engine.run()
    assert cmb.credit.value == 150


def test_queue_full_defers_enqueue_not_data_loss():
    """A burst larger than the queue is absorbed as the drain frees space."""
    engine, cmb = make_cmb(queue_bytes=256)

    def proc():
        for i in range(8):
            yield cmb.receive(i * 128, 128, f"c{i}")

    engine.process(proc())
    engine.run()
    assert cmb.credit.value == 8 * 128


def test_in_flight_accounting():
    engine, cmb = make_cmb(queue_bytes=4096)
    samples = []

    def proc():
        yield cmb.receive(0, 1000, "x")
        samples.append(cmb.in_flight_bytes)

    engine.process(proc())
    # Run only until the enqueue finishes, before persistence completes.
    engine.run(until=1.0)
    if samples:
        assert samples[0] > 0
    engine.run()
    assert cmb.in_flight_bytes == 0


def test_receive_tlp_unpacks_contributions():
    from repro.pcie.tlp import Tlp, TlpType

    engine, cmb = make_cmb()
    tlp = Tlp(
        TlpType.MEMORY_WRITE, address=0, payload=64,
        metadata={"contributions": [(0, 32, "a"), (32, 32, "b")]},
    )

    def proc():
        yield cmb.receive_tlp(tlp)

    engine.process(proc())
    engine.run()
    assert cmb.credit.value == 64
    payloads = [p for _o, _n, p in cmb.ring.peek_ready()]
    assert payloads == ["a", "b"]


def test_intake_tap_sees_every_chunk():
    engine, cmb = make_cmb()
    seen = []
    cmb.tap_intake(lambda offset, nbytes, payload: seen.append(offset))

    def proc():
        yield cmb.receive(0, 10, "a")
        yield cmb.receive(10, 10, "b")

    engine.process(proc())
    engine.run()
    assert seen == [0, 10]


def test_drain_pending_to_backing_salvages_queue():
    engine, cmb = make_cmb(queue_bytes=4096)

    def proc():
        yield cmb.receive(0, 500, "queued")

    engine.process(proc())
    engine.run(until=1.0)  # chunk is enqueued, not yet persisted
    cmb.stop()
    salvaged = cmb.drain_pending_to_backing()
    assert salvaged == 500
    assert cmb.credit.value == 500


def test_zero_byte_chunk_rejected():
    engine, cmb = make_cmb()
    with pytest.raises(ValueError):
        cmb.receive(0, 0)


def test_invalid_queue_size_rejected():
    engine = Engine()
    backing = sram_backing(engine)
    with pytest.raises(ValueError):
        CmbModule(engine, backing, queue_bytes=0)


def _fill_ring_and_stall(cmb, engine, count, nbytes=256):
    """Offer ``count`` chunks at once; returns their offsets in order."""
    offsets = [index * nbytes for index in range(count)]
    for offset in offsets:
        cmb.receive(offset, nbytes, f"c@{offset}")
    engine.run()
    return offsets


def _record_ring_writes(cmb):
    written = []
    write = cmb.ring.write

    def recording_write(offset, nbytes, payload=None):
        written.append(offset)
        return write(offset, nbytes, payload)

    cmb.ring.write = recording_write
    return written


def _free_ring(cmb):
    """What destage does: take the ready chunks, release their space."""
    chunks = cmb.ring.consume(cmb.ring.capacity)
    if chunks:
        offset, nbytes, _payload = chunks[-1]
        cmb.ring.release(offset + nbytes)
    return chunks


def test_restart_with_stalled_chunks_persists_each_once_in_order():
    # A 1 KiB PM ring under a 2 KiB queue: four 256 B chunks persist, the
    # next four hold queue space stalled on the full ring, and the rest
    # wait for queue space.
    engine, cmb = make_cmb(queue_bytes=2048, capacity=1024)
    written = _record_ring_writes(cmb)
    offsets = _fill_ring_and_stall(cmb, engine, 12)
    assert written == offsets[:4]
    assert cmb.credit.value == 1024

    # Halt, then a destage completion frees the ring: a stopped module
    # moves nothing, and chunks arriving meanwhile queue behind the rest.
    cmb.stop()
    _free_ring(cmb)
    cmb.ring_space_freed()
    for offset in (12 * 256, 13 * 256):
        cmb.receive(offset, 256, f"c@{offset}")
        offsets.append(offset)
    engine.run()
    assert written == offsets[:4]

    # Restart and keep writing while a destager keeps freeing the ring.
    cmb.start()
    more = [offset * 256 for offset in range(14, 20)]
    offsets.extend(more)

    def writer():
        for offset in more:
            yield cmb.receive(offset, 256, f"c@{offset}")

    def destager():
        while cmb.ring.frontier < offsets[-1] + 256:
            yield engine.timeout(1_000.0)
            if _free_ring(cmb):
                cmb.ring_space_freed()

    engine.process(writer())
    engine.process(destager())
    engine.run()
    assert written == offsets  # each chunk once, in arrival order
    assert cmb.chunks_discarded == 0
    assert cmb.credit.value == cmb.ring.frontier == len(offsets) * 256
    assert cmb.queue_free_bytes == 2048


def test_power_loss_with_stalled_chunks_salvages_only_what_fits():
    engine, cmb = make_cmb(queue_bytes=2048, capacity=1024)
    _fill_ring_and_stall(cmb, engine, 12)
    cmb.stop()
    # The ring's window is full, so none of the stalled chunks can be
    # salvaged into it; the persisted prefix stays exactly as it was.
    assert cmb.drain_pending_to_backing() == 0
    assert cmb.credit.value == cmb.ring.frontier == 1024
    assert [offset for offset, _n, _p in cmb.ring.peek_ready()] == [
        0, 256, 512, 768]
