"""Unit and property tests for the sequenced ring (gap rule, FIFO, bounds)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ring import RingOverflowError, SequencedRing


class TestBasics:
    def test_sequential_writes_advance_frontier(self):
        ring = SequencedRing(capacity=1024)
        assert ring.write(0, 100, "a") == 100
        assert ring.write(100, 50, "b") == 50
        assert ring.frontier == 150

    def test_out_of_order_write_parks_until_hole_fills(self):
        ring = SequencedRing(capacity=1024)
        assert ring.write(100, 50, "later") == 0
        assert ring.frontier == 0
        assert ring.has_gap
        # Filling the hole releases both chunks at once.
        assert ring.write(0, 100, "first") == 150
        assert ring.frontier == 150
        assert not ring.has_gap

    def test_frontier_stops_at_each_gap(self):
        ring = SequencedRing(capacity=1024)
        ring.write(100, 50, "x")
        ring.write(300, 10, "y")
        assert ring.frontier == 0
        # Filling the first hole advances only up to the second one.
        ring.write(0, 100, "a")
        assert ring.frontier == 150
        assert ring.has_gap
        ring.write(150, 150, "b")
        assert ring.frontier == 310
        assert not ring.has_gap

    def test_zero_byte_write_is_noop(self):
        ring = SequencedRing(capacity=16)
        assert ring.write(0, 0) == 0

    def test_negative_write_rejected(self):
        ring = SequencedRing(capacity=16)
        with pytest.raises(ValueError):
            ring.write(0, -1)


class TestOverflowAndViolations:
    def test_write_beyond_window_rejected(self):
        ring = SequencedRing(capacity=100)
        with pytest.raises(RingOverflowError):
            ring.write(50, 60, "too-far")

    def test_window_slides_with_release(self):
        ring = SequencedRing(capacity=100)
        ring.write(0, 100, "fill")
        ring.consume(100)
        ring.release(100)
        ring.write(100, 100, "next-lap")  # fits again
        assert ring.frontier == 200

    def test_overlap_with_received_data_rejected(self):
        ring = SequencedRing(capacity=1024)
        ring.write(0, 100, "a")
        with pytest.raises(RingOverflowError):
            ring.write(50, 10, "overlap")

    def test_duplicate_pending_offset_rejected(self):
        ring = SequencedRing(capacity=1024)
        ring.write(100, 10, "x")
        with pytest.raises(RingOverflowError):
            ring.write(100, 10, "again")

    def test_release_beyond_consumed_rejected(self):
        ring = SequencedRing(capacity=100)
        ring.write(0, 50, "a")
        with pytest.raises(ValueError):
            ring.release(50)  # nothing consumed yet


class TestConsume:
    def test_consume_returns_chunks_in_stream_order(self):
        ring = SequencedRing(capacity=1024)
        ring.write(0, 10, "a")
        ring.write(10, 20, "b")
        ring.write(30, 5, "c")
        chunks = ring.consume(35)
        assert [payload for _o, _n, payload in chunks] == ["a", "b", "c"]
        assert ring.consumable_bytes() == 0

    def test_consume_respects_budget_without_splitting(self):
        ring = SequencedRing(capacity=1024)
        ring.write(0, 10, "a")
        ring.write(10, 20, "b")
        chunks = ring.consume(15)
        # "a" fits; "b" would exceed the budget and is left behind.
        assert [payload for _o, _n, payload in chunks] == ["a"]
        assert ring.consumable_bytes() == 20

    def test_first_chunk_always_taken_even_if_oversized(self):
        ring = SequencedRing(capacity=1024)
        ring.write(0, 100, "big")
        chunks = ring.consume(10)
        assert len(chunks) == 1  # progress is always possible

    def test_consume_never_crosses_a_gap(self):
        ring = SequencedRing(capacity=1024)
        ring.write(0, 10, "a")
        ring.write(20, 10, "c")  # hole at [10, 20)
        chunks = ring.consume(1024)
        assert [payload for _o, _n, payload in chunks] == ["a"]

    def test_drop_pending_models_crash_loss(self):
        ring = SequencedRing(capacity=1024)
        ring.write(0, 10, "safe")
        ring.write(20, 10, "doomed")
        assert ring.drop_pending() == 1
        assert not ring.has_gap
        assert ring.frontier == 10


class TestProperties:
    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=30),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_frontier_equals_total_after_any_arrival_order(self, sizes, rng):
        """Property: any permutation of a contiguous chunk set converges."""
        offsets = []
        cursor = 0
        for size in sizes:
            offsets.append((cursor, size))
            cursor += size
        ring = SequencedRing(capacity=cursor)
        shuffled = list(offsets)
        rng.shuffle(shuffled)
        for offset, size in shuffled:
            ring.write(offset, size, payload=offset)
        assert ring.frontier == cursor
        assert not ring.has_gap

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_bytes_in_equals_bytes_out_fifo(self, sizes):
        """Property: consume returns exactly what was written, in order."""
        total = sum(sizes)
        ring = SequencedRing(capacity=total)
        cursor = 0
        for i, size in enumerate(sizes):
            ring.write(cursor, size, payload=i)
            cursor += size
        out = []
        while ring.consumable_bytes():
            out.extend(ring.consume(64))
        assert [payload for _o, _n, payload in out] == list(range(len(sizes)))
        assert sum(nbytes for _o, nbytes, _p in out) == total

    @given(
        st.lists(st.tuples(st.integers(1, 30), st.booleans()),
                 min_size=1, max_size=40)
    )
    @settings(max_examples=60, deadline=None)
    def test_frontier_monotone_and_bounded(self, steps):
        """Property: the frontier never regresses and never exceeds data."""
        ring = SequencedRing(capacity=10_000)
        cursor = 0
        total_written = 0
        held_back = None
        last_frontier = 0
        for size, skip in steps:
            if skip and held_back is None:
                held_back = (cursor, size)  # create a gap
            else:
                ring.write(cursor, size, payload=None)
                total_written += size
            cursor += size
            assert ring.frontier >= last_frontier
            assert ring.frontier <= total_written + (
                held_back[1] if held_back else 0
            )
            last_frontier = ring.frontier
        if held_back is not None:
            offset, size = held_back
            ring.write(offset, size, payload=None)
            assert ring.frontier >= offset + size
