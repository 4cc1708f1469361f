"""Plane-aware allocation: aligned stripes, healing, and bad-block paths."""

import pytest

from repro.ftl.allocator import BlockAllocator, OutOfSpaceError
from repro.nand.geometry import Geometry


def make_allocator(channels=1, ways=1, blocks=8, pages=4, planes=2):
    geometry = Geometry(channels=channels, ways_per_channel=ways,
                        blocks_per_die=blocks, pages_per_block=pages,
                        page_bytes=4096, planes_per_die=planes)
    return geometry, BlockAllocator(geometry, reserved_blocks_per_die=1)


class TestPlaceStripe:
    def test_stripe_is_aligned_and_shares_page_offset(self):
        geometry, allocator = make_allocator()
        placements = allocator.place_stripe(2)
        assert len(placements) == 2
        channels = {p[0] for p in placements}
        ways = {p[1] for p in placements}
        pages = {p[3] for p in placements}
        assert len(channels) == len(ways) == len(pages) == 1
        blocks = [p[2] for p in placements]
        base = geometry.stripe_base(blocks[0])
        assert blocks == list(range(base, base + geometry.planes_per_die))

    def test_successive_stripes_fill_pages_in_order(self):
        _, allocator = make_allocator(pages=3)
        pages = [allocator.place_stripe(2)[0][3] for _ in range(3)]
        assert pages == [0, 1, 2]

    def test_stripes_rotate_across_dies(self):
        _, allocator = make_allocator(channels=2, ways=2)
        dies = [tuple(allocator.place_stripe(2)[0][:2]) for _ in range(4)]
        assert len(set(dies)) == 4

    def test_count_outside_plane_range_returns_none(self):
        _, allocator = make_allocator(planes=2)
        assert allocator.place_stripe(1) is None
        assert allocator.place_stripe(3) is None

    def test_single_plane_geometry_never_stripes(self):
        _, allocator = make_allocator(planes=1, blocks=4)
        assert allocator.place_stripe(2) is None
        # ... and plain placement is the classic single-block cursor.
        channel, way, block, page = allocator.place()
        assert (block, page) == (0, 0)


class TestFragmentationHealing:
    def test_single_placement_fragments_then_heals(self):
        _, allocator = make_allocator()
        first = allocator.place()  # opens a stripe cursor, mid-page now
        assert allocator.place_stripe(2) is None  # fragmented: fail fast
        second = allocator.place()  # healing: completes the page
        assert (second[2], second[3]) != (first[2], first[3])
        assert second[3] == first[3]  # same page offset, the other plane
        # Realigned: the die takes stripes again.
        placements = allocator.place_stripe(2)
        assert placements is not None
        assert placements[0][3] == first[3] + 1

    def test_mixed_stream_spreads_stripes_over_all_dies(self):
        """The starvation pathology: early singles must not permanently
        funnel every stripe onto the few dies that stayed aligned."""
        _, allocator = make_allocator(channels=2, ways=2, blocks=8, pages=8)
        # Fragment every die's cursor with one single write each.
        for _ in range(4):
            allocator.place()
        striped_dies = set()
        for _ in range(32):
            placements = allocator.place_stripe(2)
            if placements is None:
                placements = [allocator.place()]
            else:
                striped_dies.add(tuple(placements[0][:2]))
        assert len(striped_dies) == 4

    def test_no_duplicate_placements_under_mixed_stream(self):
        _, allocator = make_allocator(channels=2, ways=1, blocks=4, pages=4)
        seen = set()
        for index in range(24):
            if index % 3 == 0:
                placements = allocator.place_stripe(2) or [allocator.place()]
            else:
                placements = [allocator.place()]
            for placement in placements:
                assert placement not in seen
                seen.add(placement)


class TestStripeLifecycle:
    def test_mark_bad_mid_stripe_frees_untouched_mates(self):
        _, allocator = make_allocator(blocks=8)
        placements = allocator.place_stripe(2)
        bad = placements[0]
        before = allocator.free_blocks(0, 0)
        allocator.mark_bad(bad[0], bad[1], bad[2])
        assert bad[2] in {b for (_c, _w, b) in allocator.bad_blocks}
        # The stripe mate took page 0 already, so it is NOT free again;
        # the cursor itself is gone.
        assert allocator.free_blocks(0, 0) == before
        assert (0, 0) not in allocator._cursors

    def test_mark_bad_on_pristine_mate_returns_it_to_pool(self):
        _, allocator = make_allocator(blocks=8)
        first = allocator.place()  # blocks (0, 1): 0 took a page, 1 did not
        cursor_blocks = list(allocator._cursors[(0, 0)].blocks)
        before = allocator.free_blocks(0, 0)
        allocator.mark_bad(0, 0, first[2])
        # The untouched mate returns to the free pool.
        assert allocator.free_blocks(0, 0) == before + 1
        mate = [b for b in cursor_blocks if b != first[2]][0]
        assert mate in allocator._free[(0, 0)]

    def test_bad_stripe_member_prevents_stripe_reuse(self):
        geometry, allocator = make_allocator(blocks=4, pages=1)
        allocator.mark_bad(0, 0, 0)
        placements = allocator.place_stripe(2)
        assert placements is not None
        assert [p[2] for p in placements] == [2, 3]
        # Only the broken stripe's good half remains, unstripeable.
        assert allocator.place_stripe(2) is None

    def test_exhaustion_raises_out_of_space(self):
        _, allocator = make_allocator(blocks=2, pages=1)
        allocator.place()
        allocator.place()
        with pytest.raises(OutOfSpaceError):
            allocator.place()
