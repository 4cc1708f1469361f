"""Tests for the GC victim policy's wear tie-break."""

from hypothesis import given, settings, strategies as st

from repro.ftl.gc import GarbageCollector
from repro.ftl.mapping import PageMappingFtl
from repro.nand.channel import Channel
from repro.nand.geometry import Geometry
from repro.nand.timing import NandTiming
from repro.sim import Engine


def make_system(blocks_per_die=6, pages_per_block=2):
    engine = Engine()
    geometry = Geometry(channels=1, ways_per_channel=1,
                        blocks_per_die=blocks_per_die,
                        pages_per_block=pages_per_block, page_bytes=4096)
    timing = NandTiming(t_program=1_000.0, t_read=100.0, t_erase=5_000.0,
                        bus_bandwidth=4.0)
    channels = [Channel(engine, geometry, timing, channel_id=0)]
    ftl = PageMappingFtl(engine, channels, geometry,
                         reserved_blocks_per_die=1)
    gc = GarbageCollector(engine, ftl)
    return engine, ftl, gc


class TestGcVictimWearTieBreak:
    """The GC victim policy breaks live-count ties toward low wear."""

    def _fill_dead_blocks(self, writes=8):
        """Single-LBA churn: every full block is fully dead (live 0)."""
        engine, ftl, gc = make_system(blocks_per_die=6, pages_per_block=2)

        def churn():
            for i in range(writes):
                yield ftl.write(0, f"v{i}")

        done = engine.process(churn())
        engine.run(until=1e9)
        assert done.triggered
        return engine, ftl, gc

    def _candidates(self, ftl):
        open_blocks = {
            (cursor.channel, cursor.way, block)
            for cursor in ftl.allocator._cursors.values()
            for block in cursor.blocks
        }
        die = ftl.channels[0].die(0)
        return [
            block_id for block_id, block in enumerate(die.blocks)
            if block.is_full and not block.is_bad
            and (0, 0, block_id) not in open_blocks
        ]

    def test_tie_breaks_toward_least_erased_block(self):
        engine, ftl, gc = self._fill_dead_blocks()
        candidates = self._candidates(ftl)
        die = ftl.channels[0].die(0)
        dead = [b for b in candidates
                if ftl.table.live_pages_in(0, 0, b) == 0]
        assert len(dead) >= 2  # the tie the policy must break
        # Age every dead candidate except the last: the wear-blind
        # policy (first scanned wins) would return the lowest index.
        youngest = dead[-1]
        for block_id in dead:
            die.blocks[block_id].erase_count = 5
        die.blocks[youngest].erase_count = 1
        assert gc.select_victim() == (0, 0, youngest)

    def test_lower_live_count_still_beats_lower_wear(self):
        """Wear only breaks ties: migration cost stays the primary key."""
        engine, ftl, gc = self._fill_dead_blocks(writes=7)
        candidates = self._candidates(ftl)
        die = ftl.channels[0].die(0)
        live = {
            block_id: ftl.table.live_pages_in(0, 0, block_id)
            for block_id in candidates
        }
        assert min(live.values()) == 0
        dead = [b for b in candidates if live[b] == 0]
        # Make every dead block ancient; any block holding live pages
        # stays young.  Cheapest-to-migrate must still win.
        for block_id in dead:
            die.blocks[block_id].erase_count = 50
        victim = gc.select_victim()
        assert victim is not None
        assert live[victim[2]] == 0

    @given(ages=st.lists(st.integers(0, 12), min_size=6, max_size=6),
           rounds=st.integers(8, 40))
    @settings(max_examples=50, deadline=None)
    def test_single_lba_churn_bounds_wear_spread(self, ages, rounds):
        """Degenerate single-LBA overwrite churn over a pre-aged die
        keeps the erase spread bounded by the initial skew: every
        collection is a live-count tie (all stale copies are dead), so
        the tie-break alone decides where wear lands.  The wear-blind
        policy funnels those erases by scan order and lets the skew
        grow without bound as the churn continues."""
        engine, ftl, gc = make_system(blocks_per_die=6, pages_per_block=2)
        die = ftl.channels[0].die(0)
        for block, age in zip(die.blocks, ages):
            block.erase_count = age
        gc.start()

        def churn():
            for i in range(rounds * 2):
                yield ftl.write(0, f"{i}")

        done = engine.process(churn())
        engine.run(until=1e9)
        assert done.triggered
        counts = [block.erase_count for block in die.blocks
                  if not block.is_bad]
        initial_spread = max(ages) - min(ages)
        assert max(counts) - min(counts) <= max(initial_spread, 2)
