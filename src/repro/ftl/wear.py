"""Wear accounting and leveling across the flash array.

NAND blocks endure a bounded number of program/erase cycles.  The FTL
records per-block erase counts (see
:class:`~repro.nand.flash_array.Block`); this module aggregates them into
fleet statistics and provides the *wear-aware release* policy: erased
blocks re-enter the free pool ordered by erase count, so the allocator
naturally prefers younger blocks and the wear spread stays bounded.

The destage ring is the device's hottest write target (the log loops
over a fixed LBA range forever), which is precisely why a Villars
device needs this: without leveling, the ring's blocks would age far
ahead of the rest of the array.
"""

import bisect


class WearStats:
    """A snapshot of erase-count distribution across the array."""

    __slots__ = ("total_erases", "max_erases", "min_erases", "mean_erases",
                 "blocks")

    def __init__(self, counts):
        self.blocks = len(counts)
        self.total_erases = sum(counts)
        self.max_erases = max(counts) if counts else 0
        self.min_erases = min(counts) if counts else 0
        self.mean_erases = (
            self.total_erases / self.blocks if self.blocks else 0.0
        )

    @property
    def spread(self):
        """Max minus min erases — the wear-leveling quality metric."""
        return self.max_erases - self.min_erases

    def __repr__(self):
        return (
            f"WearStats(blocks={self.blocks}, total={self.total_erases}, "
            f"spread={self.spread}, mean={self.mean_erases:.2f})"
        )


class WearLeveler:
    """Wear-aware free-pool ordering for a :class:`PageMappingFtl`.

    Installation wraps the allocator's ``release`` so erased blocks are
    inserted into the free list in ascending erase-count order.  The
    allocator's placement logic is untouched — it still pops the head —
    which keeps the change minimal and policy-local.
    """

    def __init__(self, ftl):
        self.ftl = ftl
        self._installed = False
        self._original_release = None

    def install(self):
        if self._installed:
            raise RuntimeError("wear leveler already installed")
        self._installed = True
        allocator = self.ftl.allocator
        previous = allocator.release
        self._original_release = previous
        channels = self.ftl.channels

        def wear_aware_release(channel, way, block):
            # Compose with whatever ``release`` is already installed
            # (the allocator's own, or another hook such as a fault
            # injector's): run it first, then reorder the free list.
            previous(channel, way, block)
            free = allocator.free_list(channel, way)
            if block not in free:
                # The inner release dropped the block (bad block, or a
                # hook swallowed it) — nothing to reorder.
                return
            die_blocks = channels[channel].die(way).blocks
            erases = die_blocks[block].erase_count
            keyed = [die_blocks[b].erase_count for b in free if b != block]
            allocator.move_free_block(channel, way, block,
                                      bisect.bisect_right(keyed, erases))

        allocator.release = wear_aware_release
        return self

    def uninstall(self):
        if not self._installed:
            return
        self.ftl.allocator.release = self._original_release
        self._installed = False

    # -- statistics --------------------------------------------------------------

    def stats(self):
        """Erase-count statistics over every non-bad block."""
        counts = []
        bad = self.ftl.allocator.bad_blocks
        for channel_id, channel in enumerate(self.ftl.channels):
            for way, die in enumerate(channel.dies):
                for block_id, block in enumerate(die.blocks):
                    if (channel_id, way, block_id) in bad:
                        continue
                    counts.append(block.erase_count)
        return WearStats(counts)

    def hottest_blocks(self, limit=5):
        """The ``limit`` most-erased blocks, for diagnostics."""
        entries = []
        for channel_id, channel in enumerate(self.ftl.channels):
            for way, die in enumerate(channel.dies):
                for block_id, block in enumerate(die.blocks):
                    entries.append(
                        (block.erase_count, channel_id, way, block_id)
                    )
        entries.sort(reverse=True)
        return entries[:limit]
