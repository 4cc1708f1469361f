"""Free-block allocation across the flash array.

The allocator hands out erased blocks for writing and tracks each die's
free pool.  Placement policy is channel-striping round-robin, which is what
gives the device its parallelism: consecutive pages land on different
channels so their cell phases overlap.

With a multi-plane geometry (``planes_per_die > 1``) the allocator is
*plane-aware*: an open cursor holds one aligned block per plane of its die
and fills them in lockstep (page 0 on every plane, then page 1, ...), so
:meth:`place_stripe` can hand the scheduler a whole multi-plane program's
worth of aligned placements at once.  On a single-plane geometry the
behavior is exactly the classic one-block cursor.
"""


class OutOfSpaceError(Exception):
    """No erased block is available anywhere in the array."""


class BlockCursor:
    """An open stripe of aligned blocks being filled page by page.

    ``blocks`` holds one block per plane (a single block on single-plane
    geometries, or when no aligned stripe was free).  Pages fill round-
    robin across the planes so every block obeys NAND's ascending
    program-order rule.
    """

    __slots__ = ("channel", "way", "blocks", "next_page", "next_plane")

    def __init__(self, channel, way, blocks):
        self.channel = channel
        self.way = way
        self.blocks = list(blocks)
        self.next_page = 0
        self.next_plane = 0

    @property
    def block(self):
        """The block the *next* placement lands on (compat accessor)."""
        return self.blocks[self.next_plane]


class BlockAllocator:
    """Tracks free / open / full / bad blocks per die and places pages.

    ``place()`` returns ``(channel, way, block, page)`` for the next write,
    striping across channels then ways (then planes within a die's open
    stripe).  A block is returned to the free pool by :meth:`release`
    after the GC erases it.
    """

    def __init__(self, geometry, reserved_blocks_per_die=1):
        self.geometry = geometry
        self.planes = geometry.planes_per_die
        # Free-block lists per (channel, way); blocks are identified by index.
        self._free = {
            (channel, way): list(range(geometry.blocks_per_die))
            for channel in range(geometry.channels)
            for way in range(geometry.ways_per_channel)
        }
        self._bad = set()  # (channel, way, block)
        self._cursors = {}  # (channel, way) -> BlockCursor
        self._die_order = [
            (channel, way)
            for way in range(geometry.ways_per_channel)
            for channel in range(geometry.channels)
        ]
        self._next_die = 0
        # GC must always find a spare block to migrate into.
        self.reserved_blocks_per_die = reserved_blocks_per_die

    # -- placement ----------------------------------------------------------------

    def place(self, ready=None):
        """Choose the physical page for the next write.

        Returns ``(channel, way, block, page)``.  Raises
        :class:`OutOfSpaceError` when every die is exhausted (the GC should
        have run long before this), or when ``ready`` — a predicate on a
        candidate placement — refuses every die's next page.

        On a multi-plane geometry, single placements *prefer* a die whose
        stripe cursor sits mid-page (``next_plane != 0``): completing
        that page realigns the cursor to a plane boundary so
        :meth:`place_stripe` can use the die again.  Without this, a
        stream that mixes single and striped writes permanently
        fragments cursors and funnels every stripe onto the few dies
        that happen to stay aligned.
        """
        if self.planes > 1:
            for offset in range(len(self._die_order)):
                die = self._die_order[
                    (self._next_die + offset) % len(self._die_order)
                ]
                cursor = self._cursors.get(die)
                if cursor is not None and cursor.next_plane != 0:
                    placement = (
                        die[0], die[1], cursor.blocks[cursor.next_plane],
                        cursor.next_page,
                    )
                    if ready is not None and not ready(placement):
                        continue
                    self._advance(die, cursor)
                    return placement
        for _ in range(len(self._die_order)):
            die = self._die_order[self._next_die]
            self._next_die = (self._next_die + 1) % len(self._die_order)
            cursor = self._cursor_for(die)
            if cursor is None:
                continue
            placement = (
                die[0], die[1], cursor.blocks[cursor.next_plane],
                cursor.next_page,
            )
            if ready is not None and not ready(placement):
                continue
            self._advance(die, cursor)
            return placement
        raise OutOfSpaceError(
            "no erased blocks left on any die" if ready is None
            else "no die can take the page now")

    def place_stripe(self, count):
        """Aligned multi-plane placements: one page per plane of one die.

        Returns ``[(channel, way, block, page), ...]`` of length ``count``
        (every entry shares the channel, way, and page offset — ready for
        :meth:`~repro.nand.channel.Channel.program_multi`), or ``None``
        when the next stripe-capable die's cursor sits mid-page — the
        caller then falls back to single placements, which :meth:`place`
        routes to exactly such fragmented cursors to realign them.
        Giving up early (instead of skipping fragmented dies) is what
        keeps striped traffic spread across the array rather than
        stacking on whichever dies stayed aligned.
        """
        if count < 2 or count > self.planes:
            return None
        for _ in range(len(self._die_order)):
            die = self._die_order[self._next_die]
            cursor = self._cursor_for(die)
            if cursor is None:
                self._next_die = (self._next_die + 1) % len(self._die_order)
                continue
            if len(cursor.blocks) == count and cursor.next_plane == 0:
                self._next_die = (self._next_die + 1) % len(self._die_order)
                page = cursor.next_page
                placements = [
                    (die[0], die[1], block, page) for block in cursor.blocks
                ]
                cursor.next_page += 1
                if cursor.next_page >= self.geometry.pages_per_block:
                    del self._cursors[die]
                return placements
            if len(cursor.blocks) >= count and cursor.next_plane != 0:
                # Fragmented stripe cursor: leave ``_next_die`` pointing
                # here so the caller's single-write fallback lands on
                # this die and realigns it.
                return None
            # Single-block cursor: this die cannot take a stripe.
            self._next_die = (self._next_die + 1) % len(self._die_order)
        return None

    def _advance(self, die, cursor):
        cursor.next_plane += 1
        if cursor.next_plane >= len(cursor.blocks):
            cursor.next_plane = 0
            cursor.next_page += 1
            if cursor.next_page >= self.geometry.pages_per_block:
                del self._cursors[die]

    def _cursor_for(self, die):
        cursor = self._cursors.get(die)
        if cursor is not None:
            return cursor
        free = self._free[die]
        if self.planes > 1:
            stripe = self._find_stripe(die, free)
            if stripe is not None:
                for block in stripe:
                    free.remove(block)
                cursor = BlockCursor(die[0], die[1], stripe)
                self._cursors[die] = cursor
                return cursor
        while free:
            block = free.pop(0)
            if (die[0], die[1], block) in self._bad:
                continue
            cursor = BlockCursor(die[0], die[1], [block])
            self._cursors[die] = cursor
            return cursor
        return None

    def _find_stripe(self, die, free):
        """First fully-free, fully-good aligned stripe on this die."""
        planes = self.planes
        members = set(free)
        for block in free:
            if block % planes:
                continue
            stripe = list(range(block, block + planes))
            if all(b in members
                   and (die[0], die[1], b) not in self._bad
                   for b in stripe):
                return stripe
        return None

    # -- lifecycle ------------------------------------------------------------------

    def release(self, channel, way, block):
        """Return an erased block to the free pool."""
        if (channel, way, block) in self._bad:
            return
        self._free[(channel, way)].append(block)

    def mark_bad(self, channel, way, block):
        """Retire a block permanently (grown bad block)."""
        self._bad.add((channel, way, block))
        # Purge it from the free pool eagerly (a lazily-skipped bad block
        # would inflate free_blocks() and trip the integrity oracle).
        free = self._free[(channel, way)]
        if block in free:
            free.remove(block)
        cursor = self._cursors.get((channel, way))
        if cursor is not None and block in cursor.blocks:
            self._abandon_cursor((channel, way), cursor, exclude=block)

    def abandon_open_block(self, channel, way):
        """Drop the open cursor on a die (after a program failure)."""
        self._cursors.pop((channel, way), None)

    def _abandon_cursor(self, die, cursor, exclude=None):
        """Drop a cursor; untouched stripe mates return to the free pool."""
        del self._cursors[die]
        for block in cursor.blocks:
            if block == exclude:
                continue
            # Blocks that already took pages are no longer erased; they
            # stay out of the pool until the GC collects and erases them.
            # On a lockstep-filled stripe only blocks *behind* next_plane
            # at page 0 are still pristine.
            plane = cursor.blocks.index(block)
            untouched = (cursor.next_page == 0 and plane >= cursor.next_plane)
            if untouched and (die[0], die[1], block) not in self._bad:
                self._free[die].append(block)

    # -- introspection ---------------------------------------------------------------

    def free_list(self, channel, way):
        """One die's free blocks, in the order they will be handed out."""
        return tuple(self._free[(channel, way)])

    def open_blocks(self):
        """``(channel, way, block)`` of every block an open cursor holds."""
        return [
            (channel, way, block)
            for (channel, way), cursor in self._cursors.items()
            for block in cursor.blocks
        ]

    def free_blocks(self, channel=None, way=None):
        """Count of free (erased, not bad) blocks, optionally for one die."""
        if channel is not None and way is not None:
            return len(self._free[(channel, way)])
        return sum(len(blocks) for blocks in self._free.values())

    @property
    def bad_blocks(self):
        return set(self._bad)

    def needs_gc(self):
        """True when some die's free pool fell to the reserve threshold."""
        return any(
            len(blocks) <= self.reserved_blocks_per_die
            for blocks in self._free.values()
        )
