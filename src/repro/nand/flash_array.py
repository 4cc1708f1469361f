"""Flash dies and blocks: state, constraints, and busy tracking.

A :class:`FlashDie` is the unit of operation exclusivity — one program,
read, or erase at a time.  Blocks enforce erase-before-program and in-order
page programming.  A block stores only the pages it has programmed, as a
list of ``(payload, nbytes)`` in page order: payloads are arbitrary Python
objects, so the simulator tracks data identity for correctness checks
(FTL, recovery) without materializing real 16 KiB buffers, and an erased
page costs nothing until it is programmed.
"""

from repro.nand.errors import (
    BadBlockError,
    ProgramOrderError,
    WriteWithoutEraseError,
)
from repro.sim.resources import Resource

_ERASED = (None, 0)


class Block:
    """A block of pages with NAND programming constraints.

    ``pages`` holds ``(payload, nbytes)`` for each programmed page; NAND
    programs in ascending page order, so its length is the next page to
    program.
    """

    __slots__ = ("pages", "pages_per_block", "erase_count", "read_count",
                 "is_bad")

    def __init__(self, pages_per_block):
        self.pages = []
        self.pages_per_block = pages_per_block
        self.erase_count = 0
        # Reads since the last erase: read disturb accumulates on the
        # block's cells and is cleared by erasing (see repro/nand/ecc.py).
        self.read_count = 0
        self.is_bad = False

    def mark_bad(self):
        self.is_bad = True

    def program(self, page_number, payload, nbytes):
        if self.is_bad:
            raise BadBlockError("block is marked bad")
        pages = self.pages
        if page_number != len(pages):
            raise ProgramOrderError(
                f"page {page_number} programmed out of order "
                f"(expected {len(pages)})"
            )
        if page_number >= self.pages_per_block:
            raise WriteWithoutEraseError("block is full; erase it first")
        pages.append((payload, nbytes))

    def read(self, page_number):
        """``(payload, nbytes)`` of a page; an erased page reads as
        ``(None, 0)``."""
        if self.is_bad:
            raise BadBlockError("block is marked bad")
        self.read_count += 1
        pages = self.pages
        if 0 <= page_number < len(pages):
            return pages[page_number]
        if 0 <= page_number < self.pages_per_block:
            return _ERASED
        raise IndexError(f"page {page_number} outside the block")

    def erase(self):
        if self.is_bad:
            raise BadBlockError("block is marked bad")
        self.pages.clear()
        self.erase_count += 1
        self.read_count = 0

    @property
    def is_full(self):
        return len(self.pages) >= self.pages_per_block


class FlashDie:
    """One die: a set of blocks plus a single-operation busy resource.

    The storage controller acquires the die, waits the operation's latency
    (plus bus transfer time for the data phase), then releases.  The
    acquire/operate/release protocol lives in :class:`~repro.nand.channel.Channel`
    so scheduling policy stays out of the die model.
    """

    def __init__(self, engine, geometry, timing, channel_id, way_id):
        self.engine = engine
        self.geometry = geometry
        self.timing = timing
        self.channel_id = channel_id
        self.way_id = way_id
        self.blocks = [
            Block(geometry.pages_per_block)
            for _ in range(geometry.blocks_per_die)
        ]
        self.busy = Resource(engine, capacity=1)
        self.programs = 0
        self.reads = 0
        self.erases = 0

    @property
    def is_idle(self):
        """True when no operation holds the die and none is queued."""
        return self.busy.in_use == 0 and self.busy.queue_length == 0

    def can_program(self, block, page):
        """True when ``page`` is the next page ``block`` programs (NAND
        programs a block's pages in ascending order)."""
        return page == len(self.blocks[block].pages)

    def program_page(self, block, page, payload, nbytes):
        """State change only; timing is applied by the channel."""
        self.blocks[block].program(page, payload, nbytes)
        self.programs += 1

    def read_page(self, block, page):
        self.reads += 1
        return self.blocks[block].read(page)

    def erase_block(self, block):
        self.blocks[block].erase()
        self.erases += 1
