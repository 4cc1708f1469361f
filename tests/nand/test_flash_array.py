"""Unit tests for flash dies and blocks, and their NAND constraints."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nand.errors import (
    BadBlockError,
    ProgramOrderError,
    WriteWithoutEraseError,
)
from repro.nand.flash_array import Block, FlashDie
from repro.nand.geometry import Geometry
from repro.nand.timing import NandTiming
from repro.sim import Engine


def small_geometry():
    return Geometry(channels=1, ways_per_channel=1, blocks_per_die=4,
                    pages_per_block=4, page_bytes=512)


class TestBlock:
    def test_program_then_read(self):
        block = Block(pages_per_block=4)
        block.program(0, "payload", 512)
        assert block.read(0) == ("payload", 512)

    def test_erased_page_reads_empty_and_counts_as_a_read(self):
        block = Block(pages_per_block=4)
        block.program(0, "payload", 512)
        assert block.read(3) == (None, 0)
        assert block.read_count == 1

    def test_read_outside_the_block_raises(self):
        block = Block(pages_per_block=4)
        for page in (-1, 4):
            with pytest.raises(IndexError):
                block.read(page)

    def test_in_order_programming_enforced(self):
        block = Block(pages_per_block=4)
        block.program(0, "p0", 1)
        with pytest.raises(ProgramOrderError):
            block.program(2, "p2", 1)

    def test_double_program_forbidden(self):
        block = Block(pages_per_block=4)
        block.program(0, "a", 1)
        with pytest.raises(ProgramOrderError):
            block.program(0, "b", 1)
        assert block.read(0) == ("a", 1)

    def test_programming_a_full_block_needs_an_erase(self):
        block = Block(pages_per_block=2)
        block.program(0, "a", 1)
        block.program(1, "b", 1)
        with pytest.raises(WriteWithoutEraseError):
            block.program(2, "c", 1)
        block.erase()
        block.program(0, "c", 1)
        assert block.read(0) == ("c", 1)

    def test_full_after_all_pages(self):
        block = Block(pages_per_block=2)
        block.program(0, "a", 1)
        assert not block.is_full
        block.program(1, "b", 1)
        assert block.is_full

    def test_erase_allows_reprogramming_and_counts(self):
        block = Block(pages_per_block=2)
        block.program(0, "a", 1)
        block.erase()
        assert block.erase_count == 1
        block.program(0, "again", 1)
        assert block.read(0) == ("again", 1)

    def test_erase_resets(self):
        block = Block(pages_per_block=2)
        block.program(0, "a", 1)
        block.program(1, "b", 1)
        block.erase()
        assert not block.is_full
        assert block.read(0) == (None, 0)
        block.program(0, "c", 2)  # reprogrammable after erase
        assert block.read(0) == ("c", 2)

    def test_bad_block_refuses_everything(self):
        block = Block(pages_per_block=2)
        block.mark_bad()
        with pytest.raises(BadBlockError):
            block.program(0, "a", 1)
        with pytest.raises(BadBlockError):
            block.read(0)
        with pytest.raises(BadBlockError):
            block.erase()


class ReferenceBlock:
    """A block with one slot per page, erased (``None``) or programmed.

    It keeps the per-page model the simulator used before blocks stored
    only their programmed pages.  That model raised a bare ``IndexError``
    when a full block was programmed; here, as in :class:`Block`, that
    is a :class:`WriteWithoutEraseError`.
    """

    def __init__(self, pages_per_block):
        self.slots = [None] * pages_per_block
        self.next_page = 0
        self.erase_count = 0
        self.read_count = 0
        self.is_bad = False

    def mark_bad(self):
        self.is_bad = True

    def program(self, page_number, payload, nbytes):
        if self.is_bad:
            raise BadBlockError("block is marked bad")
        if page_number != self.next_page:
            raise ProgramOrderError("out of order")
        if (page_number >= len(self.slots)
                or self.slots[page_number] is not None):
            raise WriteWithoutEraseError("page already programmed")
        self.slots[page_number] = (payload, nbytes)
        self.next_page += 1

    def read(self, page_number):
        if self.is_bad:
            raise BadBlockError("block is marked bad")
        self.read_count += 1
        return self.slots[page_number] or (None, 0)

    def erase(self):
        if self.is_bad:
            raise BadBlockError("block is marked bad")
        self.slots = [None] * len(self.slots)
        self.next_page = 0
        self.erase_count += 1
        self.read_count = 0

    @property
    def is_full(self):
        return self.next_page >= len(self.slots)


PAGES_PER_BLOCK = 3
# A program either targets the block's next page (``None``) or any page
# from 0 to one past the end; a read targets any page from 0 to one past
# the end.
_page = st.integers(min_value=0, max_value=PAGES_PER_BLOCK)
_operation = st.one_of(
    st.tuples(st.just("program"), st.none() | _page,
              st.integers(min_value=0, max_value=512)),
    st.tuples(st.just("read"), _page),
    st.just(("erase",)),
    st.just(("mark_bad",)),
)


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as error:
        return ("raised", type(error))


@given(st.lists(_operation, max_size=40))
def test_block_matches_the_per_page_model(operations):
    block = Block(PAGES_PER_BLOCK)
    model = ReferenceBlock(PAGES_PER_BLOCK)
    for step, operation in enumerate(operations):
        kind = operation[0]
        if kind == "program":
            page = model.next_page if operation[1] is None else operation[1]
            payload = f"payload-{step}"
            outcomes = [
                _outcome(lambda b=b: b.program(page, payload, operation[2]))
                for b in (block, model)
            ]
        elif kind == "read":
            outcomes = [_outcome(lambda b=b: b.read(operation[1]))
                        for b in (block, model)]
        else:
            outcomes = [_outcome(getattr(b, kind)) for b in (block, model)]
        assert outcomes[0] == outcomes[1], (step, operation)
        assert block.erase_count == model.erase_count
        assert block.read_count == model.read_count
        assert block.is_full == model.is_full


class TestFlashDie:
    def test_program_and_read_back(self):
        engine = Engine()
        die = FlashDie(engine, small_geometry(), NandTiming(), 0, 0)
        die.program_page(1, 0, "hello", 512)
        assert die.read_page(1, 0) == ("hello", 512)
        assert die.programs == 1
        assert die.reads == 1

    def test_idle_tracking(self):
        engine = Engine()
        die = FlashDie(engine, small_geometry(), NandTiming(), 0, 0)
        assert die.is_idle
        die.busy.request()
        assert not die.is_idle
        die.busy.release()
        assert die.is_idle

    def test_erase_block_resets_pages(self):
        engine = Engine()
        die = FlashDie(engine, small_geometry(), NandTiming(), 0, 0)
        die.program_page(0, 0, "x", 512)
        die.erase_block(0)
        assert die.read_page(0, 0) == (None, 0)
        assert die.erases == 1
