"""Page-level logical-to-physical mapping.

``MappingTable`` is pure bookkeeping (dict-based, injective over live
pages); ``PageMappingFtl`` combines it with the allocator and the channels
to serve timed reads and writes, including program-failure handling
(bad-block retirement and replacement, Section 7.1 of the paper).
"""

from repro.ftl.allocator import BlockAllocator
from repro.nand.errors import UncorrectableError
from repro.nand.geometry import PhysicalPageAddress


class ReadRetired(UncorrectableError):
    """Read retries exhausted; the FTL retired the failing block.

    Raised instead of the raw :class:`UncorrectableError` so callers see
    a *typed result* of the firmware's retry-then-retire flow (Section
    7.1): the data at ``lba`` is lost, the block at ``address`` no longer
    accepts placements, and the exception subclasses
    :class:`UncorrectableError` so existing handlers keep working.
    """

    def __init__(self, message, lba=None, address=None, attempts=0):
        super().__init__(message)
        self.lba = lba
        self.address = address
        self.attempts = attempts


class MappingTable:
    """LBA -> physical page map plus reverse map and per-block live counts."""

    def __init__(self, geometry):
        self.geometry = geometry
        self._forward = {}  # lba -> PhysicalPageAddress
        self._reverse = {}  # (channel, way, block, page) -> lba
        self._live_per_block = {}  # (channel, way, block) -> live page count

    def lookup(self, lba):
        """Physical address of ``lba``, or None if never written."""
        return self._forward.get(lba)

    def bind(self, lba, address):
        """Point ``lba`` at ``address``; the old page (if any) becomes dead."""
        key = (address.channel, address.way, address.block, address.page)
        if key in self._reverse:
            raise ValueError(f"physical page {address} double-mapped")
        self.unbind(lba)
        self._forward[lba] = address
        self._reverse[key] = lba
        block_key = key[:3]
        self._live_per_block[block_key] = self._live_per_block.get(block_key, 0) + 1

    def unbind(self, lba):
        """Invalidate the mapping of ``lba`` (on overwrite or trim)."""
        old = self._forward.pop(lba, None)
        if old is None:
            return None
        key = (old.channel, old.way, old.block, old.page)
        del self._reverse[key]
        block_key = key[:3]
        self._live_per_block[block_key] -= 1
        if not self._live_per_block[block_key]:
            del self._live_per_block[block_key]
        return old

    def lba_of(self, address):
        """The LBA currently living at ``address``, or None if dead/empty."""
        return self._reverse.get(
            (address.channel, address.way, address.block, address.page)
        )

    def forward_items(self):
        """Read-only view of ``(lba, PhysicalPageAddress)`` mappings."""
        return self._forward.items()

    def reverse_items(self):
        """Read-only view of ``((channel, way, block, page), lba)`` entries."""
        return self._reverse.items()

    def live_pages_in(self, channel, way, block):
        return self._live_per_block.get((channel, way, block), 0)

    def live_lbas_in(self, channel, way, block):
        """All live LBAs in one block (what GC must migrate)."""
        return [
            lba
            for (ch, w, b, _page), lba in self._reverse.items()
            if (ch, w, b) == (channel, way, block)
        ]

    def __len__(self):
        return len(self._forward)


class PageMappingFtl:
    """The timed FTL: serves logical reads/writes over the channels.

    ``write(lba, payload)`` and ``read(lba)`` return simulation events.
    Program failures (from an optional
    :class:`~repro.nand.ecc.ProgramFaultModel`) retire the block and retry
    placement — the paper's internally handled destage-failure case.
    """

    def __init__(self, engine, channels, geometry, program_fault_model=None,
                 reserved_blocks_per_die=1, read_retry_limit=3, name="ftl"):
        self.engine = engine
        self.channels = channels
        self.geometry = geometry
        self.name = name
        self.table = MappingTable(geometry)
        self.allocator = BlockAllocator(
            geometry, reserved_blocks_per_die=reserved_blocks_per_die
        )
        self.program_fault_model = program_fault_model
        # Uncorrectable reads are retried (real firmware shifts read
        # reference voltages and tries again) up to this many extra
        # attempts before the error propagates to the host.
        self.read_retry_limit = read_retry_limit
        self.writes_served = 0
        self.reads_served = 0
        self.program_failures = 0
        self.read_retries = 0
        self.read_retirements = 0
        self._space_low_callbacks = []
        # Writes started so far, and per LBA how many had started when its
        # writes under way were voided (see ``void_writes``).
        self._writes_started = 0
        self._voided_before = {}

    def on_space_low(self, callback):
        """Register ``callback()`` fired after a write leaves space low.

        The garbage collector hooks this so it wakes exactly when needed
        instead of polling on a timer.
        """
        self._space_low_callbacks.append(callback)

    def write(self, lba, payload, nbytes=None, op_class=None):
        """Persist ``payload`` at ``lba``; event value is the physical address.

        ``op_class`` tags the program for QoS accounting ("destage",
        "conventional", "gc"); cache-program pipelining applies when the
        shared :class:`~repro.nand.dies.DieQos` enables it.
        """
        return self.engine.process(
            self._write_proc(lba, payload, nbytes, op_class),
            name=f"ftl-write {lba}"
        )

    def void_writes(self, lba):
        """Writes to ``lba`` already started still program their page but
        bind nothing: a power loss settled their data elsewhere.

        The crash path calls this before it binds ``lba`` itself, so a
        program still under way cannot bind the LBA over it afterwards.
        """
        self._voided_before[lba] = self._writes_started

    def write_striped(self, items, op_class=None):
        """Persist several pages as one multi-plane program when possible.

        ``items`` is ``[(lba, payload, nbytes), ...]``; event value is the
        list of physical addresses in item order.  Falls back to single-
        plane writes when no aligned stripe is open.
        """
        return self.engine.process(
            self._write_striped_proc(list(items), op_class),
            name=f"ftl-mwrite x{len(items)}"
        )

    def read(self, lba):
        """Read ``lba``; event value is the stored payload."""
        return self.engine.process(self._read_proc(lba), name=f"ftl-read {lba}")

    @property
    def qos(self):
        """The die QoS policy shared by this FTL's channels."""
        return self.channels[0].resources.qos

    # -- internals ---------------------------------------------------------------

    def _write_proc(self, lba, payload, nbytes, op_class=None, ticket=None):
        if ticket is None:
            ticket = self._writes_started
            self._writes_started += 1
        while True:
            channel_id, way, block, page = self.allocator.place()
            fault = self.program_fault_model
            if fault is not None and fault.should_fail(channel_id, way, block):
                # Grown bad block: retire it, migrate nothing (pages already
                # written there stay readable on real NAND until wear-out;
                # we conservatively only stop placing new data there).
                self.program_failures += 1
                tracer = self.engine.tracer
                if tracer.enabled:
                    tracer.instant(self.name, "program-failure",
                                   channel=channel_id, way=way, block=block)
                self.allocator.mark_bad(channel_id, way, block)
                self.allocator.abandon_open_block(channel_id, way)
                continue
            channel = self.channels[channel_id]
            yield channel.program(
                way, block, page, payload, nbytes,
                cache=channel.resources.qos.cache_program,
            )
            address = PhysicalPageAddress(channel_id, way, block, page)
            if ticket >= self._voided_before.get(lba, 0):
                self.table.bind(lba, address)
            self.writes_served += 1
            if self._space_low_callbacks and self.allocator.needs_gc():
                for callback in self._space_low_callbacks:
                    callback()
            return address

    def _write_striped_proc(self, items, op_class):
        ticket = self._writes_started
        self._writes_started += 1
        while True:
            stripe = self.allocator.place_stripe(len(items))
            if stripe is None:
                # No aligned stripe open right now: degrade to the
                # single-plane path per item (started with this write).
                addresses = []
                for lba, payload, nbytes in items:
                    addresses.append((yield self.engine.process(
                        self._write_proc(lba, payload, nbytes, op_class,
                                         ticket),
                        name=f"ftl-write {lba}"
                    )))
                return addresses
            channel_id, way = stripe[0][0], stripe[0][1]
            fault = self.program_fault_model
            if fault is not None:
                failed = [
                    block for _ch, _way, block, _page in stripe
                    if fault.should_fail(channel_id, way, block)
                ]
                if failed:
                    self.program_failures += len(failed)
                    tracer = self.engine.tracer
                    for block in failed:
                        if tracer.enabled:
                            tracer.instant(self.name, "program-failure",
                                           channel=channel_id, way=way,
                                           block=block)
                        self.allocator.mark_bad(channel_id, way, block)
                    self.allocator.abandon_open_block(channel_id, way)
                    continue
            channel = self.channels[channel_id]
            ops = [
                (block, page, payload, nbytes)
                for (_ch, _way, block, page), (_lba, payload, nbytes)
                in zip(stripe, items)
            ]
            yield channel.program_multi(
                way, ops, cache=channel.resources.qos.cache_program
            )
            addresses = []
            for (_ch, _way, block, page), (lba, _payload, _nbytes) \
                    in zip(stripe, items):
                address = PhysicalPageAddress(channel_id, way, block, page)
                if ticket >= self._voided_before.get(lba, 0):
                    self.table.bind(lba, address)
                addresses.append(address)
            self.writes_served += len(items)
            if self._space_low_callbacks and self.allocator.needs_gc():
                for callback in self._space_low_callbacks:
                    callback()
            return addresses

    def _read_proc(self, lba):
        address = self.table.lookup(lba)
        if address is None:
            raise KeyError(f"lba {lba} was never written")
        attempt = 0
        while True:
            try:
                payload, _nbytes = yield self.channels[address.channel].read(
                    address.way, address.block, address.page
                )
            except UncorrectableError as error:
                if attempt >= self.read_retry_limit:
                    # Retries exhausted: retire the block (it stops taking
                    # new placements; pages already mapped there stay, as
                    # with a program failure) and surface a typed error
                    # instead of the raw ECC exception.
                    self.read_retirements += 1
                    self.allocator.mark_bad(
                        address.channel, address.way, address.block
                    )
                    tracer = self.engine.tracer
                    if tracer.enabled:
                        tracer.instant(self.name, "read-retired", lba=lba,
                                       channel=address.channel,
                                       way=address.way,
                                       block=address.block,
                                       attempts=attempt + 1)
                    raise ReadRetired(
                        f"lba {lba} unreadable after {attempt + 1} "
                        f"attempts; retired block "
                        f"({address.channel}, {address.way}, "
                        f"{address.block})",
                        lba=lba, address=address, attempts=attempt + 1,
                    ) from error
                attempt += 1
                self.read_retries += 1
                tracer = self.engine.tracer
                if tracer.enabled:
                    tracer.instant(self.name, "read-retry", lba=lba,
                                   attempt=attempt)
                continue
            self.reads_served += 1
            return payload
