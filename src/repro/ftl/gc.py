"""Greedy garbage collection: reclaim the block with the fewest live pages.

GC runs as a background process woken *by the FTL* whenever a placement
leaves some die's free pool at its reserve threshold (event-driven, no
polling timer — so an idle device schedules no events and simulations
terminate naturally).  A collection cycle picks the victim block with
minimum live count, migrates its live pages to fresh placements (through
the normal write path, so the mapping stays consistent), erases the
victim, and returns it to the allocator.
"""


class GarbageCollector:
    """Background space reclamation for a :class:`PageMappingFtl`."""

    def __init__(self, engine, ftl, check_period_ns=100_000.0, name="gc"):
        self.engine = engine
        self.ftl = ftl
        self.check_period_ns = check_period_ns
        self.name = name
        self.collections = 0
        self.pages_migrated = 0
        self._running = False
        self._wakeup = engine.event()

    def start(self):
        """Launch the background GC loop and hook the FTL's low-space signal."""
        if self._running:
            raise RuntimeError("GC already started")
        self._running = True
        self.ftl.on_space_low(self._on_space_low)
        return self.engine.process(self._loop(), name="gc-loop")

    def stop(self):
        self._running = False
        self._on_space_low()

    def _on_space_low(self):
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    def _loop(self):
        while self._running:
            if self._wakeup.triggered:
                self._wakeup = self.engine.event()
            else:
                yield self._wakeup
                continue
            while self._running and self.ftl.allocator.needs_gc():
                victim = self.select_victim()
                if victim is None:
                    # Nothing collectible right now; wait for more writes
                    # to close open blocks, then re-check.
                    break
                yield self.engine.process(self.collect(victim))

    # -- policy ----------------------------------------------------------------

    def select_victim(self):
        """Greedy policy: the fully written block with fewest live pages.

        Only blocks that are not currently open for writing are candidates;
        the mapping's live count gives the migration cost directly.  Equal
        live counts break toward the *least-erased* block: a hot workload
        keeps producing fully-dead blocks, and a wear-blind tie-break
        (first block scanned wins) would funnel those erases by scan
        order, letting an already-skewed die skew further forever.
        """
        table = self.ftl.table
        geometry = self.ftl.geometry
        best = None
        best_live = None
        best_wear = None
        open_blocks = set(self.ftl.allocator.open_blocks())
        for channel_id in range(geometry.channels):
            channel = self.ftl.channels[channel_id]
            for way in range(geometry.ways_per_channel):
                die = channel.die(way)
                for block_id, block in enumerate(die.blocks):
                    key = (channel_id, way, block_id)
                    if block.is_bad or key in open_blocks:
                        continue
                    if not block.is_full:
                        continue
                    live = table.live_pages_in(*key)
                    wear = block.erase_count
                    if (best_live is None or live < best_live
                            or (live == best_live and wear < best_wear)):
                        best, best_live, best_wear = key, live, wear
        return best

    # -- mechanism --------------------------------------------------------------

    def collect(self, victim):
        """Migrate live pages out of ``victim``, erase it, free it."""
        channel_id, way, block = victim
        channel = self.ftl.channels[channel_id]
        tracer = self.engine.tracer
        token = None
        if tracer.enabled:
            token = tracer.begin(self.name, "collect", channel=channel_id,
                                 way=way, block=block)
        migrated = 0
        for lba in self.ftl.table.live_lbas_in(channel_id, way, block):
            address = self.ftl.table.lookup(lba)
            payload, nbytes = yield channel.read(
                address.way, address.block, address.page
            )
            yield self.ftl.write(lba, payload, nbytes, op_class="gc")
            self.pages_migrated += 1
            migrated += 1
        # GC erases carry their class so the QoS policy can let host
        # reads suspend them (see repro/nand/dies.py).
        yield channel.erase(way, block, op_class="gc")
        self.ftl.allocator.release(channel_id, way, block)
        self.collections += 1
        if token is not None:
            tracer.end(token, pages_migrated=migrated)
