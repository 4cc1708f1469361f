"""The Destage module: moving the CMB ring into NAND, opportunistically.

The module watches the CMB ring's contiguous data and bundles it into
flash pages, which it writes through the conventional side's scheduler as
``Source.DESTAGE`` requests into a dedicated LBA ring (Section 4.3,
Fig. 7).  Policy knobs:

* the **latency threshold**: if data has waited longer than the threshold
  but is less than a page's worth, destage it anyway, padding the page
  with filler;
* the scheduler's priority mode decides how destage programs compete with
  conventional writes (opportunistic destaging, Fig. 12).

The destaged area is itself a ring of LBAs: when it wraps, the head
advances (oldest log data is overwritten).  Head and tail are visible
through the log control interface; the secondary-side read path
(:func:`repro.host.api.x_pread`) uses them.
"""

from repro.nand.geometry import PhysicalPageAddress
from repro.sim.engine import Event
from repro.ssd.scheduler import Source, WriteRequest

# Minimum wait quantum: floating-point clocks cannot represent arbitrarily
# small remainders near large timestamps, so a naive
# `timeout(threshold - waited)` can round to a zero-advance event and spin.
# One nanosecond is far below anything we measure.
MIN_WAIT_NS = 1.0


class DestagePage:
    """One flash page's worth of destaged log data (possibly padded).

    ``chunks`` lists the page's data in stream order as ``(offset, nbytes,
    payload)`` entries, each a contiguous payload slice: the ring merges
    the 64 B intake chunks of one ``x_pwrite`` payload into one entry
    (see :meth:`~repro.core.ring.SequencedRing.consume`), so a page holds
    a few entries rather than one per chunk.
    """

    __slots__ = ("stream_offset", "chunks", "data_bytes", "filler_bytes")

    def __init__(self, stream_offset, chunks, data_bytes, filler_bytes):
        self.stream_offset = stream_offset
        self.chunks = chunks  # [(offset, nbytes, payload slice)]
        self.data_bytes = data_bytes
        self.filler_bytes = filler_bytes

    @property
    def end_offset(self):
        return self.stream_offset + self.data_bytes


class _Hop(Event):
    """The destage loop's immediate-queue hop, queued again once the run
    loop has dispatched it (a plain ``Event`` is one-shot)."""

    __slots__ = ()

    def queue(self, callback):
        """Queue this hop to run ``callback``.

        Returns ``False``, queueing nothing, while the hop is still queued
        or was cancelled (a cancelled hop keeps its queue slot until the
        run loop drops it).
        """
        if self._cancelled or (self.triggered and not self._processed):
            return False
        self._processed = False
        self.triggered = False
        self.callbacks.append(callback)
        self.succeed()
        return True


class DestageModule:
    """Connects a CMB ring to the conventional side's flash."""

    def __init__(self, engine, cmb, scheduler, page_bytes,
                 lba_ring_start=0, lba_ring_blocks=4096,
                 latency_threshold_ns=50_000.0, max_outstanding_pages=32,
                 name="destage"):
        if lba_ring_blocks < 1:
            raise ValueError("destage ring needs at least one block")
        if max_outstanding_pages < 1:
            raise ValueError("need at least one outstanding destage page")
        self.engine = engine
        self.cmb = cmb
        self.scheduler = scheduler
        self.page_bytes = page_bytes
        self.lba_ring_start = lba_ring_start
        self.lba_ring_blocks = lba_ring_blocks
        self.latency_threshold_ns = latency_threshold_ns
        # Destaging pipelines across the flash array: up to this many page
        # programs in flight at once (the device's parallelism is what
        # lets the conventional side absorb the fast side's stream).
        self.max_outstanding_pages = max_outstanding_pages
        self.name = name
        # Pre-resolved tracing guard (the tracer is fixed per engine):
        # issue/completion run once per destaged page and should pay no
        # attribute chains when tracing is off.
        self._tracer = engine.tracer
        self._tracing = engine.tracer.enabled
        # Ring-of-LBAs state: sequence numbers count destaged pages forever;
        # the LBA is sequence % ring size.  head = oldest retained page.
        self.tail_sequence = 0  # next sequence to allocate
        self.durable_tail = 0  # sequences below this are readable on flash
        self.head_sequence = 0
        # Stream offset up to which data is safely on the conventional side.
        self.destaged_offset = 0
        self.pages_written = 0
        self.filler_bytes_total = 0
        # Out-of-order completion tracking (prefix rule, like the WAL's).
        self._outstanding = 0
        self._completed_pages = {}  # sequence -> DestagePage
        self._inflight = {}  # sequence -> WriteRequest (issued)
        # Pages taken from the ring whose backing-memory read is under
        # way, keyed by stream offset (so in stream order); no sequence yet.
        self._reading = {}
        # Tracing: open page-program spans keyed by sequence.
        self._trace_tokens = {}
        self._running = False
        # The change-driven loop (see ``_evaluate``).  Each start opens a
        # generation; an issue completing under an older one is ignored,
        # so a stop followed by a restart at one instant never leaves the
        # old loop issuing beside the new one.
        self._generation = 0
        # Hops from a wake to the next evaluation: 1 while waiting for news
        # alone, 2 while a partial page waits (the kick, then the race it
        # wins against the deadline), 0 while no wake is listened for.
        self._listening = 0
        # The hop toward the next evaluation, reused from hop to hop; a
        # fresh one takes over only while the last is queued or cancelled.
        self._hop = _Hop(engine)
        self._waiting_since = None  # when the waiting partial page started
        # The partial page's deadline timer, armed once: its float instant,
        # and — while it stands in for a timer re-armed later for the same
        # instant — the sequence mark where that re-arm would have been.
        self._expiry = None
        self._expiry_when = None
        self._expiry_mark = None
        cmb.watch_credit(self._wake)

    # -- lifecycle -----------------------------------------------------------------

    def start(self):
        if self._running:
            raise RuntimeError("destage module already started")
        self._running = True
        self._generation += 1
        self._waiting_since = None
        self._hop_to(self._evaluate)

    def stop(self):
        self._running = False
        self._generation += 1
        self._listening = 0
        self._hop.cancel()  # a no-op once the hop was dispatched
        self._disarm()

    def _wake(self, _value=None):
        """News: the credit advanced or a page program completed.

        Leads to an evaluation one hop from now while waiting for news
        alone, two hops from now while a partial page waits (see
        ``_evaluate``).
        """
        hops = self._listening
        if hops:
            self._listening = 0
            self._hop_to(self._evaluate if hops == 1 else self._second_hop)

    def _hop_to(self, callback):
        """Run ``callback`` one immediate-queue hop from now."""
        if not self._hop.queue(callback):
            self._hop = _Hop(self.engine)
            self._hop.queue(callback)

    def _second_hop(self, _event):
        """The first of two hops: evaluate one more hop from now.

        With nothing queued behind this hop, the second would be the run
        loop's very next dispatch, so evaluating here is the same schedule.
        """
        if self.engine.immediate_pending():
            self._hop_to(self._evaluate)
        else:
            self._evaluate()

    # -- the destage loop -----------------------------------------------------------

    def _evaluate(self, _event=None):
        """One pass of the destage loop: issue a page or wait for news.

        The loop waits for news on a kick and, while a partial page waits,
        on the race between a kick and its deadline.  It evaluates one hop
        after a kick that found it waiting for news alone, two hops after
        one that found a partial page waiting (the hop at which the race
        would resume it), and one hop after the deadline fires.  Every
        wake gets that evaluation; one that cannot complete a page costs
        no timer, no process resume and no new event: the one hop event
        is queued again, and the second hop is run in place whenever
        nothing is queued between the two (``_second_hop``).  The
        deadline timer is armed once per partial page and kept while a
        re-arm would land on the same float instant; a same-instant tie
        with other timers then resolves as the re-armed one would have
        (``Engine.defer_to_mark``).
        """
        self._listening = 0
        if self._outstanding >= self.max_outstanding_pages:
            self._disarm()
            self._listening = 1
            return
        available = self.cmb.ring.consumable_bytes()
        if 0 < available < self.page_bytes:
            now = self.engine.now
            if self._waiting_since is None:
                self._waiting_since = now
            deadline = self._waiting_since + self.latency_threshold_ns
            if now < deadline - MIN_WAIT_NS:
                self._arm(max(deadline - now, MIN_WAIT_NS))
                self._listening = 2
                return
        elif available == 0:
            self._waiting_since = None
            self._disarm()
            self._listening = 1
            return
        # A full page, or a partial one past its deadline (padded).
        self._disarm()
        self._waiting_since = None
        generation = self._generation
        self.engine.process(self._issue_page()).then(
            lambda event: self._issued(event, generation))

    def _issued(self, event, generation):
        event.value  # re-raise a failed issue
        if generation == self._generation:
            self._evaluate()

    def _arm(self, remaining):
        """Wait for the deadline ``remaining`` ns from now."""
        when = self.engine.now + remaining
        if self._expiry is not None and when == self._expiry_when:
            self._expiry_mark = self.engine.mark()
            return
        self._disarm()
        expiry = self._expiry = self.engine.timeout(remaining)
        expiry.then(self._on_expiry)
        self._expiry_when = when
        self._expiry_mark = None

    def _disarm(self):
        if self._expiry is not None:
            self._expiry.cancel()
            self._expiry = None

    def _on_expiry(self, expiry):
        if self._expiry_mark is None:
            self._expired(expiry)
        else:
            self.engine.defer_to_mark(self._expiry_mark,
                                      lambda: self._expired(expiry))

    def _expired(self, expiry):
        """The deadline won the race: evaluate one hop from now."""
        if expiry is not self._expiry:
            return  # stopped while a same-instant tie was resolving
        self._expiry = None
        # A kick earlier in this instant lost the race (a no-op when no
        # hop is queued).
        self._hop.cancel()
        self._listening = 0
        self._hop_to(self._evaluate)

    def _issue_page(self):
        """Bundle the ring's head into one page and launch its program.

        Only the backing-memory read is awaited here (it orders the
        pipeline); the flash program itself proceeds concurrently with
        further issues, up to ``max_outstanding_pages``.  While the read
        is under way the page waits in ``_reading``, where a power loss
        finds it: the crash path then destages it, and the program is not
        enqueued.
        """
        page = self._take_page()
        if page is None:
            return
        self._reading[page.stream_offset] = page
        # The storage controller reads the backing memory directly (the
        # second of the two data movements of Section 5.1); on a DRAM
        # CMB this read contends with regular buffering traffic.
        yield self.cmb.backing.read(page.data_bytes)
        if self._reading.pop(page.stream_offset, None) is not page:
            return  # destaged by the crash path during the read
        sequence, lba = self._allocate()
        self._outstanding += 1
        tracer = self._tracer
        if self._tracing:
            # One span per destaged page, issue -> program completion; the
            # flow id is the page's stream offset, tying it back to the
            # CMB intake spans of the chunks it bundles.
            self._trace_tokens[sequence] = tracer.begin(
                self.name, "page-program", flow=page.stream_offset,
                sequence=sequence, lba=lba, data_bytes=page.data_bytes,
                filler_bytes=page.filler_bytes,
            )
            tracer.counter(self.name, "outstanding", self._outstanding)
        # The PM ring space is reclaimable as soon as the page is issued:
        # the in-flight program is covered by reserve energy (the crash
        # path emergency-completes issued pages), so the bytes no longer
        # need their ring slot.  Decoupling space from program completion
        # is what lets destaging pipeline deeper than the small SRAM ring.
        self.cmb.ring.release(page.end_offset)
        self.cmb.ring_space_freed()
        request = self._inflight[sequence] = WriteRequest(
            source=Source.DESTAGE,
            lba=lba,
            payload=page,
            nbytes=self.page_bytes,  # a full flash page is programmed
        )
        done = self.scheduler.enqueue(request)
        done.then(lambda _event, s=sequence, p=page: self._on_programmed(s, p))

    def _take_page(self):
        """Take the ring's head as one page, or ``None`` if it is empty."""
        chunks = self.cmb.ring.consume(self.page_bytes)
        if not chunks:
            return None
        offset = chunks[0][0]
        last_offset, last_nbytes, _payload = chunks[-1]
        total = last_offset + last_nbytes - offset
        return DestagePage(offset, chunks, total,
                           max(0, self.page_bytes - total))

    def _allocate(self):
        """The next page's ``(sequence, lba)`` in the LBA ring.

        Called when the page's program is about to bind that LBA, so the
        oldest retained page leaves the ring (the head advances) only then.
        """
        sequence = self.tail_sequence
        self.tail_sequence += 1
        if self.tail_sequence - self.head_sequence > self.lba_ring_blocks:
            self.head_sequence = self.tail_sequence - self.lba_ring_blocks
        return sequence, self._lba(sequence)

    def _lba(self, sequence):
        return self.lba_ring_start + sequence % self.lba_ring_blocks

    def _publish(self, page):
        """``page`` joins the durable prefix (its space is already free)."""
        self.pages_written += 1
        self.filler_bytes_total += page.filler_bytes
        self.destaged_offset = page.end_offset

    def _on_programmed(self, sequence, page):
        """Apply completions in sequence order (prefix rule)."""
        self._outstanding -= 1
        self._inflight.pop(sequence, None)
        tracer = self._tracer
        if self._tracing:
            token = self._trace_tokens.pop(sequence, None)
            if token is not None:
                tracer.end(token)
            tracer.counter(self.name, "outstanding", self._outstanding)
        if sequence >= self.durable_tail:  # else the crash path settled it
            self._completed_pages[sequence] = page
        advanced = False
        while self.durable_tail in self._completed_pages:
            self._publish(self._completed_pages.pop(self.durable_tail))
            self.durable_tail += 1
            advanced = True
        if advanced and self._tracing:
            # The *publication* point: out-of-order completions only
            # become durable here, so this instant — not the program-done
            # span end — is the destage-ack transition checkers care
            # about.
            tracer.instant(self.name, "destage-ack",
                           flow=self.destaged_offset,
                           offset=self.destaged_offset,
                           tail=self.durable_tail)
        self._wake()

    @property
    def outstanding_pages(self):
        """Page programs issued to the scheduler but not yet completed."""
        return self._outstanding

    # -- crash path --------------------------------------------------------------------

    def destage_all_now(self):
        """Crash protocol: destage the full contiguous ring synchronously.

        Runs under reserve energy (Section 4.1, "Crash Consistency
        Behavior"): the device finishes destaging everything up to the
        first gap, then stops.  Returns the number of pages written.
        Simulation time does not advance — the host is already down; what
        matters is the post-reboot state.
        """
        pages_before = self.pages_written
        # First settle pages already issued, in sequence order: a completed
        # program has bound its LBA; an in-flight one is finished here
        # under reserve energy (its data would otherwise leave a hole in
        # the stream).  Its queued request is withdrawn, and a program
        # already under way binds nothing when it completes, so it cannot
        # rebind an LBA the crash path has since given a newer sequence.
        while (self.durable_tail in self._completed_pages
               or self.durable_tail in self._inflight):
            sequence = self.durable_tail
            page = self._completed_pages.pop(sequence, None)
            if page is None:
                request = self._inflight.pop(sequence)
                page = request.payload
                if self.scheduler.withdraw(request):
                    self._outstanding -= 1
                self._emergency_program(request.lba, page)
            self.durable_tail = sequence + 1
            self.cmb.ring.release(page.end_offset)
            self._publish(page)
        self._inflight.clear()
        self._completed_pages.clear()
        # Then, in stream order, the pages caught in their backing-memory
        # read and whatever contiguous data remains in the PM ring.
        for page in self._reading.values():
            self._emergency_destage(page)
        self._reading.clear()
        while self.cmb.ring.consumable_bytes() > 0:
            self._emergency_destage(self._take_page())
        # Anything beyond the first gap is lost (consistent with the
        # credit counter the host saw); the crash injector accounts for
        # the dropped chunks.
        return self.pages_written - pages_before

    def _emergency_destage(self, page):
        """Program a page no issued program covers, in the next sequence."""
        sequence, lba = self._allocate()
        self._emergency_program(lba, page)
        self.durable_tail = max(self.durable_tail, sequence + 1)
        self.cmb.ring.release(page.end_offset)
        self._publish(page)

    def _emergency_program(self, lba, page):
        """Zero-time program used only by the power-loss path; ``lba``
        then maps to ``page`` alone.

        Reserve energy powers a direct path that bypasses the scheduler.
        Writes to ``lba`` still under way bind nothing when they complete.
        A die that cannot program its next placement now (a program still
        in its data phase holds an earlier page of that block) is skipped:
        writing behind that page would break NAND's ascending program
        order.
        """
        ftl = self.scheduler.ftl
        channels = ftl.channels
        ftl.void_writes(lba)
        ftl.table.unbind(lba)

        def programmable(placement):
            channel_id, way, block, page_no = placement
            return channels[channel_id].die(way).can_program(block, page_no)

        channel_id, way, block, page_no = ftl.allocator.place(programmable)
        channels[channel_id].die(way).program_page(block, page_no, page,
                                                   self.page_bytes)
        ftl.table.bind(lba, PhysicalPageAddress(channel_id, way, block,
                                                page_no))

    # -- read path (for x_pread and secondaries) -----------------------------------------

    def read_page(self, sequence):
        """Read one destaged page by sequence number; returns an event.

        Raises ``IndexError`` for sequences outside [head, tail).
        """
        if not self.head_sequence <= sequence < self.durable_tail:
            raise IndexError(
                f"sequence {sequence} outside retained window "
                f"[{self.head_sequence}, {self.durable_tail})"
            )
        return self.scheduler.ftl.read(self._lba(sequence))
