"""The CMB module: the fast side's intake pipeline and credit counter.

Data path (Fig. 5 of the paper):

1. TLPs arriving from the PCIe system carry store contributions;
2. each contribution enters an SRAM intake **queue** whose size was
   pre-negotiated with the database — this size is the flow-control
   budget;
3. each queued chunk moves into the **backing memory** (SRAM or DRAM,
   see :mod:`repro.pm.backing`), paying its port bandwidth;
4. once a chunk reaches backing memory — never before — the **credit
   counter** advances, but only over *contiguous* stream bytes (the gap
   rule);
5. the host polls the counter over the control MMIO interface.

Writes are persistent once in backing memory (Section 4.1, "we offer the
following semantics").  The Transport module, when active, taps the intake
stream to mirror it to secondaries.
"""

from collections import deque

from repro.core.ring import RingOverflowError, SequencedRing
from repro.sim.resources import Container
from repro.sim.stats import Counter


class CmbModule:
    """The byte-addressable fast side of one X-SSD device."""

    def __init__(self, engine, backing, queue_bytes, name="cmb",
                 intake_bound_bytes=None):
        if queue_bytes <= 0:
            raise ValueError("intake queue size must be positive")
        if intake_bound_bytes is not None and intake_bound_bytes <= 0:
            raise ValueError("intake bound must be positive when set")
        self.engine = engine
        self.backing = backing
        self.queue_bytes = queue_bytes
        self.name = name
        # Overload protection: ``queue_bytes`` caps SRAM *occupancy*, but
        # chunks waiting for queue space pile up without limit.  The
        # intake bound caps that whole accepted-but-unpersisted backlog;
        # a chunk arriving past the bound is shed (posted MMIO writes
        # cannot be nacked) and its range stays missing until re-shipped,
        # exactly like a dropped TLP.  None = unbounded (the default).
        self.intake_bound_bytes = intake_bound_bytes
        self.intake_backlog_bytes = 0
        self.intake_backlog_peak = 0
        self.chunks_shed = 0
        self.bytes_shed = 0
        self.ring = SequencedRing(capacity=backing.capacity)
        self.credit = Counter(engine, name=f"{name}.credit")
        # Intake queue: a byte-space accountant.  A chunk that finds space
        # (and nobody queued ahead of it) takes it on arrival; the rest
        # wait in the container's FIFO.
        self._queue_space = Container(engine, capacity=queue_bytes,
                                      init=queue_bytes)
        # Chunks holding queue space that cannot move to PM yet, in
        # arrival order: the PM ring's window is full, or the module is
        # stopped.  ``ring_space_freed`` and ``start`` move them on.
        self._stalled = deque()
        self._intake_taps = []
        self._credit_watchers = []
        # Tracing: open intake spans keyed by stream offset (one span
        # covers a chunk's life from PCIe arrival to persistence).
        self._trace_tokens = {}
        # Chunks whose PM write is in flight (issued, not yet applied).
        # They still occupy SRAM queue slots until the write completes,
        # and the crash path can salvage them (reserve energy finishes
        # the moves).  Completions apply strictly in FIFO order because
        # they share one port.
        self._persisting = []
        self._running = False
        self.bytes_received = 0
        self.chunks_received = 0
        # Torn-write injection: when armed, the next arriving chunk loses
        # its tail on the wire (a WC buffer that flushed partially, a host
        # that died mid-store).  The missing bytes leave a gap the credit
        # counter can never cross until the range is re-shipped.
        self._torn_armed = 0
        self.torn_writes = 0
        # Chunks whose stream range conflicted with already-received data
        # (a retransmission racing the original over a slow link).  The
        # device discards them instead of crashing: the ring's strict
        # protocol check stays intact for genuine violations, while the
        # replication path tolerates duplicate delivery.
        self.chunks_discarded = 0

    # -- wiring -------------------------------------------------------------------

    def start(self):
        """Open the path from the intake queue to PM.

        On a restart, chunks that queued while the module was stopped
        move on now, in arrival order, as far as the PM ring has room.
        """
        if self._running:
            raise RuntimeError("CMB module already started")
        self._running = True
        self.ring_space_freed()

    def stop(self):
        """Close the path to PM; arriving chunks queue until ``start``.

        PM writes already issued still complete.
        """
        self._running = False

    def tap_intake(self, callback):
        """Register ``callback(offset, nbytes, payload)`` on every arrival.

        The Transport module mirrors the write stream through this tap —
        the mirroring point is the CMB intake, per Fig. 6 step (1).
        """
        self._intake_taps.append(callback)

    def watch_credit(self, callback):
        """Register ``callback(value)`` fired when the credit advances."""
        self._credit_watchers.append(callback)

    def arm_torn_write(self, count=1):
        """Truncate the next ``count`` arriving chunks to half their bytes."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._torn_armed += count

    # -- device-side intake ----------------------------------------------------------

    def receive(self, offset, nbytes, payload=None):
        """Accept a write chunk arriving via PCIe; returns an enqueue event.

        The event fires when the chunk has entered the intake queue (space
        permitting).  A chunk that finds space and nobody queued ahead of
        it enters at once and its PM write is issued at the arrival
        instant; one that must wait for space moves on when the space is
        granted.  The host learns about persistence from the credit
        counter.
        """
        if nbytes <= 0:
            raise ValueError("chunks must carry at least one byte")
        tracer = self.engine.tracer
        if self._torn_armed and nbytes > 1:
            self._torn_armed -= 1
            self.torn_writes += 1
            nbytes = nbytes // 2  # the tail never arrived
            if tracer.enabled:
                tracer.instant(self.name, "torn-write", flow=offset,
                               nbytes=nbytes)
        if (self.intake_bound_bytes is not None
                and self.intake_backlog_bytes + nbytes
                > self.intake_bound_bytes):
            # Shed before any accounting or taps: a shed chunk was never
            # received, so it is neither mirrored nor recorded — its
            # stream range is simply missing, like a drop on the wire.
            self.chunks_shed += 1
            self.bytes_shed += nbytes
            if tracer.enabled:
                tracer.instant(self.name, "intake-shed", flow=offset,
                               nbytes=nbytes,
                               backlog=self.intake_backlog_bytes)
            return self.engine.timeout(0.0)
        self.intake_backlog_bytes += nbytes
        self.intake_backlog_peak = max(self.intake_backlog_peak,
                                       self.intake_backlog_bytes)
        self.bytes_received += nbytes
        self.chunks_received += 1
        if tracer.enabled:
            # One span per chunk: arrival on the wire -> persisted in PM.
            # A retransmission reuses the offset; the superseded span
            # stays open in the trace, which is exactly what happened.
            self._trace_tokens[offset] = tracer.begin(
                self.name, "intake", flow=offset, nbytes=nbytes,
            )
        for tap in self._intake_taps:
            tap(offset, nbytes, payload)
        chunk = (offset, nbytes, payload)
        if self._queue_space.try_get(nbytes):
            self._enqueued(chunk)
            return self.engine.timeout(0.0)
        granted = self._queue_space.get(nbytes)
        granted.then(lambda _event: self._enqueued(chunk))
        return granted

    def receive_tlp(self, tlp):
        """Adapter: unpack an MMIO TLP's contributions into :meth:`receive`.

        Contributions are ``(stream_offset, nbytes, payload)`` triples the
        host API attached in ``tlp.metadata`` (the simulator's stand-in for
        inferring stream position from the write address).
        """
        contributions = tlp.metadata.get("contributions")
        if contributions is None:
            # Raw traffic from a non-streamed source: treat the wire
            # address as the stream offset (first-lap semantics).
            contributions = [(tlp.address, tlp.payload, None)]
        last = None
        for offset, nbytes, payload in contributions:
            last = self.receive(offset, nbytes, payload)
        if last is None:
            # Carrier TLP with no logical data attached.
            last = self.engine.timeout(0.0)
        return last

    # -- queue -> backing memory ----------------------------------------------------

    def _enqueued(self, chunk):
        """``chunk`` holds its queue space: write it to PM, or stall."""
        ring = self.ring
        if (self._stalled or not self._running
                or chunk[0] + chunk[1] > ring.released + ring.capacity):
            # Stall while the PM ring's window is full: space frees as the
            # destage module moves the head to flash.  The stall holds the
            # intake queue occupied, which is exactly how back-pressure
            # propagates to the host's credit budget.
            self._stalled.append(chunk)
            return
        self._persist(chunk)

    def _persist(self, chunk):
        # Writes pipeline on the backing port (its bandwidth serializes
        # them; per-access latency overlaps), completing in FIFO order.
        self._persisting.append(chunk)
        self.backing.write(chunk[1]).then(self._on_persisted)

    def ring_space_freed(self):
        """Destage notification: the PM ring released some space.

        Stalled chunks move on in arrival order, as far as the window now
        reaches.
        """
        stalled = self._stalled
        ring = self.ring
        while (stalled and self._running
               and stalled[0][0] + stalled[0][1]
               <= ring.released + ring.capacity):
            self._persist(stalled.popleft())

    def _on_persisted(self, _event):
        if not self._persisting:
            return  # a crash already salvaged the pipeline
        offset, nbytes, payload = self._persisting.pop(0)
        self.intake_backlog_bytes = max(0, self.intake_backlog_bytes - nbytes)
        self._queue_space.put(nbytes)
        tracer = self.engine.tracer
        token = self._trace_tokens.pop(offset, None)
        try:
            advanced = self.ring.write(offset, nbytes, payload)
        except RingOverflowError:
            self.chunks_discarded += 1
            if tracer.enabled:
                tracer.instant(self.name, "chunk-discarded", flow=offset,
                               nbytes=nbytes)
                if token is not None:
                    tracer.end(token, discarded=True)
            return
        if tracer.enabled and token is not None:
            tracer.end(token, advanced=advanced)
        if advanced:
            value = self.credit.advance(advanced)
            if tracer.enabled:
                tracer.counter(self.name, "credit", value)
            for watcher in self._credit_watchers:
                watcher(value)

    # -- control interface --------------------------------------------------------------

    def read_credit(self):
        """The counter value as the control interface returns it (instant).

        The *latency* of polling is paid by the caller through the MMIO
        ``load`` on the control region; this accessor is the device-side
        register read.
        """
        return self.credit.value

    @property
    def in_flight_bytes(self):
        """Bytes received but not yet persisted (queue + gaps)."""
        return self.bytes_received - self.credit.value

    @property
    def queue_free_bytes(self):
        """Free space left in the SRAM intake queue (flow-control head-room)."""
        return self._queue_space.level

    def drain_pending_to_backing(self):
        """Synchronously flush queue contents into the ring (crash path).

        Used by the power-loss protocol: reserve energy lets the device
        finish moving the intake queue into PM without simulation time
        (the supercapacitor budget is modeled in
        :mod:`repro.core.crash`).  Returns the bytes made contiguous.
        """
        advanced = 0
        salvaged = self._persisting + list(self._stalled)
        self._persisting = []
        self._stalled.clear()
        for offset, nbytes, payload in salvaged:
            try:
                advanced += self.ring.write(offset, nbytes, payload)
            except RingOverflowError:
                self.chunks_discarded += 1
        self.intake_backlog_bytes = 0
        if advanced:
            self.credit.advance(advanced)
        return advanced
