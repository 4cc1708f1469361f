"""Drop-in replacements for pwrite/fsync/pread against a Villars device.

These calls are *not* system calls: they run in user space over MMIO, so
they skip the context-switch penalty the kernel path pays (Section 5.1).
They block cooperatively on the device's credit counter instead — the
back-pressure protocol of Fig. 8:

* ``x_pwrite`` copies the buffer into CMB in chunks, spending the whole
  credit budget before pausing to re-read the counter (the strategy the
  paper found fastest);
* ``x_fsync`` waits until the counter covers every byte this file wrote —
  under a replication policy, that means persisted on the secondaries too;
* ``x_pread`` implements tail-read semantics over the destage ring on the
  conventional side (the secondary-server read path).

All methods return simulation events (they are "blocking" from the
calling process's perspective: ``yield`` them).
"""

from repro.health.errors import CreditStarvation
from repro.sim.units import KIB

# How many bytes one iteration of the copy loop moves at most.  Matching
# the WC buffer gives the best TLP efficiency (Fig. 10: 64 B is optimal).
DEFAULT_COPY_CHUNK = 64


class ReplicationStalled(Exception):
    """x_fsync detected a stale replication path (Section 7.1).

    Raised instead of spinning forever on a credit counter that cannot
    advance because a secondary stopped confirming.  The database should
    reconfigure the transport (drop or replace the peer) and retry.
    """


class XssdLogFile:
    """A host handle to one Villars device's fast side.

    Tracks the written-stream offset and the last credit value seen, which
    together implement the advisory flow-control protocol: never have more
    than ``queue_bytes`` outstanding beyond the last observed credit.
    """

    def __init__(self, device, copy_chunk=DEFAULT_COPY_CHUNK,
                 admission=None, writer_id=None,
                 starvation_deadline_ns=None):
        if copy_chunk <= 0:
            raise ValueError("copy chunk must be positive")
        if starvation_deadline_ns is not None and starvation_deadline_ns <= 0:
            raise ValueError("starvation deadline must be positive")
        self.device = device
        self.engine = device.engine
        self.copy_chunk = copy_chunk
        # Overload protection (optional): an AdmissionController consulted
        # before any stream bytes are claimed, and a bound on how long a
        # call may sit credit-starved before failing with a typed error
        # instead of hanging.  None keeps the classic advisory protocol.
        self.admission = admission
        self.writer_id = writer_id if writer_id is not None else id(self)
        self.starvation_deadline_ns = starvation_deadline_ns
        if admission is not None:
            admission.register_writer(self.writer_id)
        self.written = 0  # bytes issued through THIS handle
        self.high_water = 0  # highest stream offset this handle covered
        self.last_credit = 0  # last counter value read from the device
        self.credit_checks = 0
        # Tail-read cursor for x_pread.
        self._read_sequence = 0

    # -- x_pwrite -------------------------------------------------------------------

    def x_pwrite(self, payload, nbytes):
        """Append ``nbytes`` (identity ``payload``) to the log.

        Event fires when every byte has been issued to the device (not
        necessarily persisted — that is ``x_fsync``'s job).  The call
        blocks whenever the credit budget runs out, re-reading the counter
        as Fig. 8 (top) describes.
        """
        if nbytes <= 0:
            raise ValueError("x_pwrite needs a positive size")
        if self.admission is not None:
            # Synchronous: a rejection raises DeviceBusy before any stream
            # range is claimed, so a rejected write leaves no gap.
            self.admission.admit(self.writer_id, nbytes)
        return self.engine.process(
            self._pwrite_proc(payload, nbytes), name="x_pwrite"
        )

    def _pwrite_proc(self, payload, nbytes):
        try:
            result = yield from self._pwrite_inner(payload, nbytes)
        finally:
            if self.admission is not None:
                self.admission.release(self.writer_id, nbytes)
        return result

    def _pwrite_inner(self, payload, nbytes):
        device = self.device
        queue_bytes = device.config.cmb_queue_bytes
        # Bound once: the copy loop below runs once per 64 B chunk.
        copy_chunk = self.copy_chunk
        claim_stream_range = device.claim_stream_range
        fast_write = device.fast_write
        remaining = nbytes
        cursor = 0
        tracer = self.engine.tracer
        token = None
        if tracer.enabled:
            # The flow id is filled in with the first claimed stream
            # offset, which is where the host's span links up with the
            # CMB intake spans for the same bytes.
            token = tracer.begin(f"host:{self.device.name}", "x_pwrite",
                                 nbytes=nbytes)
        stalled_since = None
        while remaining > 0:
            # The flow-control budget is device-global: the queue absorbs
            # bytes from every writer sharing the stream.
            outstanding = self.device.stream_claimed - self.last_credit
            budget = queue_bytes - outstanding
            if budget <= 0:
                # Out of credits: pause and re-read the counter (one MMIO
                # round trip), per the protocol.
                if token is not None:
                    tracer.instant(f"host:{self.device.name}",
                                   "credit-stall", outstanding=outstanding)
                if stalled_since is None:
                    stalled_since = self.engine.now
                elif (self.starvation_deadline_ns is not None
                      and self.engine.now - stalled_since
                      > self.starvation_deadline_ns):
                    if token is not None:
                        tracer.end(token, starved=True)
                    raise CreditStarvation(
                        f"x_pwrite starved for "
                        f"{self.engine.now - stalled_since:.0f} ns at "
                        f"credit {self.last_credit}",
                        stalled_for_ns=self.engine.now - stalled_since,
                        credit=self.last_credit,
                        target=self.device.stream_claimed,
                    )
                self.last_credit = yield self.device.read_credit()
                self.credit_checks += 1
                continue
            stalled_since = None
            # Spend the whole budget without intermediate checks.
            burst = min(budget, remaining)
            while burst > 0:
                step = min(copy_chunk, burst)
                chunk_payload = (payload, cursor, step)
                # Claim the stream offset *before* yielding: concurrent
                # pwrites (the pipelined flusher runs several) must never
                # allocate overlapping ranges.
                offset = claim_stream_range(step)
                if token is not None and token.flow is None:
                    tracer.set_flow(token, offset)
                self.written += step
                self.high_water = max(self.high_water, offset + step)
                cursor += step
                burst -= step
                remaining -= step
                yield fast_write(offset, step, chunk_payload)
        yield self.device.fast_fence()
        if token is not None:
            tracer.end(token, credit_checks=self.credit_checks)
        return nbytes

    # -- x_fsync ----------------------------------------------------------------------

    def x_fsync(self, check_transport_status=True, deadline_ns=None):
        """Block until everything written so far is persisted (Fig. 8 bottom).

        Under a replication policy the counter the device returns already
        reflects the secondaries, so the same loop implements replicated
        durability.  When ``check_transport_status`` is on, a counter
        that stops moving triggers a read of the transport's status
        register; a ``"stale"`` status raises :class:`ReplicationStalled`
        instead of spinning forever (the Section 7.1 error path).

        ``deadline_ns`` (defaulting to the handle's starvation deadline)
        bounds the whole wait: a counter that has not covered the target
        by then raises :class:`~repro.health.errors.CreditStarvation` —
        a typed error the caller can retry, never a silent hang.
        """
        if deadline_ns is None:
            deadline_ns = self.starvation_deadline_ns
        return self.engine.process(
            self._fsync_proc(check_transport_status, deadline_ns),
            name="x_fsync",
        )

    def _fsync_proc(self, check_transport_status, deadline_ns):
        target = self.high_water
        started = self.engine.now
        stagnant_reads = 0
        tracer = self.engine.tracer
        token = None
        if tracer.enabled:
            # Flow id = the stream offset durability must reach, tying the
            # wait to the last chunk it is waiting for.
            token = tracer.begin(f"host:{self.device.name}", "x_fsync",
                                 flow=target, target=target)
        while self.last_credit < target:
            if (deadline_ns is not None
                    and self.engine.now - started > deadline_ns):
                if token is not None:
                    tracer.end(token, starved=True)
                raise CreditStarvation(
                    f"x_fsync starved for {self.engine.now - started:.0f} "
                    f"ns; credit {self.last_credit} of {target}",
                    stalled_for_ns=self.engine.now - started,
                    credit=self.last_credit, target=target,
                )
            previous = self.last_credit
            self.last_credit = yield self.device.read_credit()
            self.credit_checks += 1
            if not check_transport_status:
                continue
            if self.last_credit == previous:
                stagnant_reads += 1
                # Don't hammer the counter while it's flat; give the
                # device time to make progress between polls.
                yield self.engine.timeout(2_000.0)
                if stagnant_reads % 16 == 0:
                    status = self.device.transport.status_register
                    if status == "stale":
                        if token is not None:
                            tracer.end(token, stalled=True)
                        raise ReplicationStalled(
                            f"credit stuck at {self.last_credit} of "
                            f"{target}; transport reports {status!r}"
                        )
            else:
                stagnant_reads = 0
        if token is not None:
            tracer.end(token, credit=self.last_credit)
        return self.last_credit

    # -- x_pread -----------------------------------------------------------------------

    def x_pread(self, min_bytes=1):
        """Tail-read the next destaged data from the conventional side.

        Event value is a list of destaged pages (each carrying its chunk
        list).  Blocks until at least ``min_bytes`` of *new* destaged data
        exist past the cursor.  A fresh handle starts at the ring's head
        (the oldest retained page).
        """
        return self.engine.process(
            self._pread_proc(min_bytes), name="x_pread"
        )

    def _pread_proc(self, min_bytes):
        destage = self.device.destage
        self._read_sequence = max(self._read_sequence, destage.head_sequence)
        page_bytes = destage.page_bytes
        needed_pages = max(1, -(-min_bytes // page_bytes))
        tracer = self.engine.tracer
        token = None
        if tracer.enabled:
            token = tracer.begin(f"host:{self.device.name}", "x_pread",
                                 min_bytes=min_bytes)
        while destage.durable_tail - self._read_sequence < needed_pages:
            yield self.engine.timeout(10_000.0)  # destage progress poll
        pages = []
        while self._read_sequence < destage.durable_tail:
            page = yield destage.read_page(self._read_sequence)
            pages.append(page)
            self._read_sequence += 1
        if token is not None:
            tracer.end(token, pages=len(pages))
        return pages

    # -- diagnostics --------------------------------------------------------------------

    @property
    def read_sequence(self):
        """The next destage page ``x_pread`` will return."""
        return self._read_sequence

    @property
    def unacknowledged_bytes(self):
        """Bytes written but not yet covered by the last credit read."""
        return max(0, self.high_water - self.last_credit)
