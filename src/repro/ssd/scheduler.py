"""The storage-controller write scheduler and its priority modes.

The scheduler decides, whenever flash bandwidth frees up, whether the next
program comes from the *conventional* pool (data-buffer pages) or the
*destage* pool (CMB log pages).  Section 4.3 defines three modes:

* **Neutral** — divide writing opportunities equally (round-robin while
  both pools have work);
* **DestagePriority** — destage pages first; conventional pages ride only
  in the gaps;
* **ConventionalPriority** — the reverse: destage pages are opportunistic.

"Opportunistic" here means the low-priority pool is dispatched only when
the high-priority pool has nothing pending — the scheduler never preempts
an issued flash program (flash programs are not preemptible), which is why
the mode matters most under saturation (Fig. 12).
"""

import enum
from collections import deque
from dataclasses import dataclass, field
from itertools import count


_request_ids = count(1)


class SchedulingMode(enum.Enum):
    NEUTRAL = "neutral"
    DESTAGE_PRIORITY = "destage"
    CONVENTIONAL_PRIORITY = "conventional"


class Source(enum.Enum):
    CONVENTIONAL = "conventional"
    DESTAGE = "destage"


@dataclass
class WriteRequest:
    """One page's worth of data waiting for flash."""

    source: Source
    lba: int
    payload: object
    nbytes: int
    completion: object = None  # Event to succeed with the physical address
    request_id: int = field(default_factory=lambda: next(_request_ids))


class WriteScheduler:
    """Arbitrates flash writes between the conventional and destage pools.

    The scheduler runs ``parallelism`` dispatch workers (one per concurrent
    flash program the array can absorb: channels x ways) that pull
    requests according to the active mode and drive them through the FTL.
    Mode can be changed at runtime via an admin command.

    Workers are callback chains, not processes.  A busy worker is the
    callback on its FTL write; when the write completes it finishes its
    requests and looks for the next one.  An idle worker is only a count:
    the idle workers sleep on one shared wake event, which ``enqueue``
    triggers with the number of sleepers as its value, and the wake runs
    that many dispatch passes in sleeper order.  Once one pass finds no
    work the rest would too, so they go straight back to sleep without a
    pass each.  Every FTL write is issued at the same point of the
    same-instant order that a herd of worker processes woken by one event
    would issue it at.  Each ``start`` begins a new generation of
    workers; ``stop`` retires the current one, whose pending wakes and
    write completions then dispatch nothing.
    """

    def __init__(self, engine, ftl, mode=SchedulingMode.NEUTRAL,
                 name="scheduler"):
        self.engine = engine
        self.ftl = ftl
        self.mode = mode
        self.name = name
        geometry = ftl.geometry
        self.parallelism = geometry.channels * geometry.ways_per_channel
        self._pools = {
            Source.CONVENTIONAL: deque(),
            Source.DESTAGE: deque(),
        }
        # The idle workers' wake event and how many sleep on it; the count
        # becomes the event's value when ``_signal`` triggers it.
        self._wake = engine.event()
        self._sleepers = 0
        self._running = False
        # Bumped by every ``start``: wakes and write completions of an
        # older start's workers dispatch nothing, so a stop + start
        # retires the old workers instead of adding ``parallelism`` more.
        self._generation = 0
        self.dispatched = {Source.CONVENTIONAL: 0, Source.DESTAGE: 0}
        self.bytes_written = {Source.CONVENTIONAL: 0, Source.DESTAGE: 0}
        self.striped_dispatches = 0

    # -- QoS ----------------------------------------------------------------------

    @property
    def qos(self):
        """The :class:`~repro.nand.dies.DieQos` shared with the channels."""
        return self.ftl.qos

    # -- intake -------------------------------------------------------------------

    def enqueue(self, request):
        """Queue ``request``; returns an event firing at program completion."""
        if request.completion is None:
            request.completion = self.engine.event()
        tracer = self.engine.tracer
        if tracer.enabled:
            # Span covers queue wait + flash program; destage payloads
            # carry a stream offset that becomes the causality flow id.
            request.trace_token = tracer.begin(
                self.name, f"{request.source.value}-write",
                flow=getattr(request.payload, "stream_offset", None),
                lba=request.lba, nbytes=request.nbytes,
            )
            tracer.counter(self.name, f"pending:{request.source.value}",
                           len(self._pools[request.source]) + 1)
        self._pools[request.source].append(request)
        self._signal()
        return request.completion

    def withdraw(self, request):
        """Take ``request`` back while it is still queued; returns False
        once it was dispatched.  A withdrawn request's completion never
        fires."""
        try:
            self._pools[request.source].remove(request)
        except ValueError:
            return False
        token = getattr(request, "trace_token", None)
        if token is not None:
            self.engine.tracer.end(token, withdrawn=True)
        return True

    def submit(self, source, lba, payload, nbytes):
        """Convenience: build and enqueue a request."""
        return self.enqueue(
            WriteRequest(source=source, lba=lba, payload=payload,
                         nbytes=nbytes)
        )

    def _signal(self):
        wake = self._wake
        if not wake.triggered:
            wake.succeed(self._sleepers)
            self._sleepers = 0

    # -- policy --------------------------------------------------------------------

    def _pick_source(self):
        """Choose which pool feeds the next free flash slot, or None."""
        conventional = self._pools[Source.CONVENTIONAL]
        destage = self._pools[Source.DESTAGE]
        if not conventional and not destage:
            return None
        if not conventional:
            return Source.DESTAGE
        if not destage:
            return Source.CONVENTIONAL
        if self.mode is SchedulingMode.DESTAGE_PRIORITY:
            return Source.DESTAGE
        if self.mode is SchedulingMode.CONVENTIONAL_PRIORITY:
            return Source.CONVENTIONAL
        # Neutral: a traditional device has one mixed queue — serve in
        # arrival order, which degrades both streams proportionally to
        # their offered load under saturation (the Fig. 12 left shape).
        if conventional[0].request_id <= destage[0].request_id:
            return Source.CONVENTIONAL
        return Source.DESTAGE

    def pending(self, source):
        return len(self._pools[source])

    # -- dispatch ------------------------------------------------------------------

    def start(self):
        """Launch the dispatch workers: each makes its first pass after
        the events already due at this instant."""
        if self._running:
            raise RuntimeError("scheduler already started")
        self._running = True
        self._generation += 1
        self.engine.event().succeed(self.parallelism).then(
            self._waker(self._generation))

    def stop(self):
        self._running = False
        self._signal()

    def _waker(self, generation):
        """The wake callback of ``generation``'s workers."""
        return lambda wake: self._on_wake(wake, generation)

    def _on_wake(self, wake, generation):
        """Run one dispatch pass for each worker ``wake`` woke."""
        if generation != self._generation:
            return  # workers of a stopped start: retired
        woken = wake.value
        while woken:
            woken -= 1
            if not self._dispatch():
                self._sleep(woken)
                return

    def _sleep(self, workers):
        """Put ``workers`` idle workers to sleep until the next enqueue."""
        if not workers:
            return
        wake = self._wake
        if wake.triggered:
            wake = self._wake = self.engine.event()
        if not self._sleepers:
            wake.then(self._waker(self._generation))
        self._sleepers += workers

    def _dispatch(self):
        """One worker's pass: issue the next write.  Returns False when
        the worker found no work and went to sleep; a stopped scheduler's
        worker just ends."""
        while self._running:
            source = self._pick_source()
            if source is None:
                self._sleep(1)
                return False
            pool = self._pools[source]
            batch = [pool.popleft()]
            if self.qos.multi_plane_writes:
                # Same-source requests ride one multi-plane program when
                # the allocator has an aligned stripe open.
                planes = self.ftl.geometry.planes_per_die
                while pool and len(batch) < planes:
                    batch.append(pool.popleft())
            tokens = [getattr(r, "trace_token", None) for r in batch]
            try:
                if len(batch) > 1:
                    written = self.ftl.write_striped(
                        [(r.lba, r.payload, r.nbytes) for r in batch],
                        op_class=source.value,
                    )
                else:
                    written = self.ftl.write(
                        batch[0].lba, batch[0].payload, batch[0].nbytes,
                        op_class=source.value,
                    )
            except Exception as error:  # modeled fault -> propagate to waiters
                self._failed(batch, tokens, error)
                continue
            generation = self._generation
            written.then(lambda event: self._written(
                event, source, batch, tokens, generation))
            return True
        return True

    def _written(self, event, source, batch, tokens, generation):
        """A worker's FTL write finished: complete its requests, go on
        (unless a restart retired the worker meanwhile)."""
        try:
            written = event.value
        except Exception as error:  # modeled fault -> propagate to waiters
            self._failed(batch, tokens, error)
        else:
            if len(batch) > 1:
                addresses = written
                self.striped_dispatches += 1
            else:
                addresses = [written]
            tracer = self.engine.tracer
            for request, token, address in zip(batch, tokens, addresses):
                self.dispatched[source] += 1
                self.bytes_written[source] += request.nbytes
                if tracer.enabled and token is not None:
                    tracer.end(token)
                request.completion.succeed(address)
        if generation == self._generation:
            self._dispatch()

    def _failed(self, batch, tokens, error):
        tracer = self.engine.tracer
        for request, token in zip(batch, tokens):
            if tracer.enabled and token is not None:
                tracer.end(token, failed=type(error).__name__)
            request.completion.fail(error)
