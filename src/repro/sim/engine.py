"""The discrete-event engine: clock, instant-keyed timer queue, processes.

The programming model follows the classic process-interaction style.  A
*process* is a generator that yields :class:`Event` objects; the engine
suspends the generator until the event triggers, then resumes it with the
event's value.  Example::

    def writer(engine, device):
        yield engine.timeout(100.0)           # wait 100 ns
        done = device.write(b"log record")    # returns an Event
        yield done                            # wait for the device
        print("persisted at", engine.now)

    engine = Engine()
    engine.process(writer(engine, device))
    engine.run()

Scheduling is two-tier.  Events triggered at the *current* instant — by
``succeed()``/``fail()``, process resumes, and zero-delay timeouts — go on a
plain FIFO deque (the *immediate queue*) and never touch the timer
structures; only future-dated timeouts pay for time ordering.  Same-instant
triggers dominate real workloads (every device completion fans out through
chains of them), so this keeps the hot path at deque-append/popleft cost.

Future timeouts live in an **instant-keyed timer queue**: a ``heapq`` of
distinct float instants plus a dict mapping each instant to the FIFO list
of ``(seq, event)`` entries due then.  A timer for an instant that already
has entries is one dict lookup and a list append; only the first timer of
an instant pushes onto the heap, and the heap compares bare floats.  The
run loop pops one instant, takes its list out of the dict and fires the
whole list in one sweep — which is what amortizes per-event scheduling for
NAND-channel and transport completions that land on the same instant.
:meth:`Engine.at` goes one step further: completions targeting the same
instant share one event — one entry and one dispatch, however many waiters
pile on — which is how the NAND channel's cell timers and the transport's
aligned reporter periods batch.

Determinism contract (chaos and checker replays depend on it, byte for
byte):

* Same-instant events fire in strict FIFO trigger order.  The immediate
  deque preserves it directly; timer entries carry a monotonically
  increasing sequence number and join their instant's list in sequence
  order, so ties break on schedule order exactly as a global
  ``(when, seq)`` heap would.
* A timer whose time equals the current instant was necessarily scheduled
  at an *earlier* instant, so it fires before anything in the immediate
  queue (the run loop sweeps the instant's whole list before returning to
  immediates).
* Firing times are the exact float ``when`` the timeout was scheduled for.
* An instant whose entries are all cancelled never moves the clock.

Timeout cancellation is lazy: :meth:`Event.cancel` marks the event and the
run loop discards it at drain time, so losing a timeout-vs-completion race
costs O(1).  To keep the WAL group-commit idiom (schedule + cancel nearly
every timer) from accumulating garbage, the engine counts cancelled
residents and opportunistically compacts the timer queue when more than
half of the outstanding timers are dead.
"""

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (not for modeled faults)."""


class NullTracer:
    """The disabled-observability default: every hook is a no-op.

    Model code calls ``engine.tracer.begin(...)`` & friends unconditionally
    (or, on per-chunk hot paths, behind an ``if tracer.enabled`` guard);
    with this object installed the cost is one attribute load and — at
    most — one empty method call, so simulations without tracing pay
    essentially nothing.  The real recorder lives in :mod:`repro.obs`;
    keeping the null object here means the kernel never imports it.
    """

    enabled = False
    __slots__ = ()

    def begin(self, track, name, flow=None, **args):
        return None

    def end(self, token, **args):
        pass

    def set_flow(self, token, flow):
        pass

    def instant(self, track, name, flow=None, **args):
        pass

    def counter(self, track, name, value):
        pass


NULL_TRACER = NullTracer()

# Process-wide tracer factory: when installed (see ``repro.obs.capture``),
# every Engine constructed afterwards gets ``factory(engine)`` as its
# tracer — which is how ``--trace`` reaches engines that benchmarks build
# internally.  ``None`` means every new engine gets the shared NULL_TRACER.
_tracer_factory = None


def set_tracer_factory(factory):
    """Install (or, with ``None``, remove) the process-wide tracer factory."""
    global _tracer_factory
    _tracer_factory = factory


# Compaction trigger: rebuild once this many cancelled timers are resident
# AND they outnumber the live ones (>50%).
_COMPACT_MIN_CANCELLED = 128


class Event:
    """A one-shot occurrence that processes can wait on.

    An event goes through at most one transition: *pending* -> *triggered*.
    Once triggered it carries a ``value`` (or an exception to re-raise in
    waiters) and invokes its callbacks in registration order.
    """

    __slots__ = (
        "engine",
        "callbacks",
        "_value",
        "_exception",
        "triggered",
        "_processed",
        "_cancelled",
        "_defused",
    )

    def __init__(self, engine):
        self.engine = engine
        self.callbacks = []
        self._value = None
        self._exception = None
        self.triggered = False
        # True once the engine has popped the event and run its callbacks;
        # a `then()` registered after that point runs at the current instant.
        self._processed = False
        # Lazily-cancelled events are discarded at drain time instead of
        # being dug out of the queues.
        self._cancelled = False
        # A defused event's failure no longer counts as unhandled (set on
        # the losers of an AnyOf race when their waiter detaches).
        self._defused = False

    @property
    def value(self):
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value=None):
        """Trigger the event immediately with ``value``.

        On a cancelled event this is a no-op, so the losing side of a
        cancellation race does not need its own guard.
        """
        if self._cancelled:
            return self
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self._value = value
        self.engine._immediate.append(self)
        return self

    def fail(self, exception):
        """Trigger the event with an exception to re-raise in waiters."""
        if self._cancelled:
            return self
        if self.triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self.triggered = True
        self._exception = exception
        self.engine._immediate.append(self)
        return self

    def cancel(self):
        """Withdraw the event: its callbacks will never run.

        Pending events stop accepting ``succeed()``/``fail()``; already
        triggered but not yet processed events are dropped lazily when the
        run loop reaches them (a cancelled timeout costs O(1), no queue
        surgery).  Cancelling an already-processed event is a no-op.  The
        caller is responsible for not leaving a process waiting forever on
        a cancelled event — cancel only events whose outcome nobody awaits
        anymore, e.g. the loser of a timeout-vs-completion race.
        """
        if self._processed:
            return self
        self._cancelled = True
        self.callbacks.clear()
        return self

    @property
    def cancelled(self):
        return self._cancelled

    def then(self, callback):
        """Register ``callback(event)`` to run when the event triggers."""
        if self._cancelled:
            return self
        if self._processed:
            # Callbacks already ran: run this one at the current instant via
            # the immediate queue so ordering relative to same-time
            # callbacks stays FIFO.
            holder = Event(self.engine)
            holder.callbacks.append(lambda _ev: callback(self))
            holder.succeed()
        else:
            self.callbacks.append(callback)
        return self


class Timeout(Event):
    """An event that triggers ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine, delay, value=None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        # Inlined Event.__init__: timeouts are the single hottest allocation
        # in timer-bound workloads and the super() call is measurable.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._exception = None
        self.triggered = True
        self._processed = False
        self._cancelled = False
        self._defused = False
        self.delay = delay
        if delay == 0:
            # Zero-delay timeouts fire at the current instant: fast path.
            engine._immediate.append(self)
            return
        engine._push_at(engine.now + delay, self)

    def cancel(self):
        if not self._cancelled and not self._processed and self.delay != 0:
            self._cancelled = True
            self.callbacks.clear()
            engine = self.engine
            cancelled = engine._cancelled_pending + 1
            engine._cancelled_pending = cancelled
            if cancelled >= engine._compact_check:
                engine._maybe_compact()
            return self
        return Event.cancel(self)


class Process(Event):
    """A running generator; itself an event that fires when the generator ends.

    The event value is the generator's return value.  An uncaught exception
    inside the generator propagates out of :meth:`Engine.run` (errors should
    never pass silently in a simulation — they indicate a modeling bug).
    """

    __slots__ = ("generator", "name", "_resumer")

    def __init__(self, engine, generator, name=None):
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # The bound ``_resume``, made once: it is registered on every
        # event the process waits on.  It refers back to the process, so
        # the generator's end clears it, or every finished process would
        # wait for the cycle collector.
        self._resumer = self._resume
        bootstrap = Event(engine)
        bootstrap.callbacks.append(self._resumer)
        bootstrap.succeed()

    def _resume(self, event):
        """Advance the generator with the triggering event's outcome."""
        try:
            if event is None:
                target = self.generator.send(None)
            elif event._exception is not None:
                target = self.generator.throw(event._exception)
            else:
                target = self.generator.send(event._value)
        except StopIteration as stop:
            self._resumer = None  # break the cycle: refcounting frees us
            self.succeed(stop.value)
            return
        except SimulationError:
            raise
        except BaseException as error:  # modeled fault escaping the process
            # Fail the process event so a waiting parent re-raises it at its
            # own yield.  If nobody waits, the engine raises at processing
            # time — errors never pass silently.
            self._resumer = None
            self.fail(error)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        if target._processed or target._cancelled:
            target.then(self._resumer)
        else:
            # ``then()`` inlined for the common case, an event whose
            # callbacks have not run yet.
            target.callbacks.append(self._resumer)


class AllOf(Event):
    """Triggers once every event in ``events`` has triggered.

    Value is the list of individual event values, in the given order.
    """

    __slots__ = ("_pending_children", "_events")

    def __init__(self, engine, events):
        super().__init__(engine)
        self._events = list(events)
        self._pending_children = len(self._events)
        if self._pending_children == 0:
            self.succeed([])
            return
        for event in self._events:
            event.then(self._on_child)

    def _on_child(self, _event):
        self._pending_children -= 1
        if self._pending_children == 0 and not self.triggered:
            self.succeed([child.value for child in self._events])


class AnyOf(Event):
    """Triggers when the first of ``events`` triggers; value is that event.

    When the first child fires, the remaining children are *detached*: the
    AnyOf's callback is removed from them and they are defused, so losing
    events carry no dead callback work and a loser that later fails is not
    treated as an unhandled fault (the race was already decided).
    """

    __slots__ = ("_children",)

    def __init__(self, engine, events):
        super().__init__(engine)
        self._children = list(events)
        for event in self._children:
            event.then(self._on_child)

    def _on_child(self, event):
        if self.triggered:
            return
        self.succeed(event)
        on_child = self._on_child
        for child in self._children:
            if child is event:
                continue
            child._defused = True
            try:
                child.callbacks.remove(on_child)
            except ValueError:
                # Already processed (same-instant tie) or cancelled; either
                # way there is nothing left to detach.
                pass
        self._children = ()


# The sweep list between instants: with it installed, firing_timer() and
# defer_to_mark() see no timer firing at the current instant.
_NO_BATCH = ()


class Engine:
    """Owns the simulated clock and runs events in time order.

    Determinism: same-instant events fire in strict FIFO trigger order (the
    immediate deque preserves it directly; timer ties break on a
    monotonically increasing sequence number), so a run is exactly
    reproducible.
    """

    __slots__ = (
        # Current simulated time in nanoseconds.  A plain slot, read on
        # nearly every model step; only ``run`` writes it.
        "now",
        "_immediate",
        "_instants",
        "_timers",
        "_batch",
        "_sequence",
        "_shared_ticks",
        "_cancelled_pending",
        "_compact_check",
        "tracer",
        # ``timeout`` is an instance slot, not a method: every engine
        # installs a per-instance closure (see
        # ``_install_timeout_fast_path``) and slot access keeps both the
        # closure lookup and the queue structures it touches off dict paths.
        "timeout",
    )

    def __init__(self):
        self.now = 0.0
        # Tier 1: events triggered at the current instant, FIFO.
        self._immediate = deque()
        # Tier 2: the timer queue (see module docstring).  ``_instants`` is
        # a heap of the distinct instants keyed in ``_timers``, which maps
        # each to its FIFO list of ``(seq, event)`` entries.
        self._instants = []
        self._timers = {}
        # The list of the instant being swept, out of ``_timers`` while the
        # run loop fires it; ``_NO_BATCH`` between sweeps.
        self._batch = _NO_BATCH
        self._sequence = count()
        # Shared same-instant events handed out by ``at()``: one timer
        # entry per distinct instant, however many waiters pile on.
        self._shared_ticks = {}
        # Compaction bookkeeping: ``_cancelled_pending`` counts cancelled
        # timers still resident in the queue or the unswept batch; once it
        # reaches ``_compact_check`` the next cancel takes an exact census
        # (``_maybe_compact``) and rebuilds if the dead outnumber the live.
        self._cancelled_pending = 0
        self._compact_check = _COMPACT_MIN_CANCELLED
        # Observability: the shared no-op tracer unless a capture session
        # is active (one assignment at construction; the run loop itself
        # never consults it, so tracing cannot tax the event hot path).
        factory = _tracer_factory
        self.tracer = NULL_TRACER if factory is None else factory(self)
        self._install_timeout_fast_path()

    def _install_timeout_fast_path(self):
        """Install ``timeout`` as a per-engine closure (the only definition).

        Timer creation is the hottest allocation in timer-bound workloads;
        the closure folds the factory method and ``Timeout.__init__`` into
        a single frame (no bound-method object, no type-call dispatch) and
        pre-binds the queue structures.  Semantics are identical to
        ``Timeout(engine, delay, value)``.
        """
        engine = self
        immediate = self._immediate
        instants = self._instants
        timers = self._timers
        entries_at = timers.get
        next_seq = self._sequence.__next__
        new = Timeout.__new__

        def timeout(delay, value=None):
            event = new(Timeout)
            event.engine = engine
            event.callbacks = []
            event._value = value
            event._exception = None
            event.triggered = True
            event._processed = False
            event._cancelled = False
            event._defused = False
            event.delay = delay
            if delay <= 0:
                if delay == 0:
                    immediate.append(event)
                    return event
                raise SimulationError(f"negative timeout: {delay}")
            when = engine.now + delay
            entries = entries_at(when)
            if entries is None:
                timers[when] = [(next_seq(), event)]
                heappush(instants, when)
            else:
                entries.append((next_seq(), event))
            return event

        timeout.__doc__ = "Create an event triggering ``delay`` ns from now."
        self.timeout = timeout

    # -- event construction ---------------------------------------------------

    def event(self):
        """Create a pending :class:`Event` owned by this engine."""
        return Event(self)

    def at(self, when):
        """Shared event firing at the absolute instant ``when`` (ns).

        Repeated calls with the same ``when`` — before it fires — return
        the *same* event, so any number of completions landing on one
        instant occupy a single timer entry and are delivered in one
        callback sweep (batched same-instant completion delivery).  Waiters
        resume in registration order, which for independently created
        completions equals creation order, i.e. the FIFO order separate
        timeouts would have produced.  The event value is ``None``; do
        not ``cancel()`` a shared event — other waiters may hold it.
        """
        now = self.now
        if when < now:
            raise SimulationError(f"at() instant in the past: {when} < {now}")
        shared = self._shared_ticks
        event = shared.get(when)
        if event is not None and not event._processed \
                and not event._cancelled:
            return event
        if len(shared) >= 64:
            # Opportunistic purge of fired/stale instants keeps the memo
            # bounded without a per-fire hook on the run loop.
            for key in [k for k, v in shared.items()
                        if v._processed or v._cancelled or k < now]:
                del shared[key]
        event = Timeout.__new__(Timeout)
        event.engine = self
        event.callbacks = []
        event._value = None
        event._exception = None
        event.triggered = True
        event._processed = False
        event._cancelled = False
        event._defused = False
        event.delay = when - now
        if when == now:
            self._immediate.append(event)
        else:
            self._push_at(when, event)
        shared[when] = event
        return event

    def mark(self):
        """A sequence mark: orders after every timer scheduled so far and
        before every timer scheduled from now on (compare it with a timer
        entry's sequence number, see :meth:`firing_timer`).
        """
        return next(self._sequence)

    def firing_timer(self):
        """The ``(seq, event)`` entry of the timer whose callbacks are
        running, or ``None`` when the running callback came off the
        immediate queue (or from outside :meth:`run`).

        Found by scanning the swept instant's list for its last processed
        entry, so the run loop pays nothing for it; meant for rare
        same-instant tie decisions, not per-event use.
        """
        firing = None
        for entry in self._batch:
            event = entry[1]
            if event._processed:
                firing = entry
            elif not event._cancelled:
                break
        return firing

    def defer_to_mark(self, mark, callback):
        """Run ``callback()`` where a timer armed at ``mark`` would fire.

        For a timer kept armed in place of one the model would have
        re-armed at ``mark`` for the same instant: call it from the kept
        timer's callback.  Live timers still due at this instant with a
        sequence number below ``mark`` fire first — the callback rides on
        the last of them, after its own callbacks — so the callback runs
        exactly where the re-armed timer would have.  Like
        :meth:`firing_timer`, meant for rare same-instant ties.
        """
        for seq, event in self._batch:
            if not event._processed and not event._cancelled:
                if seq < mark:
                    event.then(
                        lambda _event: self.defer_to_mark(mark, callback))
                    return
                break
        callback()

    def immediate_pending(self):
        """Whether an event waits in the immediate queue (triggered at the
        current instant, not yet dispatched; a cancelled one still counts
        until the run loop drops it).

        In a callback of an event the run loop took off the immediate
        queue, ``False`` means the next event dispatched is the first one
        queued from then on (once that event's other callbacks have run).
        """
        return bool(self._immediate)

    def process(self, generator, name=None):
        """Start ``generator`` as a process; returns its completion event."""
        return Process(self, generator, name)

    def all_of(self, events):
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events):
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling internals --------------------------------------------------

    def _push_at(self, when, event):
        """File a timer firing at ``when`` last in its instant's list."""
        entries = self._timers.get(when)
        if entries is None:
            self._timers[when] = [(next(self._sequence), event)]
            heappush(self._instants, when)
        else:
            entries.append((next(self._sequence), event))

    def _unswept(self):
        """The entries of the swept instant the run loop has not reached:
        everything after its last processed entry (the one firing)."""
        batch = self._batch
        index = len(batch)
        while index and not batch[index - 1][1]._processed:
            index -= 1
        return batch[index:]

    def _maybe_compact(self):
        """Census the timer queue; compact if >50% are cancelled.

        Called from ``Timeout.cancel`` when the cancelled count crosses
        ``_compact_check``.  The census is O(instants), not O(entries) — it
        sums list lengths — so deferring it to a threshold keeps the
        per-insert and per-cancel paths free of live/dead accounting.
        """
        resident = sum(map(len, self._timers.values())) + len(self._batch)
        if self._cancelled_pending * 2 > resident:
            self._compact_timers()
        else:
            # Mostly-live: back off geometrically so repeated cancels pay
            # for the next census only after meaningful growth.
            self._compact_check = self._cancelled_pending * 2

    def _compact_timers(self):
        """Rebuild the timer queue dropping cancelled entries.

        Triggered opportunistically from ``Timeout.cancel`` once cancelled
        residents outnumber live ones, so the schedule-then-cancel idiom
        (WAL group commit, transport retry races) cannot grow the queue
        without bound.  The list being swept is left untouched — the run
        loop iterates it — so its unswept cancelled entries are counted
        back into ``_cancelled_pending`` and dropped at drain time.  The
        queue is rebuilt in place: the ``timeout`` closure binds it.
        """
        timers = self._timers
        for when, entries in list(timers.items()):
            live = [entry for entry in entries if not entry[1]._cancelled]
            if not live:
                del timers[when]
            elif len(live) < len(entries):
                timers[when] = live
        instants = self._instants
        instants[:] = timers
        heapify(instants)
        self._cancelled_pending = sum(
            1 for _seq, event in self._unswept() if event._cancelled)
        self._compact_check = self._cancelled_pending + _COMPACT_MIN_CANCELLED

    # -- execution --------------------------------------------------------------

    def run(self, until=None):
        """Run events until the queues drain or the clock passes ``until``.

        Returns the final simulated time.  Events scheduled exactly at
        ``until`` still fire (the bound is inclusive).
        """
        # Local bindings for the hot loop: every name resolved here is one
        # dict lookup the per-event path no longer pays.
        immediate = self._immediate
        popleft = immediate.popleft
        instants = self._instants
        timers = self._timers
        take = timers.pop
        now = self.now
        while True:
            if immediate:
                # Fast path: no timer access at all.  Timer entries at the
                # current instant cannot appear while immediates are being
                # processed (timers are strictly future when scheduled);
                # the sweep below already fired any that existed.
                event = popleft()
                if event._cancelled:
                    continue
                event._processed = True
                callbacks = event.callbacks
                event.callbacks = []
                if len(callbacks) == 1:
                    # One waiter is the overwhelmingly common case (a
                    # process resume or a single completion hook); skip
                    # the loop setup.
                    callbacks[0](event)
                elif callbacks:
                    for callback in callbacks:
                        callback(event)
                elif event._exception is not None and not event._defused:
                    # A failed event nobody waits on is an unhandled modeled
                    # fault; surface it instead of dropping it.
                    raise event._exception
                continue
            if not instants:
                break
            when = heappop(instants)
            batch = take(when)
            if batch[0][1]._cancelled:
                # Skip a cancelled prefix before it can move the clock.
                skip = 1
                size = len(batch)
                while skip < size and batch[skip][1]._cancelled:
                    skip += 1
                self._cancelled_pending -= skip
                if skip == size:
                    continue
                del batch[:skip]
            if when != now:
                if when < now:
                    raise SimulationError(
                        "event queue went backwards in time"
                    )
                if until is not None and when > until:
                    # Park: the instant waits for the next run().
                    timers[when] = batch
                    heappush(instants, when)
                    self.now = until
                    return until
                self.now = now = when
            # Sweep the instant's whole list before touching the immediate
            # queue: its timers were scheduled at an earlier instant, so
            # they predate anything triggered while processing `now` —
            # this keeps global same-instant FIFO order exact, and turns a
            # list of same-instant completions into one callback sweep.
            self._batch = batch
            try:
                for _seq, event in batch:
                    if not event._cancelled:
                        event._processed = True
                        callbacks = event.callbacks
                        event.callbacks = []
                        if len(callbacks) == 1:
                            callbacks[0](event)
                        elif callbacks:
                            for callback in callbacks:
                                callback(event)
                        elif (event._exception is not None
                              and not event._defused):
                            raise event._exception
                    else:
                        self._cancelled_pending -= 1
            except BaseException:
                # Re-file what the sweep did not reach, ahead of anything
                # since scheduled for this instant, for the next run().
                unswept = self._unswept()
                self._batch = _NO_BATCH
                if unswept:
                    later = timers.get(now)
                    if later is None:
                        timers[now] = unswept
                        heappush(instants, now)
                    else:
                        later[:0] = unswept
                raise
            self._batch = _NO_BATCH
        if until is not None and until > now:
            self.now = now = until
        return now

    def peek(self):
        """Time of the next scheduled event, or ``None`` if none is pending."""
        immediate = self._immediate
        while immediate and immediate[0]._cancelled:
            immediate.popleft()
        if immediate:
            return self.now
        for _seq, event in self._unswept():
            if not event._cancelled:
                return self.now
        instants = self._instants
        timers = self._timers
        while instants:
            when = instants[0]
            entries = timers[when]
            for _seq, event in entries:
                if not event._cancelled:
                    return when
            heappop(instants)
            del timers[when]
            self._cancelled_pending -= len(entries)
        return None
