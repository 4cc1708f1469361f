"""Kernel microbenchmark: events/sec of the DES scheduling core.

Every figure and test is bottlenecked by the event kernel, so this module
tracks its throughput across PRs.  Five workloads exercise the paths that
matter:

* ``same-instant`` — a pre-wired chain of events, each one's callback
  triggering the next at the same instant, with a populated heap of
  far-future timeouts in the background.  This isolates the trigger→dispatch
  path: on the seed (heap-only) kernel every link pays a push+pop through
  the background heap; the two-tier kernel runs it entirely on the
  immediate deque.
* ``event-churn`` — the same-instant mix as it appears in real models:
  events and zero-delay timeouts are *allocated* inside the run, so event
  construction cost is included.
* ``timeout-heavy`` — a population of concurrent timers that each reschedule
  themselves with a strictly positive delay; every timer goes through a
  heap on both kernels (the current one heaps distinct instants and
  appends same-instant timers to one list), so this workload tracks timer
  construction plus run-loop overhead.
* ``timeout-cancel-heavy`` — the WAL group-commit / transport-retry race:
  every round schedules a long expiry timer and cancels it one round
  later, unexpired.  The seed kernel drags the dead entries through the
  heap; the timer queue reclaims them via lazy drop + opportunistic
  compaction.
* ``fleet-scale`` — a sharded fleet's heartbeat plane: thousands of probes
  on a handful of aligned periods, every period tick landing on the same
  instant.  Probes use the engine's shared-instant API (``Engine.at``)
  when it exists, so the current kernel carries one entry per instant
  and delivers it in one callback sweep; the seed pays one heap
  round-trip per probe.

To keep the speedup measurable after the seed engine is gone, the module
carries a frozen replica of the seed's scheduling core (``SeedEngine``):
single global heap ordered by ``(time, sequence)``, every trigger —
same-instant or not — round-tripping through ``heapq``.  The replica is
used only here, for the ratio.  Current and seed repeats are interleaved
inside one process so the ratio is immune to host frequency drift between
the two measurement phases.
"""

import heapq
import time
from collections import deque
from itertools import count

from repro.sim import Engine

DEFAULT_EVENTS = 200_000
DEFAULT_BACKGROUND = 4_096
DEFAULT_TIMERS = 1_000
DEFAULT_PROBES = 4_096
DEFAULT_REPEAT = 3

WORKLOADS = ("same-instant", "event-churn", "timeout-heavy",
             "timeout-cancel-heavy", "fleet-scale")


# -- frozen seed kernel (baseline for the speedup ratio) -----------------------


class SeedEvent:
    """Seed-engine event: every trigger goes through the heap."""

    __slots__ = ("engine", "callbacks", "_value", "_exception", "triggered",
                 "_processed", "_cancelled")

    def __init__(self, engine):
        self.engine = engine
        self.callbacks = []
        self._value = None
        self._exception = None
        self.triggered = False
        self._processed = False
        self._cancelled = False

    def succeed(self, value=None):
        self.triggered = True
        self._value = value
        self.engine._push_at(self.engine._now, self)
        return self

    def cancel(self):
        # Faithful to the seed: the heap entry stays resident until the
        # run loop pops (and skips) it — cancelled garbage is the cost
        # this replica exists to measure.
        self._cancelled = True
        self.callbacks.clear()
        return self

    def then(self, callback):
        self.callbacks.append(callback)
        return self


class SeedTimeout(SeedEvent):
    __slots__ = ("delay",)

    def __init__(self, engine, delay, value=None):
        super().__init__(engine)
        self.delay = delay
        self.triggered = True
        self._value = value
        engine._push_at(engine._now + delay, self)


class SeedEngine:
    """The seed commit's scheduling core: one global ``(time, seq)`` heap."""

    def __init__(self):
        self._now = 0.0
        self._heap = []
        self._sequence = count()

    @property
    def now(self):
        return self._now

    def event(self):
        return SeedEvent(self)

    def timeout(self, delay, value=None):
        return SeedTimeout(self, delay, value)

    def _push_at(self, when, event):
        heapq.heappush(self._heap, (when, next(self._sequence), event))

    def run(self, until=None):
        while self._heap:
            when, _seq, event = self._heap[0]
            if event._cancelled:
                # Lazy drop at pop time; the entry sat in the heap (and
                # taxed every push/pop crossing it) until now.
                heapq.heappop(self._heap)
                continue
            if until is not None and when > until:
                self._now = until
                return self._now
            heapq.heappop(self._heap)
            self._now = when
            event._processed = True
            callbacks, event.callbacks = event.callbacks, []
            for callback in callbacks:
                callback(event)
        if until is not None:
            self._now = max(self._now, until)
        return self._now


# -- workloads (engine-agnostic: both kernels expose the same surface) ---------


def _arm_background(engine, background):
    """Fill the heap with far-future timeouts, as a busy simulation would."""
    for index in range(background):
        engine.timeout(1e12 + index)


def run_same_instant(engine_factory, events=DEFAULT_EVENTS,
                     background=DEFAULT_BACKGROUND):
    """Pre-wired same-instant trigger chain; returns (events/sec, count)."""
    engine = engine_factory()
    _arm_background(engine, background)
    chain = [engine.event() for _ in range(events)]
    for index in range(events - 1):
        nxt = chain[index + 1]
        chain[index].then(lambda _ev, nxt=nxt: nxt.succeed())
    started = time.perf_counter()
    chain[0].succeed()
    engine.run(until=0.0)
    elapsed = time.perf_counter() - started
    return events / elapsed, events


def run_event_churn(engine_factory, events=DEFAULT_EVENTS,
                    background=DEFAULT_BACKGROUND):
    """Same-instant chain with in-run allocation: alternating freshly created
    ``succeed()`` events and zero-delay timeouts; returns (events/sec, count).
    """
    engine = engine_factory()
    _arm_background(engine, background)
    remaining = [events]

    def kick(_event):
        if remaining[0]:
            remaining[0] -= 1
            if remaining[0] % 2:
                engine.event().then(kick).succeed()
            else:
                engine.timeout(0.0).then(kick)

    engine.event().then(kick).succeed()
    started = time.perf_counter()
    engine.run(until=0.0)
    elapsed = time.perf_counter() - started
    if remaining[0]:
        raise RuntimeError("event-churn chain did not complete")
    return (events + 1) / elapsed, events + 1


def run_timeout_heavy(engine_factory, events=DEFAULT_EVENTS,
                      timers=DEFAULT_TIMERS):
    """Concurrent self-rescheduling timers; returns (events/sec, count)."""
    engine = engine_factory()
    remaining = [events]

    def make_timer(step):
        def fire(_event):
            if remaining[0]:
                remaining[0] -= 1
                engine.timeout(step).then(fire)
        return fire

    for index in range(timers):
        step = 1.0 + (index % 97) * 0.25
        engine.timeout(step).then(make_timer(step))
    started = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - started
    return (events + timers) / elapsed, events + timers


def run_timeout_cancel_heavy(engine_factory, events=DEFAULT_EVENTS,
                             timers=DEFAULT_TIMERS):
    """Schedule-then-cancel races (the WAL group-commit / transport-retry
    idiom): every firing reschedules itself *and* a long expiry timer,
    cancelling the previous round's expiry unexpired.  Returns
    (events/sec, count) over the fired events."""
    engine = engine_factory()
    remaining = [events]

    def make_worker(step):
        pending = [None]

        def fire(_event):
            expiry = pending[0]
            if expiry is not None:
                expiry.cancel()
            if remaining[0]:
                remaining[0] -= 1
                pending[0] = engine.timeout(step + 1000.0)
                engine.timeout(step).then(fire)

        return fire

    for index in range(timers):
        step = 1.0 + (index % 97) * 0.25
        engine.timeout(step).then(make_worker(step))
    started = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - started
    return (events + timers) / elapsed, events + timers


def run_fleet_scale(engine_factory, events=DEFAULT_EVENTS,
                    probes=DEFAULT_PROBES):
    """A sharded fleet's heartbeat plane: ``probes`` periodic probes over
    eight aligned periods, so every period tick lands whole cohorts on one
    instant.  Probes ride the engine's shared-instant API (``at``) when it
    has one — one timer entry and one callback sweep per instant — and
    fall back to per-probe timeouts (the seed's only option) otherwise.
    Returns (events/sec, count)."""
    engine = engine_factory()
    remaining = [events]
    at = getattr(engine, "at", None)

    def fire(_event):
        if remaining[0]:
            remaining[0] -= 1
            when = engine.now + 100.0 * (1 + remaining[0] % 8)
            if at is not None:
                at(when).then(fire)
            else:
                engine.timeout(when - engine.now).then(fire)

    for index in range(probes):
        period = 100.0 * (1 + index % 8)
        if at is not None:
            at(period).then(fire)
        else:
            engine.timeout(period).then(fire)
    started = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - started
    return (events + probes) / elapsed, events + probes


_RUNNERS = {
    "same-instant": run_same_instant,
    "event-churn": run_event_churn,
    "timeout-heavy": run_timeout_heavy,
    "timeout-cancel-heavy": run_timeout_cancel_heavy,
    "fleet-scale": run_fleet_scale,
}


# -- the harness ---------------------------------------------------------------


def run_kernel_bench(events=DEFAULT_EVENTS, repeat=DEFAULT_REPEAT,
                     workloads=WORKLOADS, baseline=True):
    """Measure events/sec per workload; returns a list of result rows.

    Each row carries the current kernel's rate, the frozen seed kernel's
    rate (when ``baseline`` is true), and their ratio.  ``repeat`` runs are
    taken per engine and the best rate is kept (microbenchmarks measure the
    kernel, not the scheduler noise of the host machine).  Current and
    seed repeats alternate within the same process so a frequency shift
    mid-benchmark degrades both sides equally instead of skewing the
    ratio.
    """
    rows = []
    for name in workloads:
        runner = _RUNNERS[name]
        best_current = best_seed = (0.0, 0)
        for _ in range(repeat):
            best_current = max(best_current, runner(Engine, events))
            if baseline:
                best_seed = max(best_seed, runner(SeedEngine, events))
        rate, processed = best_current
        row = {
            "workload": name,
            "events": processed,
            "events_per_sec": rate,
            "events_per_sec_m": rate / 1e6,
        }
        if baseline:
            seed_rate = best_seed[0]
            row["seed_events_per_sec"] = seed_rate
            row["seed_events_per_sec_m"] = seed_rate / 1e6
            row["speedup_vs_seed"] = rate / seed_rate
        rows.append(row)
    return rows
