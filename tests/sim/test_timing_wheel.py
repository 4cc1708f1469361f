"""The timer queue: ordering across delay magnitudes (the old timing
wheel's level boundaries and overflow horizon stay as regression cases),
zero/negative delays, cancellation compaction, the per-instant sweep
rules, the same-instant tie helpers (``firing_timer``/``defer_to_mark``),
the shared-instant (``Engine.at``) batching API, and differential
determinism against a reference heap scheduler."""

import heapq
import random
from itertools import count

import pytest

from repro.sim import Engine, SimulationError
from repro.sim.engine import _COMPACT_MIN_CANCELLED


class TestLevelBoundaries:
    def test_order_across_level0_block_edge(self):
        engine = Engine()
        fired = []
        for delay in (257.5, 256.0, 255.0):
            engine.timeout(delay).then(lambda _e, d=delay: fired.append(d))
        engine.run()
        assert fired == [255.0, 256.0, 257.5]
        assert engine.now == 257.5

    def test_cascade_at_each_level_boundary(self):
        engine = Engine()
        fired = []
        delays = [
            255.0, 256.0, 257.0,                   # level 0 -> 1 edge
            65535.0, 65536.0, 65537.0,             # level 1 -> 2 edge
            2.0 ** 24 - 1, 2.0 ** 24, 2.0 ** 24 + 1,  # level 2 -> 3 edge
        ]
        for delay in delays:
            engine.timeout(delay).then(lambda _e, d=delay: fired.append(d))
        engine.run()
        assert fired == sorted(delays)

    def test_dense_sweep_across_cascade(self):
        """Every tick around a block boundary occupied: the cascade must
        not skip, reorder, or duplicate entries."""
        engine = Engine()
        fired = []
        for offset in range(240, 280):
            engine.timeout(float(offset)).then(
                lambda _e, o=offset: fired.append(o))
        engine.run()
        assert fired == list(range(240, 280))

    def test_same_instant_fifo_survives_cascade(self):
        """Two timers for one instant filed above level 0 keep their
        schedule order through relocation."""
        engine = Engine()
        order = []
        engine.timeout(70000.0).then(lambda _e: order.append("first"))
        engine.timeout(70000.0).then(lambda _e: order.append("second"))
        engine.run()
        assert order == ["first", "second"]


class TestFarFutureOverflow:
    def test_beyond_horizon_fires_after_near_timers(self):
        engine = Engine()
        fired = []
        far = 2.0 ** 32 + 7.0
        engine.timeout(far).then(lambda _e: fired.append("far"))
        engine.timeout(5.0).then(lambda _e: fired.append("near"))
        engine.run()
        assert fired == ["near", "far"]
        assert engine.now == far

    def test_overflow_timer_not_outrun_by_wheel_timer(self):
        """A timer armed seconds out still precedes a near timer armed
        later for a later instant (the wheel's overflow migration case)."""
        engine = Engine()
        fired = []
        engine.timeout(2.0 ** 32 + 100.0).then(
            lambda _e: fired.append("overflow"))

        def hopper():
            yield engine.timeout(2.0 ** 32 - 10.0)
            engine.timeout(200.0).then(lambda _e: fired.append("wheel"))

        engine.process(hopper())
        engine.run()
        assert fired == ["overflow", "wheel"]

    def test_empty_wheel_jumps_to_overflow_minimum(self):
        engine = Engine()
        fired = []
        engine.timeout(2.0 ** 33).then(lambda _e: fired.append(engine.now))
        engine.run()
        assert fired == [2.0 ** 33]


class TestEdgeDelays:
    def test_zero_delay_fires_at_current_instant(self):
        engine = Engine()
        fired = []
        engine.timeout(0.0).then(lambda _e: fired.append(engine.now))
        engine.run()
        assert fired == [0.0]
        assert engine.now == 0.0

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.timeout(-0.5)

    def test_subtick_delays_keep_exact_float_times(self):
        """Ticks bucket entries; they never quantize the clock."""
        engine = Engine()
        fired = []

        def proc():
            yield engine.timeout(0.25)
            fired.append(engine.now)
            yield engine.timeout(0.25)
            fired.append(engine.now)

        engine.process(proc())
        engine.run()
        assert fired == [0.25, 0.5]


def _residents(engine):
    """Timer entries resident in the engine's instant-keyed queue."""
    return sum(map(len, engine._timers.values()))


class TestCompaction:
    def test_cancel_storm_reclaims_near_residents(self):
        engine = Engine()
        doomed = [
            engine.timeout(1000.0 + index)
            for index in range(4 * _COMPACT_MIN_CANCELLED)
        ]
        fired = []
        engine.timeout(50.0).then(lambda _e: fired.append("kept"))
        for event in doomed:
            event.cancel()
        assert _residents(engine) == 1  # only the live timer survives
        assert engine._instants == [50.0]
        assert engine._cancelled_pending == 0
        engine.run()
        assert fired == ["kept"]
        assert engine.now == 50.0

    def test_cancel_storm_reclaims_far_residents(self):
        engine = Engine()
        doomed = [
            engine.timeout(2.0 ** 33 + index)
            for index in range(4 * _COMPACT_MIN_CANCELLED)
        ]
        for event in doomed:
            event.cancel()
        assert _residents(engine) == 0
        assert engine._instants == []
        engine.run()
        assert engine.now == 0.0


class TestInstantSweep:
    def test_instant_fires_all_its_timers_before_its_immediates(self):
        """Timers due at one instant were armed earlier, so the whole list
        fires before anything its callbacks trigger at that instant."""
        engine = Engine()
        order = []

        def first(_event):
            order.append("timer-1")
            engine.event().then(lambda _e: order.append("succeed")).succeed()
            engine.timeout(0.0).then(lambda _e: order.append("zero-delay"))

        engine.timeout(10.0).then(first)
        engine.timeout(10.0).then(lambda _e: order.append("timer-2"))
        engine.at(10.0).then(lambda _e: order.append("shared"))
        engine.run()
        assert order == ["timer-1", "timer-2", "shared", "succeed",
                         "zero-delay"]
        assert engine.now == 10.0

    def test_all_cancelled_instant_does_not_move_the_clock(self):
        engine = Engine()
        doomed = [engine.timeout(500.0), engine.timeout(500.0)]
        engine.timeout(100.0).then(
            lambda _e: [timer.cancel() for timer in doomed])
        assert engine.run() == 100.0
        assert engine.now == 100.0
        assert engine.peek() is None

    def test_cancelled_prefix_skipped_live_rest_fires(self):
        engine = Engine()
        fired = []
        doomed = engine.timeout(500.0)
        engine.timeout(500.0).then(lambda _e: fired.append(engine.now))
        doomed.cancel()
        assert engine.peek() == 500.0
        engine.run(until=400.0)
        assert engine.now == 400.0 and fired == []
        engine.run()
        assert fired == [500.0]

    def test_firing_timer_names_the_running_entry(self):
        engine = Engine()
        seen = []
        first = engine.timeout(10.0)
        middle = engine.timeout(10.0)
        last = engine.timeout(10.0)
        first.then(lambda _e: seen.append(engine.firing_timer()[1] is first))
        first.then(lambda _e: middle.cancel())
        first.then(lambda _e: engine.event().then(
            lambda _e: seen.append(engine.firing_timer())).succeed())
        last.then(lambda _e: seen.append(engine.firing_timer()[1] is last))
        engine.run()
        # Off the immediate queue (and outside run) no timer is firing.
        assert seen == [True, True, None]
        assert engine.firing_timer() is None

    def test_firing_timer_orders_against_a_mark(self):
        engine = Engine()
        seqs = []
        engine.timeout(10.0).then(
            lambda _e: seqs.append(engine.firing_timer()[0]))
        mark = engine.mark()
        engine.timeout(10.0).then(
            lambda _e: seqs.append(engine.firing_timer()[0]))
        engine.run()
        assert seqs[0] < mark < seqs[1]

    def test_defer_to_mark_runs_where_the_rearmed_timer_would(self):
        """A timer kept armed in place of one re-armed at ``mark`` defers
        its work past every same-instant timer armed before the mark and
        ahead of every one armed after it."""
        engine = Engine()
        order = []
        marks = []
        kept = engine.timeout(10.0)
        engine.timeout(10.0).then(lambda _e: order.append("armed-before"))

        def rearm_point(_event):
            marks.append(engine.mark())
            engine.timeout(5.0).then(lambda _e: order.append("armed-after"))

        engine.timeout(5.0).then(rearm_point)
        kept.then(lambda _e: engine.defer_to_mark(
            marks[0], lambda: order.append("kept")))
        engine.run()
        assert order == ["armed-before", "kept", "armed-after"]

    def test_defer_to_mark_without_a_tie_runs_at_once(self):
        engine = Engine()
        order = []
        mark = engine.mark()
        engine.timeout(10.0).then(lambda _e: engine.defer_to_mark(
            mark, lambda: order.append("deferred")))
        engine.timeout(10.0).then(lambda _e: order.append("later"))
        engine.run()
        engine.defer_to_mark(mark, lambda: order.append("outside-run"))
        assert order == ["deferred", "later", "outside-run"]


class TestSharedInstant:
    def test_at_shares_one_event_per_instant(self):
        engine = Engine()
        first = engine.at(100.0)
        assert engine.at(100.0) is first
        assert engine.at(200.0) is not first

    def test_at_fires_all_waiters_in_registration_order(self):
        engine = Engine()
        order = []
        for tag in range(5):
            engine.at(50.0).then(lambda _e, t=tag: order.append(t))
        engine.run()
        assert order == [0, 1, 2, 3, 4]
        assert engine.now == 50.0

    def test_at_waiters_ride_the_first_registration_slot(self):
        engine = Engine()
        order = []
        engine.at(10.0).then(lambda _e: order.append("shared"))
        engine.timeout(10.0).then(lambda _e: order.append("timeout"))
        engine.at(10.0).then(lambda _e: order.append("shared-2"))
        engine.run()
        assert order == ["shared", "shared-2", "timeout"]

    def test_at_current_instant_fires_immediately(self):
        engine = Engine()
        fired = []
        engine.at(0.0).then(lambda _e: fired.append(engine.now))
        engine.run()
        assert fired == [0.0]

    def test_at_in_the_past_rejected(self):
        engine = Engine()
        outcomes = []

        def proc():
            yield engine.timeout(5.0)
            with pytest.raises(SimulationError):
                engine.at(1.0)
            outcomes.append("checked")

        engine.process(proc())
        engine.run()
        assert outcomes == ["checked"]

    def test_at_memo_stays_bounded(self):
        engine = Engine()

        def proc():
            for _step in range(200):
                yield engine.at(engine.now + 1.0)

        engine.process(proc())
        engine.run()
        assert len(engine._shared_ticks) <= 65


# -- differential determinism --------------------------------------------------


class _EngineAdapter:
    """The real engine behind the schedule/cancel/run driver surface."""

    def __init__(self):
        self.engine = Engine()

    @property
    def now(self):
        return self.engine.now

    def schedule(self, delay, callback):
        return self.engine.timeout(delay).then(callback)

    def cancel(self, handle):
        handle.cancel()

    def run(self):
        self.engine.run()


class _HeapAdapter:
    """Reference scheduler: one global ``(when, seq)`` heap, lazy cancel.

    This is the seed kernel's ordering contract distilled to a dozen
    lines; the engine must reproduce its firing log byte for byte.
    """

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._sequence = count()

    def schedule(self, delay, callback):
        entry = [self.now + delay, next(self._sequence), callback, True]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry):
        entry[3] = False

    def run(self):
        heap = self._heap
        while heap:
            when, _seq, callback, live = heapq.heappop(heap)
            if not live:
                continue
            self.now = when
            callback(None)


def _drive(adapter, seed, rounds=600):
    """Replay one seeded schedule of mixed-range timers with random
    cancellations; returns the (time, tag) firing log."""
    rng = random.Random(seed)
    log = []
    state = {"rounds": rounds, "open": []}

    def fire(tag):
        def callback(_event):
            log.append((adapter.now, tag))
            if state["rounds"] <= 0:
                return
            state["rounds"] -= 1
            roll = rng.random()
            if roll < 0.25:
                delay = rng.choice((0.0, 0.25, 0.5, 1.0, 3.0))
            elif roll < 0.60:
                delay = rng.uniform(1.0, 300.0)         # device range
            elif roll < 0.85:
                delay = rng.uniform(300.0, 70000.0)     # retry range
            elif roll < 0.97:
                delay = rng.uniform(70000.0, 2.0 ** 25)  # heartbeat range
            else:
                delay = 2.0 ** 32 + rng.uniform(0.0, 1000.0)  # seconds out
            handle = adapter.schedule(delay, fire(state["rounds"]))
            state["open"].append(handle)
            if rng.random() < 0.3:
                victim = state["open"].pop(
                    rng.randrange(len(state["open"])))
                adapter.cancel(victim)

        return callback

    for tag in range(8):
        adapter.schedule(float(tag + 1), fire(-tag - 1))
    adapter.run()
    return log


class TestDifferentialDeterminism:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_wheel_matches_reference_heap(self, seed):
        assert _drive(_EngineAdapter(), seed) == _drive(_HeapAdapter(), seed)

    def test_wheel_replay_is_identical(self):
        assert _drive(_EngineAdapter(), 3) == _drive(_EngineAdapter(), 3)
