"""The SLO controller: graceful, reversible degradation under overload.

One :class:`SloController` watches every node of a
:class:`~repro.cluster.fleet.Fleet` and walks each node independently up
and down a fixed **escalation ladder** — one bounded rung per decision,
never a jump — choosing cheaper service over shed service for as long as
cheaper service is available:

==== ===========================================================
rung actuation (and its exact inverse on de-escalation)
==== ===========================================================
1    group-commit ``bytes``/``timeout`` doubled (amortize flushes;
     clamped to ``group_commit_max_factor`` x the original)
2    write scheduler to destage priority (drain the CMB ring
     faster, freeing credit at the cost of reads)
3    admission ceiling halved (floored at
     ``min_ceiling_fraction`` x baseline) and the most-rejected
     lane's fair-share weight lowered — shed *new* work, never
     admitted work
4    replication policy to ``degraded_policy`` (skipped when the
     chain supervisor's brownout already moved it)
==== ===========================================================

Every rung transition is **hysteresis-guarded**: a node must be
overloaded for ``enter_polls`` consecutive polls to climb one rung and
healthy for ``exit_polls`` consecutive polls to descend one, and each
transition resets the streak — so the ladder moves at most one rung per
dwell, in both directions, and cannot flap.

Every knob turn emits a **typed audit event** (plain dict in
``events``, plus a trace instant on this controller's supervisor track)
recording the knob, the before/after values, the rung, and the signals
that justified it.

**The durability fence.** No actuator may skip or reorder acked
durability work.  All actuations are synchronous (no simulation time
passes), so the WAL's durability state must be *identical* before and
after each one: the fence fingerprints ``durable_lsn``, the pending
record count/bytes, and the waiter LSN order around every rung
transition, and any difference is recorded in
``invariant_violations`` — which the ``slo`` checker tier treats as a
protocol violation.  (``seed_shed_acked_bug`` deliberately breaks the
contract *outside* the fenced window — acking commit waiters without
durability on a rung-3 shed — so the end-to-end crash-recovery oracles,
not the fence, must catch it.)
"""

from repro.slo.signals import SignalReader
from repro.ssd.scheduler import SchedulingMode

MAX_LEVEL = 4


class _NodeState:
    """One node's position on the ladder and the values to restore."""

    __slots__ = ("level", "overload_streak", "healthy_streak",
                 "orig_group_bytes", "orig_group_timeout", "orig_mode",
                 "orig_ceiling", "weighted_lane", "orig_lane_weight",
                 "orig_policy")

    def __init__(self):
        self.level = 0
        self.overload_streak = 0
        self.healthy_streak = 0
        self.orig_group_bytes = None
        self.orig_group_timeout = None
        self.orig_mode = None
        self.orig_ceiling = None
        self.weighted_lane = None
        self.orig_lane_weight = None
        self.orig_policy = None


class SloController:
    """Per-node escalation ladders over one fleet's knobs."""

    def __init__(self, fleet, target_p99_ns, poll_ns=100_000.0,
                 enter_polls=2, exit_polls=4,
                 pressure_high=0.9, pressure_low=0.5,
                 healthy_fraction=0.7, group_commit_max_factor=4.0,
                 min_ceiling_fraction=0.25, shed_lane_weight=0.5,
                 degraded_policy="lazy", fleet_supervisor=None,
                 name="slo-controller", seed_shed_acked_bug=False):
        if target_p99_ns <= 0:
            raise ValueError("the p99 target must be positive")
        if poll_ns <= 0:
            raise ValueError("the poll period must be positive")
        if enter_polls < 1 or exit_polls < 1:
            raise ValueError("dwell polls must be at least 1")
        if not 0 < min_ceiling_fraction <= 1:
            raise ValueError("min ceiling fraction must be in (0, 1]")
        self.fleet = fleet
        self.engine = fleet.engine
        self.target_p99_ns = float(target_p99_ns)
        self.poll_ns = poll_ns
        self.enter_polls = enter_polls
        self.exit_polls = exit_polls
        self.pressure_high = pressure_high
        self.pressure_low = pressure_low
        self.healthy_fraction = healthy_fraction
        self.group_commit_max_factor = group_commit_max_factor
        self.min_ceiling_fraction = min_ceiling_fraction
        self.shed_lane_weight = shed_lane_weight
        self.degraded_policy = degraded_policy
        self.fleet_supervisor = fleet_supervisor
        self.name = name
        self.seed_shed_acked_bug = seed_shed_acked_bug
        self.readers = {}  # node name -> SignalReader
        self.states = {}  # node name -> _NodeState
        self.events = []  # typed audit events, chronological
        self.invariant_violations = []  # durability-fence breaches
        self.last_signals = {}  # node name -> most recent reading
        self.polls = 0
        self._running = False
        self._process = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self):
        if self._running:
            raise RuntimeError("slo controller already running")
        self._running = True
        tracing = self.engine.tracer.enabled
        for name in sorted(self.fleet.nodes):
            node = self.fleet.nodes[name]
            sampler = None
            if tracing:
                from repro.obs import GaugeSampler

                sampler = GaugeSampler(self.engine.tracer, node.device,
                                       track=f"{name}.slo-gauges")
            self.readers[name] = SignalReader(
                node, sampler=sampler,
                fleet_supervisor=self.fleet_supervisor,
            )
            self.states[name] = _NodeState()
        self._process = self.engine.process(self._loop(), name=self.name)
        return self._process

    def stop(self):
        self._running = False

    def level_of(self, node_name):
        state = self.states.get(node_name)
        return state.level if state is not None else 0

    def events_for(self, site, action=None):
        return [
            event for event in self.events
            if event["site"] == site
            and (action is None or event["action"] == action)
        ]

    # -- audit --------------------------------------------------------------------

    def _audit(self, action, site, knob, old, new, level, signals):
        event = {
            "time_ns": self.engine.now,
            "action": action,
            "site": site,
            "knob": knob,
            "from": old,
            "to": new,
            "level": level,
            "signals": dict(signals),
        }
        self.events.append(event)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(self.name, action, site=site, knob=knob,
                           level=level, old=str(old), new=str(new))
        return event

    # -- the durability fence ------------------------------------------------------

    def _fence(self, node):
        """Fingerprint of everything an actuator must not disturb."""
        lm = node.database.log_manager
        return (
            lm.durable_lsn,
            lm.pending_records,
            lm.pending_bytes,
            lm.waiting_lsns,
        )

    def _check_fence(self, node, before, after, transition, signals):
        if before == after:
            return
        violation = {
            "time_ns": self.engine.now,
            "site": node.name,
            "transition": transition,
            "before": before,
            "after": after,
        }
        self.invariant_violations.append(violation)
        self._audit("fence-violation", node.name, transition,
                    before, after, self.states[node.name].level, signals)

    # -- the control loop ----------------------------------------------------------

    def _loop(self):
        while self._running:
            yield self.engine.timeout(self.poll_ns)
            if not self._running:
                return
            self.polls += 1
            for name in sorted(self.fleet.nodes):
                node = self.fleet.nodes[name]
                signals = self.readers[name].read()
                self.last_signals[name] = signals
                self._step(node, signals)

    def _step(self, node, signals):
        state = self.states[node.name]
        p99 = signals["p99_commit_ns"]
        # An empty latency window with commit waiters outstanding is a
        # stall — worse than any measurable p99, never "no news is good
        # news".
        stalled = (signals["commits_in_window"] == 0
                   and signals["wal_waiters"] > 0)
        overloaded = (
            (p99 is not None and p99 > self.target_p99_ns)
            or signals["pressure"] >= self.pressure_high
            or stalled
        )
        healthy = (
            not stalled
            and (p99 is None
                 or p99 <= self.healthy_fraction * self.target_p99_ns)
            and signals["pressure"] <= self.pressure_low
            and signals["shed_in_window"] == 0
        )
        if overloaded:
            state.healthy_streak = 0
            state.overload_streak += 1
            if (state.overload_streak >= self.enter_polls
                    and state.level < MAX_LEVEL):
                state.overload_streak = 0
                self._escalate(node, state, signals)
        elif healthy:
            state.overload_streak = 0
            state.healthy_streak += 1
            if state.healthy_streak >= self.exit_polls and state.level > 0:
                state.healthy_streak = 0
                self._deescalate(node, state, signals)
        else:
            # Inside the hysteresis band: both dwell clocks reset.
            state.overload_streak = 0
            state.healthy_streak = 0

    # -- escalation (one rung up) ---------------------------------------------------

    def _escalate(self, node, state, signals):
        before = self._fence(node)
        rung = state.level + 1
        if rung == 1:
            self._raise_group_commit(node, state, signals)
        elif rung == 2:
            self._prioritize_destage(node, state, signals)
        elif rung == 3:
            self._shed_admission(node, state, signals)
        elif rung == 4:
            self._degrade_replication(node, state, signals)
        state.level = rung
        after = self._fence(node)
        self._check_fence(node, before, after, f"escalate->{rung}", signals)
        if rung == 3 and self.seed_shed_acked_bug:
            self._seeded_shed_acked(node)

    def _raise_group_commit(self, node, state, signals):
        lm = node.database.log_manager
        state.orig_group_bytes = lm.group_commit_bytes
        state.orig_group_timeout = lm.group_commit_timeout_ns
        cap = self.group_commit_max_factor
        (old_bytes, new_bytes), (old_timeout, new_timeout) = (
            lm.set_group_commit(
                group_commit_bytes=min(lm.group_commit_bytes * 2,
                                       int(state.orig_group_bytes * cap)),
                group_commit_timeout_ns=min(
                    lm.group_commit_timeout_ns * 2,
                    state.orig_group_timeout * cap),
            )
        )
        self._audit("escalate", node.name, "group-commit",
                    (old_bytes, old_timeout), (new_bytes, new_timeout),
                    1, signals)

    def _prioritize_destage(self, node, state, signals):
        scheduler = node.device.conventional.scheduler
        state.orig_mode = scheduler.mode
        scheduler.mode = SchedulingMode.DESTAGE_PRIORITY
        self._audit("escalate", node.name, "scheduler-mode",
                    state.orig_mode.value, scheduler.mode.value, 2, signals)

    def _shed_admission(self, node, state, signals):
        admission = node.admission
        floor = int(admission.baseline_max_outstanding_bytes
                    * self.min_ceiling_fraction)
        target = max(admission.max_outstanding_bytes // 2, floor, 1)
        old, new = admission.set_ceiling(target)
        state.orig_ceiling = old
        self._audit("escalate", node.name, "admission-ceiling", old, new,
                    3, signals)
        lane = self._hottest_lane(admission)
        if lane is not None:
            state.weighted_lane = lane
            old_weight, new_weight = admission.set_lane_weight(
                lane, self.shed_lane_weight)
            state.orig_lane_weight = old_weight
            self._audit("escalate", node.name, f"lane-weight:{lane}",
                        old_weight, new_weight, 3, signals)

    def _hottest_lane(self, admission):
        """The lane shedding should lean on: the most-rejected writer."""
        counts = admission.rejections_by_writer
        if not counts:
            return None
        return max(sorted(counts), key=lambda writer: counts[writer])

    def _degrade_replication(self, node, state, signals):
        transport = node.cluster.primary.device.transport
        current = transport.policy.name
        if current == self.degraded_policy:
            # The chain supervisor's brownout beat us to it; nothing to
            # do, and nothing to restore on the way down.
            state.orig_policy = None
            self._audit("escalate", node.name, "replication-policy",
                        current, current, 4, signals)
            return
        state.orig_policy = current
        node.cluster.set_replication_policy(self.degraded_policy)
        self._audit("escalate", node.name, "replication-policy",
                    current, self.degraded_policy, 4, signals)

    # -- de-escalation (one rung down, exact inverse) --------------------------------

    def _deescalate(self, node, state, signals):
        before = self._fence(node)
        rung = state.level
        if rung == 4:
            self._restore_replication(node, state, signals)
        elif rung == 3:
            self._restore_admission(node, state, signals)
        elif rung == 2:
            self._restore_scheduler(node, state, signals)
        elif rung == 1:
            self._restore_group_commit(node, state, signals)
        state.level = rung - 1
        after = self._fence(node)
        self._check_fence(node, before, after, f"deescalate->{rung - 1}",
                          signals)

    def _restore_replication(self, node, state, signals):
        if state.orig_policy is None:
            self._audit("deescalate", node.name, "replication-policy",
                        self.degraded_policy, self.degraded_policy, 3,
                        signals)
            return
        node.cluster.set_replication_policy(state.orig_policy)
        self._audit("deescalate", node.name, "replication-policy",
                    self.degraded_policy, state.orig_policy, 3, signals)
        state.orig_policy = None

    def _restore_admission(self, node, state, signals):
        admission = node.admission
        old, new = admission.set_ceiling(state.orig_ceiling)
        self._audit("deescalate", node.name, "admission-ceiling", old, new,
                    2, signals)
        state.orig_ceiling = None
        if state.weighted_lane is not None:
            old_weight, new_weight = admission.set_lane_weight(
                state.weighted_lane, state.orig_lane_weight)
            self._audit("deescalate", node.name,
                        f"lane-weight:{state.weighted_lane}",
                        old_weight, new_weight, 2, signals)
            state.weighted_lane = None
            state.orig_lane_weight = None

    def _restore_scheduler(self, node, state, signals):
        scheduler = node.device.conventional.scheduler
        old = scheduler.mode
        scheduler.mode = state.orig_mode
        self._audit("deescalate", node.name, "scheduler-mode", old.value,
                    scheduler.mode.value, 1, signals)
        state.orig_mode = None

    def _restore_group_commit(self, node, state, signals):
        lm = node.database.log_manager
        (old_bytes, new_bytes), (old_timeout, new_timeout) = (
            lm.set_group_commit(
                group_commit_bytes=state.orig_group_bytes,
                group_commit_timeout_ns=state.orig_group_timeout,
            )
        )
        self._audit("deescalate", node.name, "group-commit",
                    (old_bytes, old_timeout), (new_bytes, new_timeout),
                    0, signals)
        state.orig_group_bytes = None
        state.orig_group_timeout = None

    # -- the seeded bug -------------------------------------------------------------

    def _seeded_shed_acked(self, node):
        """Deliberate protocol violation for the ``slo`` checker tier.

        On a rung-3 shed, acknowledge every commit waiter immediately and
        drop the records still pending — acks without durability.  The
        call sits *outside* the fenced window, modeling an actuator code
        path the fence does not cover, so only the end-to-end crash
        oracles (acked-durability, ack-order) can catch it.
        """
        lm = node.database.log_manager
        for commit_lsn, event in lm._waiters:
            if not event.triggered:
                event.succeed(commit_lsn)
        lm._waiters = []
        lm._pending = []
        lm._pending_bytes = 0
