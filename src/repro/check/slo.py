"""SLO-tier crash schedules: durability across controller transitions.

The fleet tier asks whether migration loses acknowledged work; this tier
asks the control-plane question: **can any SLO actuation — escalation or
de-escalation, alone or racing a fault — skip or reorder acked
durability work?**  Every schedule runs a small overloaded fleet with an
:class:`~repro.slo.SloController` closed-loop (tight admission ceiling,
zero think time, fat values: the controller *will* walk its ladder),
then cuts power to every node's primary and audits the wreckage:

* ``slo-overload`` — no perturbations; the terminal crash lands at
  candidate times bracketing the controller's audit events (probed from
  a fault-free run): before the first actuation, at each knob turn,
  between consecutive turns, and at the end — so power loss hits
  exactly at (and exactly between) ladder transitions.
* ``slo-adaptation`` — a chain fault (secondary crash, or an NTB link
  down/up blip) lands at those same instants, forcing the controller's
  transitions to race failover and partition healing to the horizon.

Every shard faces the fleet tier's oracles
(:func:`~repro.check.harness.judge_shards`; no shard migrates here, so
all of them apply to every shard), plus a **controller-sanity** oracle:
the durability fence must be clean, the ladder must move one rung at a
time inside [0, MAX_LEVEL], and every knob must sit inside its
configured bounds.

``seed_shed_acked_bug`` arms the controller's deliberate violation
(acking commit waiters without durability on a rung-3 shed, outside the
fenced window); the acked-durability oracle — not the fence — must
catch it, proving the tier checks durability end to end rather than
trusting the controller's own bookkeeping.
"""

from dataclasses import asdict, dataclass

from repro.check.harness import (
    FLEET_HEAVY_STRIDE,
    crash_fleet,
    inject_node_faults,
    judge_shards,
    start_fleet,
    start_writers,
)
from repro.check.points import bracket_events
from repro.check.schedules import family, interleave
from repro.faults.plan import FaultKind
from repro.slo.controller import (
    GROUP_COMMIT_MAX_FACTOR,
    MAX_LEVEL,
    MIN_CEILING_FRACTION,
)

SLO_FAMILIES = ("slo-overload", "slo-adaptation")


@dataclass
class SloCheckConfig:
    """The SLO checker scenario's knobs (``scenario`` is always "slo").

    The workload is shaped to *force* the ladder: every shard writes
    padded values back to back (no think time) through a deliberately
    small admission ceiling against a low p99 target, so a fault-free
    probe run already walks the controller through shedding.
    ``seed_shed_acked_bug`` arms the controller's seeded mutation.
    """

    scenario: str = "slo"
    seed: int = 0
    nodes: int = 2
    replicas: int = 1
    shards_per_node: int = 3
    transactions: int = 24
    key_space: int = 5
    group_commit_bytes: int = 384
    group_commit_timeout_ns: float = 5_000.0
    value_pad: int = 128
    admission_bytes: int = 4096
    target_p99_ns: float = 15_000.0
    poll_ns: float = 25_000.0
    enter_polls: int = 1
    exit_polls: int = 3
    duration_ns: float = 1_500_000.0
    heal_delay_ns: float = 300_000.0
    grace_ns: float = 400_000.0
    seed_shed_acked_bug: bool = False

    as_dict = asdict

    def __post_init__(self):
        if self.scenario != "slo":
            raise ValueError(f"not an slo config: scenario={self.scenario!r}")
        if self.nodes < 1:
            raise ValueError("the slo scenario needs at least one node")
        if self.shards_per_node < 1:
            raise ValueError("need at least one shard per node")
        for name in ("target_p99_ns", "poll_ns", "duration_ns",
                     "heal_delay_ns", "grace_ns"):
            setattr(self, name, float(getattr(self, name)))


def _build(config):
    run = start_fleet(config, admission_bytes=config.admission_bytes)
    run.controller = run.fleet.enable_slo(
        target_p99_ns=config.target_p99_ns,
        poll_ns=config.poll_ns,
        enter_polls=config.enter_polls,
        exit_polls=config.exit_polls,
        seed_shed_acked_bug=config.seed_shed_acked_bug,
    )
    start_writers(config, run, value_pad=config.value_pad)
    return run


def probe_slo_candidates(config):
    """Fault-free run → candidates bracketing the controller's turns."""
    run = _build(config)
    run.engine.run(until=run.horizon)
    events = [
        (event["time_ns"], f"{event['action']}-L{event['level']}")
        for event in run.controller.events
    ]
    return bracket_events((run.start_ns + config.poll_ns / 2, "pre-control"),
                          events, run.horizon)


def enumerate_slo_schedules(config, candidates):
    """Every SLO schedule over the probed candidates, round-robin mixed.

    Adaptation faults target node0 — the first shard lands there, so it
    carries the overload the controller is reacting to; sites use the
    fleet-scoped naming the per-node injector routing expects.
    """
    horizon = max(time_ns for time_ns, _label in candidates)
    heavy = candidates[::FLEET_HEAVY_STRIDE] or candidates[:1]
    secondary = "node0.secondary-1"
    bridge = "node0.bridge-0"

    crashes = family("slo-adaptation", heavy, secondary, horizon,
                     [(0, FaultKind.REPLICA_CRASH)])
    blips = family("slo-adaptation",
                   [(time_ns, f"{label}-blip") for time_ns, label in heavy],
                   bridge, horizon,
                   [(0, FaultKind.LINK_DOWN),
                    (config.heal_delay_ns, FaultKind.LINK_UP)])
    return interleave([
        family("slo-overload", candidates, "fleet"),
        # Each point's crash then its blip, as one family.
        [schedule for pair in zip(crashes, blips) for schedule in pair],
    ])


def execute_slo_schedule(config, schedule, violations, stats):
    run = _build(config)
    inject_node_faults(run, schedule.plan, config.grace_ns)
    run.engine.run(until=max(schedule.end_time_ns, run.engine.now + 1.0))

    # Freeze the control plane before the autopsy: the controller must
    # not actuate against a crashed device.
    controller = run.controller
    controller.stop()
    crash = crash_fleet(run)
    violations["controller-sanity"] = _controller_violations(
        controller, config
    )
    judge_shards(run, crash, violations, stats)
    stats.update({
        "controller_events": len(controller.events),
        "controller_levels": {
            name: controller.level_of(name)
            for name in sorted(run.fleet.nodes)
        },
        "fence_violations": len(controller.invariant_violations),
    })


def _controller_violations(controller, config):
    """The control plane's own contract, judged from its audit trail.

    * the durability fence recorded no breach;
    * the ladder moved one rung at a time, inside [0, MAX_LEVEL]
      (knob events within one rung share the rung's level);
    * every knob sits inside its configured bounds after the run.
    """
    errors = []
    for breach in controller.invariant_violations:
        errors.append(
            f"durability-fence: {breach['site']} {breach['transition']} "
            f"changed WAL state {breach['before']} -> {breach['after']}"
        )
    levels = {}
    for event in controller.events:
        if event["action"] not in ("escalate", "deescalate"):
            continue
        site = event["site"]
        last = levels.get(site, 0)
        level = event["level"]
        if not 0 <= level <= MAX_LEVEL:
            errors.append(
                f"ladder-bounds: {site} audit level {level} outside "
                f"[0, {MAX_LEVEL}]"
            )
        if event["action"] == "escalate" and level not in (last, last + 1):
            errors.append(
                f"ladder-step: {site} escalated {last} -> {level} "
                f"(must climb one rung at a time)"
            )
        if event["action"] == "deescalate" and level not in (last, last - 1):
            errors.append(
                f"ladder-step: {site} de-escalated {last} -> {level} "
                f"(must descend one rung at a time)"
            )
        levels[site] = level
    cap = config.group_commit_bytes * GROUP_COMMIT_MAX_FACTOR
    for name in sorted(controller.fleet.nodes):
        node = controller.fleet.nodes[name]
        log_manager = node.database.log_manager
        if not (config.group_commit_bytes
                <= log_manager.group_commit_bytes <= cap):
            errors.append(
                f"knob-bounds: {name} group_commit_bytes "
                f"{log_manager.group_commit_bytes} outside "
                f"[{config.group_commit_bytes}, {cap}]"
            )
        admission = node.admission
        floor = int(admission.baseline_max_outstanding_bytes
                    * MIN_CEILING_FRACTION)
        if not (floor <= admission.max_outstanding_bytes
                <= admission.baseline_max_outstanding_bytes):
            errors.append(
                f"knob-bounds: {name} admission ceiling "
                f"{admission.max_outstanding_bytes} outside "
                f"[{floor}, {admission.baseline_max_outstanding_bytes}]"
            )
    return errors
