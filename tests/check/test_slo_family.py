"""The SLO schedule families catch the seeded shed-acked-commits bug.

``SloCheckConfig(seed_shed_acked_bug=True)`` arms the controller's
deliberate violation: on a rung-3 escalation it "sheds" by succeeding
every WAL commit waiter without durability — acks for work that never
reached flash, performed *outside* the controller's own fenced window so
its self-audit stays clean.  The SLO checker must (a) pass the correct
controller across both families while the ladder demonstrably walks up
and back down, (b) fail the seeded bug via the end-to-end
acked-durability oracle (not the controller's bookkeeping), (c) shrink
a faulted failing schedule to the empty plan (overload alone triggers
rung 3 — the chain faults are irrelevant), and (d) replay a dumped
reproducer to the same verdict, flipping to a pass once the bug is
"fixed" inside the dump.
"""

import json

from repro.check import (
    SLO_FAMILIES,
    SloCheckConfig,
    enumerate_slo_schedules,
    probe_slo_candidates,
    replay_reproducer,
    run_check,
    run_schedule,
    shrink_schedule,
)


def test_probe_brackets_the_controller_ladder():
    config = SloCheckConfig()
    candidates = probe_slo_candidates(config)
    labels = [label for _time, label in candidates]
    assert labels[0] == "pre-control"
    assert labels[-1] == "end"
    # The probe workload must actually walk the ladder both ways —
    # crash candidates at escalations AND de-escalations.
    assert any(label.startswith("escalate-") for label in labels), (
        "the fault-free probe never escalated; the workload is too light"
    )
    assert any(label.startswith("deescalate-") for label in labels), (
        "the fault-free probe never de-escalated"
    )
    assert any(label.endswith("-mid") for label in labels), (
        "no between-transitions candidate"
    )
    times = [time_ns for time_ns, _label in candidates]
    assert times == sorted(times)


def test_enumeration_covers_both_families():
    config = SloCheckConfig()
    schedules = enumerate_slo_schedules(config,
                                        probe_slo_candidates(config))
    families = {schedule.family for schedule in schedules}
    assert families == set(SLO_FAMILIES)
    # Round-robin interleaving: a tiny budget still samples each family.
    assert {s.family for s in schedules[:2]} == families
    horizon = max(s.end_time_ns for s in schedules)
    for schedule in schedules:
        if schedule.family == "slo-overload":
            assert len(schedule.plan) == 0
        else:
            # Adaptation faults race the controller to the horizon.
            assert schedule.end_time_ns == horizon
            assert len(schedule.plan) >= 1
            assert all(spec.site.startswith("node0.")
                       for spec in schedule.plan)


def test_correct_controller_passes_each_family():
    config = SloCheckConfig()
    schedules = enumerate_slo_schedules(config,
                                        probe_slo_candidates(config))
    # The latest-ending schedule per family: the crash lands after the
    # controller has walked its ladder, so the sanity oracle judges a
    # control plane that actually moved.
    by_family = {}
    for schedule in schedules:
        incumbent = by_family.get(schedule.family)
        if incumbent is None or schedule.end_time_ns > incumbent.end_time_ns:
            by_family[schedule.family] = schedule
    assert set(by_family) == set(SLO_FAMILIES)
    for family, schedule in sorted(by_family.items()):
        outcome = run_schedule(config, schedule)
        assert outcome.ok, (
            f"{family} failed under the correct controller: "
            f"{outcome.flat_violations()[:3]}"
        )
        assert outcome.stats["controller_events"] > 0
        assert outcome.stats["fence_violations"] == 0


def test_seeded_shed_acked_is_caught_named_and_shrunk(tmp_path):
    config = SloCheckConfig(seed_shed_acked_bug=True)
    report = run_check(config, budget=8, out_dir=tmp_path,
                       max_reproducers=1)
    assert not report.ok, "the seeded shed-acked bug went undetected"
    assert report.reproducers, "no reproducer was produced"

    text = " ".join(
        violation
        for outcome in report.failures
        for violation in outcome.flat_violations()
    )
    # The violations must name the class of bug: acknowledged work that
    # is not durable on the owner — caught end to end, not by the
    # controller's own fence (which the bug deliberately sidesteps).
    assert "acked-durability" in text
    assert "not durable" in text
    assert "durability-fence" not in text

    for entry in report.reproducers:
        # Overload alone drives the ladder to rung 3, so shrinking must
        # strip every chain fault.
        assert entry["fault_events"] == 0
        assert entry["violations"]

    path = report.reproducers[0]["path"]
    payload = json.loads(open(path).read())
    assert payload["config"]["scenario"] == "slo"
    assert payload["config"]["seed_shed_acked_bug"] is True
    assert payload["violations"]
    outcome = replay_reproducer(path)
    assert not outcome.ok, "replayed reproducer no longer fails"


def test_shrinker_strips_irrelevant_chain_faults():
    config = SloCheckConfig(seed_shed_acked_bug=True)
    schedules = enumerate_slo_schedules(config,
                                        probe_slo_candidates(config))
    faulted = next(s for s in schedules
                   if s.family == "slo-adaptation" and len(s.plan) == 2)
    assert not run_schedule(config, faulted).ok
    minimal, trials = shrink_schedule(
        faulted, lambda trial: not run_schedule(config, trial).ok
    )
    assert len(minimal.plan) == 0
    assert len(minimal.plan.excluded) == 2
    assert trials >= 2


def test_fixed_bug_reproducer_passes_on_replay(tmp_path):
    """A reproducer dumped under the bug passes once the bug is gone."""
    buggy = SloCheckConfig(seed_shed_acked_bug=True)
    report = run_check(buggy, budget=4, out_dir=tmp_path,
                       max_reproducers=1)
    assert report.reproducers
    path = report.reproducers[0]["path"]

    # "Fix" the bug by flipping the config flag inside the dump — the
    # same schedule under the correct controller must pass.
    payload = json.loads(open(path).read())
    payload["config"]["seed_shed_acked_bug"] = False
    fixed_path = tmp_path / "fixed.json"
    fixed_path.write_text(json.dumps(payload))
    outcome = replay_reproducer(fixed_path)
    assert outcome.ok, outcome.flat_violations()[:3]
