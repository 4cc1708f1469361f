"""The fleet schedule family catches the seeded cutover ack-ordering bug.

``ShardMigration(early_cutover=True)`` skips DRAIN and CATCHUP: the
shard cuts over to the destination while transactions the source already
acknowledged are still unreplayed.  The fleet checker must (a) pass the
correct protocol across every family, (b) fail the seeded bug with
violations that name the lost acknowledged sequence numbers, (c) shrink
a faulted failing schedule down to the empty plan (the perturbations are
irrelevant — the bug is protocol-intrinsic), and (d) replay a dumped
reproducer to the same verdict.
"""

import json

from repro.check import (
    FleetCheckConfig,
    enumerate_fleet_schedules,
    probe_fleet_candidates,
    replay_reproducer,
    run_check,
    run_schedule,
    shrink_schedule,
)


def test_probe_brackets_the_migration_phases():
    candidates = probe_fleet_candidates(FleetCheckConfig())
    labels = [label for _time, label in candidates]
    assert labels[0] == "pre-copy"
    assert labels[-1] == "end"
    assert "copy" in labels and "cutover" in labels
    times = [time_ns for time_ns, _label in candidates]
    assert times == sorted(times)


def test_enumeration_covers_every_family():
    config = FleetCheckConfig()
    schedules = enumerate_fleet_schedules(
        config, probe_fleet_candidates(config)
    )
    families = {schedule.family for schedule in schedules}
    assert families == {"fleet-cutover-crash", "fleet-partition",
                        "fleet-failover"}
    # Round-robin interleaving: a tiny budget still samples each family.
    assert {s.family for s in schedules[:3]} == families


def test_correct_protocol_passes_each_family():
    config = FleetCheckConfig()
    schedules = enumerate_fleet_schedules(
        config, probe_fleet_candidates(config)
    )
    by_family = {}
    for schedule in schedules:
        by_family.setdefault(schedule.family, schedule)
    for family, schedule in sorted(by_family.items()):
        outcome = run_schedule(config, schedule)
        assert outcome.ok, (
            f"{family} failed under the correct protocol: "
            f"{outcome.flat_violations()[:3]}"
        )


def test_seeded_cutover_bug_is_caught_named_and_shrunk(tmp_path):
    config = FleetCheckConfig(early_cutover=True)
    report = run_check(config, budget=8, out_dir=tmp_path)
    assert not report.ok, "the seeded early-cutover bug went undetected"
    assert report.reproducers, "no reproducer was produced"

    text = " ".join(
        violation
        for outcome in report.failures
        for violation in outcome.flat_violations()
    )
    # The violations must name the class of bug: acknowledged
    # transactions missing from the destination's durable log.
    assert "acked" in text
    assert "s0" in text, "the migrating shard is the one losing acks"

    for entry in report.reproducers:
        # The bug fails with or without perturbations, so shrinking must
        # strip every fault event from faulted schedules.
        assert entry["fault_events"] == 0
        assert entry["violations"]

    path = report.reproducers[0]["path"]
    payload = json.loads(open(path).read())
    assert payload["config"]["scenario"] == "fleet"
    assert payload["violations"]
    outcome = replay_reproducer(path)
    assert not outcome.ok, "replayed reproducer no longer fails"


def test_shrinker_strips_irrelevant_fleet_faults():
    config = FleetCheckConfig(early_cutover=True)
    schedules = enumerate_fleet_schedules(
        config, probe_fleet_candidates(config)
    )
    faulted = next(s for s in schedules
                   if s.family == "fleet-partition" and len(s.plan) == 2)
    assert not run_schedule(config, faulted).ok
    minimal, trials = shrink_schedule(
        faulted, lambda trial: not run_schedule(config, trial).ok
    )
    assert len(minimal.plan) == 0
    assert len(minimal.plan.excluded) == 2
    assert trials >= 2


def test_fixed_bug_reproducer_passes_on_replay(tmp_path):
    """A reproducer dumped under the bug passes once the bug is gone."""
    buggy = FleetCheckConfig(early_cutover=True)
    report = run_check(buggy, budget=4, out_dir=tmp_path,
                       max_reproducers=1)
    assert report.reproducers
    path = report.reproducers[0]["path"]

    # "Fix" the bug by flipping the config flag inside the dump — the
    # same schedule against the correct protocol must pass.
    payload = json.loads(open(path).read())
    payload["config"]["early_cutover"] = False
    fixed_path = tmp_path / "fixed.json"
    fixed_path.write_text(json.dumps(payload))
    outcome = replay_reproducer(fixed_path)
    assert outcome.ok, outcome.flat_violations()[:3]
