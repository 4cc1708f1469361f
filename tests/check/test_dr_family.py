"""The DR schedule families catch the seeded dropped-segment archiver bug.

``DrCheckConfig(drop_segment=True)`` seeds the silent-drop bug: segment
0 is sealed, entered into the manifest, and counted as archived — but
the object never goes out.  The DR checker must (a) pass the correct
protocol across both families, (b) fail the seeded bug with violations
naming the missing WAL object, (c) shrink a faulted failing schedule
down to the empty plan (the grid perturbations are irrelevant — the
bug drops the segment with or without them), and (d) replay a dumped
reproducer to the same verdict, flipping to a pass once the bug is
"fixed" inside the dump.
"""

import json

from repro.check import (
    DR_FAMILIES,
    DrCheckConfig,
    enumerate_dr_schedules,
    probe_dr_candidates,
    replay_reproducer,
    run_check,
    run_schedule,
    shrink_schedule,
)


def test_probe_brackets_the_archiver_events():
    config = DrCheckConfig(nodes=1)
    candidates = probe_dr_candidates(config)
    labels = [label for _time, label in candidates]
    assert labels[0] == "early"
    assert labels[-1] == "end"
    assert any(label.startswith("ship-segment") for label in labels), (
        "no segment ever sealed during the probe run"
    )
    assert any(label.endswith("-mid") for label in labels), (
        "no mid-lag candidate between archiver events"
    )
    times = [time_ns for time_ns, _label in candidates]
    assert times == sorted(times)


def test_enumeration_covers_both_families():
    config = DrCheckConfig(nodes=1)
    schedules = enumerate_dr_schedules(config, probe_dr_candidates(config))
    families = {schedule.family for schedule in schedules}
    assert families == set(DR_FAMILIES)
    # Round-robin interleaving: a tiny budget still samples each family.
    assert {s.family for s in schedules[:2]} == families
    # Archive-lag schedules run to the horizon and carry grid faults.
    horizon = max(s.end_time_ns for s in schedules)
    for schedule in schedules:
        if schedule.family == "dr-archive-lag":
            assert schedule.end_time_ns == horizon
            assert len(schedule.plan) >= 1
            assert all(spec.site == "grid" for spec in schedule.plan)


def test_correct_protocol_passes_each_family():
    config = DrCheckConfig()
    schedules = enumerate_dr_schedules(config, probe_dr_candidates(config))
    by_family = {}
    for schedule in schedules:
        by_family.setdefault(schedule.family, schedule)
    assert set(by_family) == set(DR_FAMILIES)
    for family, schedule in sorted(by_family.items()):
        outcome = run_schedule(config, schedule)
        assert outcome.ok, (
            f"{family} failed under the correct protocol: "
            f"{outcome.flat_violations()[:3]}"
        )


def test_seeded_dropped_segment_is_caught_named_and_shrunk(tmp_path):
    config = DrCheckConfig(nodes=1, drop_segment=True)
    report = run_check(config, budget=6, out_dir=tmp_path,
                       max_reproducers=1)
    assert not report.ok, "the seeded dropped-segment bug went undetected"
    assert report.reproducers, "no reproducer was produced"

    text = " ".join(
        violation
        for outcome in report.failures
        for violation in outcome.flat_violations()
    )
    # The violations must name the class of bug: the manifest claims a
    # WAL segment the grid never received.
    assert "missing object" in text
    assert "wal/000000" in text, "the dropped segment is the one missing"

    for entry in report.reproducers:
        # The drop happens with or without grid perturbations, so
        # shrinking must strip every fault event (well under the ≤5
        # events a minimal reproducer is allowed).
        assert entry["fault_events"] == 0
        assert entry["fault_events"] <= 5
        assert entry["violations"]

    path = report.reproducers[0]["path"]
    payload = json.loads(open(path).read())
    assert payload["config"]["scenario"] == "dr"
    assert payload["config"]["drop_segment"] is True
    assert payload["violations"]
    outcome = replay_reproducer(path)
    assert not outcome.ok, "replayed reproducer no longer fails"


def test_shrinker_strips_irrelevant_grid_faults():
    config = DrCheckConfig(nodes=1, drop_segment=True)
    schedules = enumerate_dr_schedules(config, probe_dr_candidates(config))
    faulted = next(s for s in schedules
                   if s.family == "dr-archive-lag" and len(s.plan) == 2)
    assert not run_schedule(config, faulted).ok
    minimal, trials = shrink_schedule(
        faulted, lambda trial: not run_schedule(config, trial).ok
    )
    assert len(minimal.plan) == 0
    assert len(minimal.plan.excluded) == 2
    assert trials >= 2


def test_fixed_bug_reproducer_passes_on_replay(tmp_path):
    """A reproducer dumped under the bug passes once the bug is gone."""
    buggy = DrCheckConfig(nodes=1, drop_segment=True)
    report = run_check(buggy, budget=3, out_dir=tmp_path,
                       max_reproducers=1)
    assert report.reproducers
    path = report.reproducers[0]["path"]

    # "Fix" the bug by flipping the config flag inside the dump — the
    # same schedule against the correct archiver must pass.
    payload = json.loads(open(path).read())
    payload["config"]["drop_segment"] = False
    fixed_path = tmp_path / "fixed.json"
    fixed_path.write_text(json.dumps(payload))
    outcome = replay_reproducer(fixed_path)
    assert outcome.ok, outcome.flat_violations()[:3]
