"""The checker end-to-end on a healthy stack: enumeration and clean runs."""

import json

import pytest

from repro.check import (
    CheckConfig,
    CrashSchedule,
    DrCheckConfig,
    FleetCheckConfig,
    SloCheckConfig,
    STAGES,
    config_from_dict,
    crash_candidates,
    enumerate_schedules,
    probe_transitions,
    run_check,
    run_schedule,
)
from repro.check.points import stage_coverage


@pytest.fixture(scope="module")
def chain_probe():
    config = CheckConfig(scenario="chain")
    return config, probe_transitions(config)


def test_probe_covers_every_pipeline_stage(chain_probe):
    _config, transitions = chain_probe
    assert stage_coverage(transitions) == list(STAGES)


def test_candidates_include_stage_points_and_midpoints(chain_probe):
    _config, transitions = chain_probe
    candidates = crash_candidates(transitions)
    times = [time_ns for time_ns, _label in candidates]
    assert times == sorted(times)
    assert len(times) == len(set(times))
    labels = {label for _time, label in candidates}
    assert any(label.startswith("after-") for label in labels)
    assert any(not label.startswith("after-") for label in labels)


def test_enumeration_is_deterministic_and_distinct(chain_probe):
    config, transitions = chain_probe
    candidates = crash_candidates(transitions)
    first = enumerate_schedules(config, candidates)
    second = enumerate_schedules(config, candidates)
    assert [s.key() for s in first] == [s.key() for s in second]
    keys = [s.key() for s in first]
    assert len(keys) == len(set(keys))
    families = {s.family for s in first}
    assert families >= {"primary-crash", "dirty-crash", "replica-crash",
                        "replica-flap", "partition", "torn-write", "combo"}


def test_budget_samples_every_family(chain_probe):
    config, transitions = chain_probe
    schedules = enumerate_schedules(config, crash_candidates(transitions))
    head = {s.family for s in schedules[:20]}
    assert head >= {"primary-crash", "dirty-crash", "replica-crash",
                    "partition", "torn-write", "combo"}


def test_schedule_dict_round_trip(chain_probe):
    config, transitions = chain_probe
    schedules = enumerate_schedules(config, crash_candidates(transitions))
    with_faults = next(s for s in schedules if len(s.plan))
    clone = CrashSchedule.from_dict(
        json.loads(json.dumps(with_faults.as_dict()))
    )
    assert clone.key() == with_faults.key()
    assert clone.end_time_ns == with_faults.end_time_ns


def test_clean_chain_schedules_pass():
    config = CheckConfig(scenario="chain")
    report = run_check(config, budget=12)
    assert report.ok
    assert len(report.outcomes) == 12
    assert report.distinct_schedules == 12
    for outcome in report.outcomes:
        assert outcome.stats["commits_submitted"] > 0


@pytest.mark.parametrize("scenario", ["local", "multiwriter"])
def test_clean_standalone_schedules_pass(scenario):
    config = CheckConfig(scenario=scenario)
    report = run_check(config, budget=8)
    assert report.ok
    assert len(report.outcomes) == 8


def test_run_schedule_is_deterministic():
    config = CheckConfig(scenario="chain")
    candidates = crash_candidates(probe_transitions(config))
    schedule = enumerate_schedules(config, candidates)[3]
    first = run_schedule(config, schedule)
    second = run_schedule(config, schedule)
    assert first.ok == second.ok
    assert first.stats == second.stats


def test_dirty_crash_reports_lost_reserve_energy():
    config = CheckConfig(scenario="local")
    candidates = crash_candidates(probe_transitions(config))
    schedules = enumerate_schedules(config, candidates)
    dirty = next(s for s in schedules if s.family == "dirty-crash")
    outcome = run_schedule(config, dirty)
    assert outcome.ok  # losing unacked data cleanly is not a violation
    assert outcome.stats["reserve_energy_ok"] is False


def test_report_as_dict_is_json_ready():
    config = CheckConfig(scenario="local")
    report = run_check(config, budget=4)
    payload = json.loads(json.dumps(report.as_dict(), sort_keys=True))
    assert payload["ok"] is True
    assert payload["schedules_run"] == 4
    assert payload["schedules_enumerated"] >= 4


def test_cli_smoke(tmp_path, capsys):
    from repro.check.__main__ import main

    status = main(["--scenario", "local", "--budget", "4",
                   "--out-dir", str(tmp_path / "repros"),
                   "--json", str(tmp_path / "report.json")])
    assert status == 0
    out = capsys.readouterr().out
    assert "all schedules passed" in out
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["ok"] is True


@pytest.mark.parametrize("argv, status, expected", [
    (["--scenario", "chain", "--seeded-bug"], 2, "has no seeded mutation"),
    (["--scenario", "slo", "--supervised"], 2,
     "--supervised does not apply to --scenario slo"),
    (["--scenario", "local", "--nodes", "3"], 2,
     "--nodes does not apply to --scenario local"),
    (["--scenario", "local", "--supervised"], 2,
     "supervised checking needs the chain scenario"),
    (["--scenario", "fleet", "--seeded-bug", "--budget", "2"], 1,
     {"scenario": "fleet", "early_cutover": True, "nodes": 2}),
    (["--scenario", "slo", "--transactions", "3", "--nodes", "1",
      "--budget", "1"], 0,
     {"scenario": "slo", "transactions": 3, "nodes": 1,
      "seed_shed_acked_bug": False}),
    (["--scenario", "dr", "--seed", "5", "--budget", "1"], 0,
     {"scenario": "dr", "seed": 5, "nodes": 2, "transactions": 10}),
], ids=["chain-seeded-bug", "slo-supervised", "local-nodes",
        "local-supervised", "fleet-seeded-bug", "slo-transactions",
        "dr-seed"])
def test_cli_applies_every_flag_or_rejects_it(argv, status, expected,
                                              tmp_path, capsys):
    """A flag the chosen tier cannot take is a usage error, never dropped.

    Accepted flags must reach the config; flags left unset must leave the
    tier's own defaults in force.
    """
    from repro.check.__main__ import main

    report = tmp_path / "report.json"
    try:
        code = main(argv + ["--quiet", "--out-dir", str(tmp_path / "repros"),
                            "--json", str(report)])
    except SystemExit as exit_:
        code = exit_.code
    assert code == status
    if status == 2:
        assert expected in capsys.readouterr().err
        assert not report.exists()
    else:
        config = json.loads(report.read_text())["config"]
        assert {name: config[name] for name in expected} == expected


@pytest.mark.parametrize("config_class, foreign", [
    (CheckConfig, "fleet"),
    (FleetCheckConfig, "chain"),
    (DrCheckConfig, "fleet"),
    (SloCheckConfig, "fleet"),
], ids=["check", "fleet", "dr", "slo"])
def test_config_round_trips(config_class, foreign):
    config = config_class(seed=3)
    rebuilt = config_from_dict(json.loads(json.dumps(config.as_dict())))
    assert type(rebuilt) is config_class
    assert rebuilt.as_dict() == config.as_dict()
    with pytest.raises(ValueError):
        config_class(scenario=foreign)


@pytest.mark.parametrize("config_class", [
    CheckConfig, FleetCheckConfig, DrCheckConfig, SloCheckConfig,
], ids=["check", "fleet", "dr", "slo"])
def test_config_times_serialize_as_floats(config_class):
    payload = config_class(duration_ns=1_000_000, grace_ns=400_000).as_dict()
    assert payload["duration_ns"] == 1_000_000.0
    assert isinstance(payload["duration_ns"], float)
    if config_class is not CheckConfig:
        # The fleet tiers coerce every time knob, the chain tier only the
        # run length.
        assert isinstance(payload["grace_ns"], float)


def test_invalid_scenario_rejected():
    with pytest.raises(ValueError):
        CheckConfig(scenario="starfleet")
    with pytest.raises(ValueError):
        CheckConfig(scenario="chain", secondaries=0)
