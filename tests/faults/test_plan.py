"""Fault-plan data model: ordering, round-trips, seeded generation."""

import json

import pytest

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec, SERVER_SITED_KINDS


def test_specs_sort_by_time():
    plan = FaultPlan([
        FaultSpec(3000.0, "secondary-1", FaultKind.SUPERCAP_FAIL),
        FaultSpec(1000.0, "bridge-0", FaultKind.LINK_DOWN),
        FaultSpec(2000.0, "bridge-0", FaultKind.LINK_UP),
    ])
    assert [spec.time_ns for spec in plan] == [1000.0, 2000.0, 3000.0]


def test_add_keeps_order_and_chains():
    plan = FaultPlan()
    result = plan.add(500.0, "secondary-1", FaultKind.CMB_TORN_WRITE)
    plan.add(100.0, "bridge-0", FaultKind.LINK_CORRUPT, count=2)
    assert result is plan
    assert [spec.kind for spec in plan] == [
        FaultKind.LINK_CORRUPT, FaultKind.CMB_TORN_WRITE]
    assert plan.specs[0].params == {"count": 2}


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        FaultSpec(-1.0, "bridge-0", FaultKind.LINK_DOWN)


def test_kind_coerced_from_string():
    spec = FaultSpec(0.0, "secondary-1", "replica-crash")
    assert spec.kind is FaultKind.REPLICA_CRASH


def test_dict_round_trip_preserves_everything():
    original = FaultPlan([
        FaultSpec(100.0, "secondary-2", FaultKind.NAND_PROGRAM_FAIL,
                  {"count": 2}),
        FaultSpec(200.0, "bridge-1", FaultKind.LINK_LATENCY_SPIKE,
                  {"extra_ns": 9000.0, "duration_ns": 50_000.0}),
    ])
    restored = FaultPlan.from_dicts(original.as_dicts())
    assert restored.as_dicts() == original.as_dicts()


def test_json_round_trip_via_string_and_file(tmp_path):
    plan = FaultPlan([
        FaultSpec(123.0, "bridge-0", FaultKind.LINK_DOWN),
        FaultSpec(456.0, "bridge-0", FaultKind.LINK_UP),
    ])
    assert FaultPlan.load(plan.to_json()).as_dicts() == plan.as_dicts()
    path = tmp_path / "plan.json"
    plan.to_json(str(path))
    assert FaultPlan.load(str(path)).as_dicts() == plan.as_dicts()


@pytest.mark.parametrize("layout", ["bare-list", "faults", "plan"])
def test_load_accepts_every_plan_file_layout(tmp_path, layout):
    """The ``--faults`` flag reads hand-written plan files in three
    layouts; each loads the same plan as the canonical form."""
    entries = [
        {"time_ns": 456.0, "site": "bridge-0", "kind": "link-up"},
        {"time_ns": 123.0, "site": "bridge-0", "kind": "link-down"},
    ]
    payload = {"bare-list": entries, "faults": {"faults": entries},
               "plan": {"plan": entries}}[layout]
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(payload))
    expected = FaultPlan.from_dicts(entries).as_dicts()
    assert FaultPlan.load(str(path)).as_dicts() == expected
    assert FaultPlan.load(path).as_dicts() == expected
    assert FaultPlan.load(json.dumps(payload)).as_dicts() == expected


def test_later_specs_filters():
    plan = FaultPlan([
        FaultSpec(100.0, "secondary-1", FaultKind.REPLICA_CRASH),
        FaultSpec(300.0, "secondary-1", FaultKind.REPLICA_REJOIN),
        FaultSpec(300.0, "secondary-2", FaultKind.REPLICA_REJOIN),
    ])
    later = plan.later_specs(100.0, kind=FaultKind.REPLICA_REJOIN,
                             site="secondary-1")
    assert len(later) == 1
    assert later[0].site == "secondary-1"
    assert plan.later_specs(300.0) == []


def test_random_plan_is_seed_deterministic():
    kwargs = dict(duration_ns=8e6, secondary_names=["secondary-1",
                                                    "secondary-2"],
                  bridge_count=2, events=8)
    a = FaultPlan.random(11, **kwargs)
    b = FaultPlan.random(11, **kwargs)
    c = FaultPlan.random(12, **kwargs)
    assert a.as_dicts() == b.as_dicts()
    assert a.as_dicts() != c.as_dicts()


def test_random_plan_respects_window_and_pairing():
    duration = 8e6
    for seed in range(20):
        plan = FaultPlan.random(seed, duration,
                                ["secondary-1", "secondary-2"],
                                bridge_count=2, events=6)
        downs = [s for s in plan if s.kind is FaultKind.LINK_DOWN]
        ups = [s for s in plan if s.kind is FaultKind.LINK_UP]
        assert len(ups) == len(downs)
        for spec in plan:
            assert 0.05 * duration <= spec.time_ns <= 0.95 * duration
            if spec.kind in SERVER_SITED_KINDS:
                assert spec.site.startswith("secondary-")
            else:
                assert spec.site.startswith("bridge-")


def test_random_plan_include_kinds_restricts():
    plan = FaultPlan.random(
        3, 8e6, ["secondary-1"], bridge_count=1, events=10,
        include_kinds=[FaultKind.CMB_TORN_WRITE],
    )
    assert plan.kinds() <= {FaultKind.CMB_TORN_WRITE}
    assert len(plan) > 0


def test_without_moves_spec_to_excluded():
    plan = FaultPlan([
        FaultSpec(100.0, "secondary-1", FaultKind.REPLICA_CRASH),
        FaultSpec(200.0, "bridge-0", FaultKind.LINK_DOWN),
        FaultSpec(300.0, "bridge-0", FaultKind.LINK_UP),
    ])
    smaller = plan.without(1)
    assert len(smaller) == 2
    assert len(smaller.excluded) == 1
    assert smaller.excluded[0].kind is FaultKind.LINK_DOWN
    # The original plan is untouched (without() is a pure operation).
    assert len(plan) == 3 and plan.excluded == []
    # Chaining accumulates exclusions.
    tiny = smaller.without(0)
    assert len(tiny) == 1
    assert {spec.kind for spec in tiny.excluded} == {
        FaultKind.REPLICA_CRASH, FaultKind.LINK_DOWN}


def test_excluded_round_trips_through_json():
    plan = FaultPlan(
        [FaultSpec(100.0, "secondary-1", FaultKind.REPLICA_CRASH)],
        excluded=[FaultSpec(50.0, "bridge-0", FaultKind.LINK_CORRUPT,
                            {"count": 2})],
    )
    restored = FaultPlan.load(plan.to_json())
    assert restored.as_dicts() == plan.as_dicts()
    assert [s.as_dict() for s in restored.excluded] == [
        s.as_dict() for s in plan.excluded]
    # A plan with no exclusions omits the key entirely.
    bare = FaultPlan([FaultSpec(1.0, "bridge-0", FaultKind.LINK_DOWN)])
    assert "excluded" not in bare.to_json()


def test_serialization_is_byte_stable_across_construction_order():
    specs = [
        FaultSpec(200.0, "bridge-0", FaultKind.LINK_UP),
        FaultSpec(100.0, "secondary-2", FaultKind.SUPERCAP_FAIL),
        FaultSpec(100.0, "secondary-1", FaultKind.SUPERCAP_FAIL),
        FaultSpec(100.0, "secondary-1", FaultKind.CMB_TORN_WRITE),
    ]
    a = FaultPlan(specs)
    b = FaultPlan(list(reversed(specs)))
    c = FaultPlan()
    for spec in [specs[2], specs[0], specs[3], specs[1]]:
        c.add(spec.time_ns, spec.site, spec.kind, **spec.params)
    assert a.to_json() == b.to_json() == c.to_json()
    # Same-time entries are ordered by site then kind, not insertion.
    sites_kinds = [(s.site, s.kind) for s in a if s.time_ns == 100.0]
    assert sites_kinds == [
        ("secondary-1", FaultKind.CMB_TORN_WRITE),
        ("secondary-1", FaultKind.SUPERCAP_FAIL),
        ("secondary-2", FaultKind.SUPERCAP_FAIL),
    ]


def test_excluded_lists_also_canonicalize():
    excluded = [
        FaultSpec(300.0, "bridge-1", FaultKind.LINK_CORRUPT, {"count": 1}),
        FaultSpec(100.0, "secondary-1", FaultKind.REPLICA_CRASH),
    ]
    a = FaultPlan([], excluded=excluded)
    b = FaultPlan([], excluded=list(reversed(excluded)))
    assert a.to_json() == b.to_json()
    assert [s.time_ns for s in a.excluded] == [100.0, 300.0]
