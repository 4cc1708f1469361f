"""Cross-run determinism: one seed, one byte stream.

The whole chaos harness hangs off this property: a failure found at
seed N can be replayed, bisected and fixed at seed N.  The scenario
result is compared as serialized JSON so *any* drift — event ordering,
float formatting, dict iteration — shows up, not just the fields a
hand-written comparison happens to look at.
"""

import json

from repro.faults import FaultPlan, run_chaos
from repro.faults.plan import FaultKind, FaultSpec


def canonical(result):
    return json.dumps(result, sort_keys=True)


def test_same_seed_same_bytes():
    first = canonical(run_chaos(seed=7, transactions=120))
    again = canonical(run_chaos(seed=7, transactions=120))
    assert first == again


def test_different_seeds_differ():
    a = canonical(run_chaos(seed=7, transactions=120))
    b = canonical(run_chaos(seed=8, transactions=120))
    assert a != b


def test_explicit_plan_replays_from_serialized_form():
    plan = FaultPlan([
        FaultSpec(1_000_000.0, "bridge-0", FaultKind.LINK_DOWN),
        FaultSpec(2_000_000.0, "bridge-0", FaultKind.LINK_UP),
        FaultSpec(3_000_000.0, "secondary-1", FaultKind.CMB_TORN_WRITE),
    ])
    first = run_chaos(seed=3, transactions=120, plan=plan)
    # Round-trip the plan through JSON, as `--faults plan.json` would.
    replayed_plan = FaultPlan.load(
        FaultPlan.from_dicts(first["plan"]).to_json())
    again = run_chaos(seed=3, transactions=120, plan=replayed_plan)
    assert canonical(first) == canonical(again)


def test_crash_reports_reproduce_exactly():
    plan = FaultPlan([
        FaultSpec(2_000_000.0, "secondary-1", FaultKind.REPLICA_CRASH),
    ])
    first = run_chaos(seed=11, transactions=120, plan=plan)
    again = run_chaos(seed=11, transactions=120, plan=plan)
    assert first["secondary_crash_reports"] == again["secondary_crash_reports"]
    assert first["crash_report"] == again["crash_report"]
    assert first["fault_log"] == again["fault_log"]
