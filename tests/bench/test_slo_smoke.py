"""Golden regression + smoke for ``python -m repro.bench slo``.

The default compressed-day cell (two nodes, twelve Zipf tenants, flash
crowds) frozen into ``tests/bench/golden/slo.json``.  Structural
assertions guard the acceptance story — the controller must violate
materially fewer windows than the uncontrolled baseline and its
durability fence must stay clean — while the golden file pins the
deterministic numbers, down to every controller audit event and the
signals it acted on, so a physics, scheduling, or controller-policy
change shows up as a diff, not a silent curve shift.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python tests/bench/test_slo_smoke.py regen
"""

import json
import math
from pathlib import Path

import pytest

from repro.bench.slo import run_slo_bench
from repro.cluster.fleet import Fleet

GOLDEN_PATH = Path(__file__).parent / "golden" / "slo.json"
ROUND_DIGITS = 6
REL_TOL = 1e-6

SMOKE_KW = dict(
    nodes=2,
    tenants=12,
    day_ms=3.0,
    windows=12,
    target_p99_us=150.0,
    seed=7,
)


def _round(value):
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return repr(value)
        return round(value, ROUND_DIGITS)
    if isinstance(value, dict):
        return {key: _round(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(item) for item in value]
    return value


def run_capturing_audit():
    """The smoke day, plus the controlled run's full audit-event list."""
    controllers = []
    enable_slo = Fleet.enable_slo

    def capture(fleet, *args, **kwargs):
        controller = enable_slo(fleet, *args, **kwargs)
        controllers.append(controller)
        return controller

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fleet, "enable_slo", capture)
        result = run_slo_bench(**SMOKE_KW)
    (controller,) = controllers
    return result, controller.events


def compute():
    result, events = run_capturing_audit()
    runs = {}
    for label, run in result["runs"].items():
        runs[label] = {
            "commits": run["commits"],
            "rejections": run["rejections"],
            "violated_windows": run["violated_windows"],
            "slo_minutes_violated": _round(run["slo_minutes_violated"]),
            "window_p99_ns": [
                _round(window["p99_ns"]) for window in run["windows"]
            ],
        }
    controlled = result["runs"]["controlled"]
    return {
        "runs": runs,
        "slo_minutes_saved": _round(result["slo_minutes_saved"]),
        "escalations": controlled["escalations"],
        "deescalations": controlled["deescalations"],
        "invariant_violations": controlled["invariant_violations"],
        "final_levels": controlled["final_levels"],
        "audit": _round(events),
    }


# -- structural assertions (independent of golden values) ----------------------------


@pytest.fixture(scope="module")
def result():
    return run_slo_bench(**SMOKE_KW)


def test_report_shape(result):
    assert set(result["runs"]) == {"baseline", "controlled"}
    for run in result["runs"].values():
        assert run["commits"] > 0
        assert len(run["windows"]) == SMOKE_KW["windows"]
        for window in run["windows"]:
            assert window["violated"] in (True, False)
    controlled = result["runs"]["controlled"]
    assert controlled["audit_events"] > 0


def test_controller_saves_slo_minutes(result):
    """The tentpole acceptance: materially fewer SLO-minutes violated."""
    baseline = result["runs"]["baseline"]
    controlled = result["runs"]["controlled"]
    assert baseline["violated_windows"] > controlled["violated_windows"]
    assert result["slo_minutes_saved"] >= 480.0, (
        f"controller saved only {result['slo_minutes_saved']} SLO-minutes"
    )
    # And it holds p99 within target for most of the day after the first
    # crowd lands (the first overloaded window is spent detecting).
    held = sum(1 for window in controlled["windows"]
               if not window["violated"])
    assert held >= SMOKE_KW["windows"] // 2


def test_controller_escalates_and_recovers(result):
    controlled = result["runs"]["controlled"]
    assert controlled["escalations"] >= 1
    assert controlled["deescalations"] >= 1


def test_durability_fence_is_clean(result):
    assert result["runs"]["controlled"]["invariant_violations"] == 0


def test_controller_improves_throughput(result):
    baseline = result["runs"]["baseline"]
    controlled = result["runs"]["controlled"]
    assert controlled["commits"] > baseline["commits"]


def test_slo_bench_is_deterministic():
    assert json.dumps(compute(), sort_keys=True) == json.dumps(
        compute(), sort_keys=True
    )


# -- the golden pin ------------------------------------------------------------------


def test_matches_golden(result):
    assert GOLDEN_PATH.exists(), (
        f"missing golden {GOLDEN_PATH}; regenerate with "
        f"`PYTHONPATH=src python {__file__} regen`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    actual = compute()
    assert set(actual["runs"]) == set(golden["runs"])
    for label, pin in golden["runs"].items():
        run = actual["runs"][label]
        assert set(run) == set(pin), f"{label}: run keys changed"
        for key in ("commits", "rejections", "violated_windows"):
            assert run[key] == pin[key], (
                f"{label}.{key}: {run[key]!r} != golden {pin[key]!r}"
            )
        assert run["slo_minutes_violated"] == pytest.approx(
            pin["slo_minutes_violated"], rel=REL_TOL)
        assert len(run["window_p99_ns"]) == len(pin["window_p99_ns"])
        for index, (value, expected) in enumerate(
                zip(run["window_p99_ns"], pin["window_p99_ns"])):
            if expected is None or value is None:
                assert value == expected, (
                    f"{label}.window_p99_ns[{index}]: "
                    f"{value!r} != golden {expected!r}"
                )
            else:
                assert value == pytest.approx(expected, rel=REL_TOL), (
                    f"{label}.window_p99_ns[{index}]: "
                    f"{value} != golden {expected}"
                )
    for key in ("escalations", "deescalations", "invariant_violations",
                "final_levels", "audit"):
        assert actual[key] == golden[key], (
            f"{key}: {actual[key]!r} != golden {golden[key]!r}"
        )
    assert actual["slo_minutes_saved"] == pytest.approx(
        golden["slo_minutes_saved"], rel=REL_TOL)


def regen():
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = compute()
    GOLDEN_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        regen()
    else:
        print(f"usage: PYTHONPATH=src python {__file__} regen")
