"""Golden regression for ``python -m repro.bench health``.

Both self-healing scenarios at seed 7 — the replica kill the supervisor
alone must heal, and the overload the admission controller and the
brownout ladder must absorb — frozen into
``tests/bench/golden/health.json``: every supervisor event, fault-log
entry, bound, counter and oracle verdict, floats rounded to six digits.
The scenario tests only check run-to-run determinism and the oracles'
verdicts, so a change to the supervisor's timing or policy constants
shows up here as a diff, not as a silently different timeline.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python tests/bench/test_health_golden.py regen
"""

import json
import math
from pathlib import Path

from repro.health.scenarios import run_failover_scenario, run_overload_scenario

GOLDEN_PATH = Path(__file__).parent / "golden" / "health.json"
ROUND_DIGITS = 6
SEED = 7


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


def compute():
    # A JSON round trip first, so the comparison sees what the file holds
    # (string dict keys, lists for tuples).
    return json.loads(json.dumps(_round({
        "failover": run_failover_scenario(seed=SEED),
        "overload": run_overload_scenario(seed=SEED),
    })))


def test_matches_golden():
    assert GOLDEN_PATH.exists(), (
        f"missing golden {GOLDEN_PATH}; regenerate with "
        f"`PYTHONPATH=src python {__file__} regen`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    actual = compute()
    for scenario in ("failover", "overload"):
        pin, run = golden[scenario], actual[scenario]
        assert set(run) == set(pin), f"{scenario}: result keys changed"
        for key in sorted(pin):
            assert run[key] == pin[key], (
                f"{scenario}.{key}: {run[key]!r} != golden {pin[key]!r}"
            )
    assert actual == golden


def regen():
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(compute(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        regen()
    else:
        print(f"usage: PYTHONPATH=src python {__file__} regen")
