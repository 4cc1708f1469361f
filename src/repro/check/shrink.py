"""Greedy schedule shrinking and re-runnable reproducer dumps.

A failing combo schedule may carry half a dozen perturbations of which
one or two actually matter.  ``shrink_schedule`` is classic delta
debugging in its greedy one-at-a-time form: repeatedly try dropping each
fault event, keep any drop that still fails, restart the sweep after a
successful drop, stop at a fixed point.  The implicit primary crash
(``end_time_ns``) is not a plan event, so the shrinker can never remove
the crash itself — the minimum is always "these fault events plus the
final power loss".

Dropped events land in the plan's ``excluded`` list, so the reproducer
records not just the minimal plan but what shrinking ruled out.
"""

import json
from pathlib import Path

from repro.check.schedules import CrashSchedule

MAX_SHRINK_TRIALS = 64


def shrink_schedule(schedule, still_fails, max_trials=MAX_SHRINK_TRIALS):
    """Greedily minimize ``schedule`` under the ``still_fails`` predicate.

    ``still_fails(candidate)`` must return True when the candidate
    schedule still exhibits the violation.  Returns ``(minimal, trials)``
    where ``trials`` counts predicate evaluations.
    """
    current = schedule
    trials = 0
    improved = True
    while improved and trials < max_trials:
        improved = False
        for index in range(len(current.plan)):
            if trials >= max_trials:
                break
            candidate = current.with_plan(current.plan.without(index))
            trials += 1
            if still_fails(candidate):
                current = candidate
                improved = True
                break  # indices shifted; restart the sweep
    return current, trials


def write_reproducer(out_dir, config, outcome):
    """Dump a failing outcome as canonical, re-runnable JSON.

    The file contains everything ``replay_reproducer`` needs: the full
    checker config, the (minimal) schedule with its fault plan and
    excluded events, the violations observed, run stats, and the trace
    tail from the instrumented re-run.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    schedule = outcome.schedule
    stem = (f"{config.scenario}-{schedule.family}-"
            f"{schedule.end_time_ns:.0f}ns-seed{config.seed}")
    path = out_dir / f"{stem}.json"
    payload = {
        "config": config.as_dict(),
        "schedule": schedule.as_dict(),
        "violations": outcome.failed_oracles(),
        "stats": outcome.stats,
        "trace_tail": list(outcome.trace_tail or ()),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def replay_reproducer(path):
    """Re-run a dumped reproducer; returns the fresh :class:`Outcome`.

    Determinism is the contract: the same config and schedule rebuild the
    same engine timeline, so a genuine violation fails again and a fixed
    one passes.
    """
    from repro.check.runner import config_from_dict, run_schedule

    data = json.loads(Path(path).read_text())
    return run_schedule(config_from_dict(data["config"]),
                        CrashSchedule.from_dict(data["schedule"]))
