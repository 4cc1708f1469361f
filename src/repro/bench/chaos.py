"""Chaos harness entry point: one seeded fault-injection run from the shell.

Thin CLI-facing wrapper around :func:`repro.faults.run_chaos`.  Builds a
replicated chain, drives the seeded workload while a
:class:`~repro.faults.injector.ChaosInjector` walks the fault plan
(seed-derived, or loaded from a ``--faults`` JSON file), crashes the
primary, recovers, and reports every oracle verdict.

Usage::

    python -m repro.bench chaos --seed 7
    python -m repro.bench chaos --seed 7 --faults plan.json --json out.json
"""

from repro.faults.scenario import run_chaos


def run_chaos_bench(seed=7, secondaries=2, duration_ns=8_000_000.0,
                    plan=None, fault_events=6, transactions=160,
                    collect_snapshots=False):
    """Run one chaos scenario and flatten the result into report rows."""
    result = run_chaos(
        seed=seed,
        secondaries=secondaries,
        duration_ns=duration_ns,
        plan=plan,
        fault_events=fault_events,
        transactions=transactions,
        collect_snapshots=collect_snapshots,
    )
    rows = [
        {
            "oracle": name,
            "verdict": "ok" if not violations else "VIOLATED",
            "violations": len(violations),
            "detail": "; ".join(violations[:2]),
        }
        for name, violations in sorted(result["oracles"].items())
    ]
    return result, rows
