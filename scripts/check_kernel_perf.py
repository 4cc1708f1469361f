#!/usr/bin/env python
"""CI guard: the event kernel must stay >= 1.5x the frozen seed kernel.

Runs the reduced kernel microbenchmark (current and seed repeats
interleaved in one process, best-of-N per side) and fails if any
workload's speedup lands under the floor.  ``BENCH_kernel.json`` — the
full-size numbers committed with the kernel PR — is read for reference
so the report shows drift, but the pass/fail signal is always measured
fresh against the frozen in-tree seed replica, never trusted from disk.

Anti-flake policy: the floor stays exact, the *measurement* retries.  A
workload that misses the floor is re-measured up to two more times with
a higher repeat count (best-of-N is a max statistic, so more repeats
push a noisy reading toward the true plateau).  ``timeout-heavy`` runs
closest to the bar — timer construction is a large, identical share of
its cost on both kernels, so its plateau sits near 1.8x with the
instant-keyed timer heap — and on a loaded host a single noisy sample can
still dip under 1.5, which must not fail the build, while a genuine
regression fails all three attempts.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.kernel import WORKLOADS, run_kernel_bench  # noqa: E402

# Repeats per attempt: escalate when a workload misses the floor.
ATTEMPT_REPEATS = (3, 5, 7)


def load_reference(path):
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {}
    return {
        row["workload"]: row.get("speedup_vs_seed")
        for row in payload.get("rows", [])
    }


def check_workload(workload, events, floor, reference):
    """Measure one workload, retrying with more repeats before failing."""
    speedup = 0.0
    for attempt, repeat in enumerate(ATTEMPT_REPEATS, start=1):
        (row,) = run_kernel_bench(events=events, repeat=repeat,
                                  workloads=(workload,))
        speedup = row["speedup_vs_seed"]
        recorded = reference.get(workload)
        drift = (f", recorded {recorded:.2f}x"
                 if isinstance(recorded, (int, float)) else "")
        if speedup >= floor:
            print(f"PASS {workload:<20s} {speedup:5.2f}x"
                  f" (floor {floor:.1f}x{drift}, attempt {attempt})")
            return True
        print(f"retry {workload:<20s} {speedup:5.2f}x < {floor:.1f}x"
              f" on attempt {attempt} (repeat={repeat}{drift})")
    print(f"FAIL {workload:<20s} {speedup:5.2f}x < {floor:.1f}x"
          f" after {len(ATTEMPT_REPEATS)} attempts")
    return False


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=100_000,
                        help="events per workload run (default 100000)")
    parser.add_argument("--floor", type=float, default=1.5,
                        help="minimum speedup vs the seed (default 1.5)")
    parser.add_argument("--reference", default=str(ROOT / "BENCH_kernel.json"),
                        help="committed bench results, reported for drift")
    args = parser.parse_args(argv)

    reference = load_reference(args.reference)
    failures = [
        workload for workload in WORKLOADS
        if not check_workload(workload, args.events, args.floor, reference)
    ]
    if failures:
        print(f"kernel perf floor violated: {', '.join(failures)}")
        return 1
    print(f"all {len(WORKLOADS)} workloads >= {args.floor:.1f}x the seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
