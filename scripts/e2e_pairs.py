"""Alternating-pairs comparison of one end-to-end metric against a parent rev.

Runs ``benchmarks/e2e/run.py --workload W --seed S --json PATH`` N times
on each side, alternating: the *parent* side is a given revision,
exported with ``git archive`` into a temporary directory, the *change*
side is this working tree, uncommitted edits included.  Pair i runs the
parent first when i is even and the change first when it is odd, so a
drift in host load does not favour one side.

It prints every pair, each side's median and quartiles of the judged
metric (``--metric``, default ``ops_per_wall_s``), the median ratio and
the number of pairs the change won.  Whether higher or lower is better
comes from the metric's ``better`` entry in ``BENCHMARK.json``, so a
lower-is-better metric such as ``peak_rss_mb`` wins a pair by being
lower.  A gain counts only if the change wins nearly every pair and the
median gap exceeds the parent's interquartile spread.
It also prints both sides' medians of every other end-to-end metric, for
the no-regression check, and reports whether every pair's simulated
results (``sim``, ``layers`` and ``samples``) were identical, which a
change that claims a wall-clock gain only must keep.

Usage, from anywhere inside the repository::

    python3 scripts/e2e_pairs.py --workload tpcc-local [--seed 7]
        [--pairs 10] [--metric ops_per_wall_s] [--parent HEAD]
        [--seconds S] [--scale F] [--json PATH]

The export lives under ``$TMPDIR`` and is removed at exit; it touches
nothing in the repository's ``.git``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join("benchmarks", "e2e", "run.py")
SIM_KEYS = ("sim", "layers", "samples")


def end_to_end_metrics(tree):
    """``{name: better}`` of the end-to-end metrics ``BENCHMARK.json``
    declares, in its order (``better`` is ``"higher"`` or ``"lower"``)."""
    with open(os.path.join(tree, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["better"] for entry in spec["end_to_end"]}


def runner_command(args, results_path):
    """The ``run.py`` command line one run of either side uses."""
    command = [sys.executable, RUNNER, "--workload", args.workload,
               "--seed", str(args.seed), "--json", results_path]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.scale is not None:
        command += ["--scale", str(args.scale)]
    return command


def run_once(tree, args, scratch, tag):
    """One benchmark run in ``tree``; returns (end-to-end metric values
    and failed-operation count, simulated results)."""
    results_path = os.path.join(scratch, f"{tag}.json")
    command = runner_command(args, results_path)
    completed = subprocess.run(command, cwd=tree, capture_output=True,
                               text=True, check=False)
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"error: {tag} run exited with "
                         f"{completed.returncode}")
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    with open(results_path) as handle:
        (result,) = json.load(handle)
    values = {name: entry["value"]
              for name, entry in summary["metrics"].items()}
    values["failed"] = summary["failed"]
    return values, {key: result[key] for key in SIM_KEYS}


def describe(values):
    """Median and quartiles (inclusive method) of ``values``."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def change_wins(runs, metric, better):
    """Pairs in which the change's ``metric`` beat the parent's."""
    if better == "lower":
        return sum(pair["change"][metric] < pair["parent"][metric]
                   for pair in runs)
    return sum(pair["change"][metric] > pair["parent"][metric]
               for pair in runs)


def compare(args, parent_tree, scratch):
    metric = args.metric
    metrics = end_to_end_metrics(ROOT)
    runs = []
    identical = True
    for index in range(args.pairs):
        sides = [("parent", parent_tree), ("change", ROOT)]
        if index % 2:
            sides.reverse()
        pair = {}
        sims = {}
        for side, tree in sides:
            pair[side], sims[side] = run_once(tree, args, scratch,
                                              f"{side}-{index}")
        identical = identical and sims["parent"] == sims["change"]
        runs.append(pair)
        print(f"pair {index}: parent {pair['parent'][metric]:.4f}  "
              f"change {pair['change'][metric]:.4f}", flush=True)
    medians = {
        name: {side: statistics.median(pair[side][name] for pair in runs)
               for side in ("parent", "change")}
        for name in [*metrics, "failed"]
    }
    parent = describe([pair["parent"][metric] for pair in runs])
    change = describe([pair["change"][metric] for pair in runs])
    wins = change_wins(runs, metric, metrics[metric])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "metric": metric,
        "better": metrics[metric],
        "pairs": args.pairs,
        "order": "alternating, parent first in even pairs",
        "parent": parent,
        "change": change,
        "median_ratio": change["median"] / parent["median"],
        "change_wins": wins,
        "sim_identical": identical,
        "medians": medians,
        "runs": runs,
    }


def export(rev, directory):
    """Write the files of ``rev`` into ``directory``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True, capture_output=True)
    os.makedirs(directory)
    subprocess.run(["tar", "-x", "-C", directory], input=archive.stdout,
                   check=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Alternating e2e pairs: parent rev vs working tree.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default="ops_per_wall_s",
                        help="end-to-end metric the pairs are judged on")
    parser.add_argument("--parent", default="HEAD",
                        help="revision the parent side runs")
    parser.add_argument("--seconds", type=float,
                        help="passed through to run.py")
    parser.add_argument("--scale", type=float,
                        help="passed through to run.py (multiplies every "
                        "workload's operation count)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the summary and every pair here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.scale is not None and args.scale <= 0:
        parser.error("--scale must be positive")
    if args.metric not in end_to_end_metrics(ROOT):
        parser.error(f"--metric {args.metric!r} is not an end-to-end metric "
                     f"of BENCHMARK.json")

    with tempfile.TemporaryDirectory(prefix="e2e-pairs-") as scratch:
        parent_tree = os.path.join(scratch, "parent")
        export(args.parent, parent_tree)
        summary = compare(args, parent_tree, scratch)
    for name, median in summary["medians"].items():
        print(f"{name:>16}: parent median {median['parent']:.4f}  "
              f"change median {median['change']:.4f}")
    print(f"{summary['metric']} ({summary['better']} is better):")
    for side in ("parent", "change"):
        stats = summary[side]
        print(f"{side:>6}: median {stats['median']:.4f}  "
              f"quartiles {stats['q1']:.4f}-{stats['q3']:.4f}")
    print(f"median ratio {summary['median_ratio']:.3f}, change won "
          f"{summary['change_wins']}/{summary['pairs']} pairs, simulated "
          f"results {'identical' if summary['sim_identical'] else 'DIFFER'}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
