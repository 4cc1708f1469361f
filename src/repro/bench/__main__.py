"""Command-line entry point: regenerate any paper figure from the shell.

Usage::

    python -m repro.bench fig09 [--txns 150] [--workers 1 2 4 8]
    python -m repro.bench fig10 [--total-kib 256]
    python -m repro.bench fig11 [--writes 64]
    python -m repro.bench fig12 [--duration-ms 40]
    python -m repro.bench fig13 [--periods 0.4 0.8 1.2 1.6] [--writes 200]
    python -m repro.bench all
    python -m repro.bench kernel [--events 200000] [--repeat 3]
    python -m repro.bench nand [--reads 96] [--aged-reads 400] [--pages 32]
    python -m repro.bench chaos [--seed 7] [--faults plan.json]
    python -m repro.bench check [--scenario chain --budget 200 ...]
    python -m repro.bench health [--scenario failover|overload|all] [--seed 7]
    python -m repro.bench fleet [--devices 1 2 4] [--tenants 3] [--seed 7]
    python -m repro.bench dr [--txns 500] [--shards 2] [--seed 7]
    python -m repro.bench slo [--tenants 12] [--target-p99-us 150] [--seed 7]
    python -m repro.bench trace [--scenario chain|fig09|chaos] [--out t.json]

Subcommands whose runner fans independent cells out (``fig09``…``fig13``,
``all``, ``fleet``, ``dr``, ``slo``) accept ``--jobs N`` (N worker
processes; 0 = one per core).  All but ``trace`` accept ``--json PATH``
(also write the structured rows as JSON, e.g. ``BENCH_fig09.json``) and
``--trace PATH``, which captures a Perfetto-loadable Chrome trace of the
whole run (serial execution is forced, since pool workers' engines live
out of the tracer's reach).  Each subcommand's flags map straight onto its
runner's keyword arguments, so a flag it does not understand is an error
instead of being silently ignored, and an unset flag leaves the runner's
own default in force.

Prints the same tables the pytest benchmarks print, without requiring
pytest — handy for quick sweeps with custom parameters.
"""

import argparse
import inspect
import json
import sys
from collections import namedtuple
from functools import partial

from repro.bench import (
    format_series,
    format_table,
    run_chaos_bench,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_dr_bench,
    run_fleet_bench,
    run_kernel_bench,
    run_nand_bench,
    run_slo_bench,
)
from repro.bench.trace_cmd import SCENARIOS as TRACE_SCENARIOS, run_trace
from repro.faults.plan import FaultPlan
from repro.health.scenarios import run_failover_scenario, run_overload_scenario
from repro.sim.units import KIB

ORACLE_COLUMNS = (
    ("oracle", "oracle", ""),
    ("verdict", "verdict", ""),
    ("violations", "violations", "d"),
    ("detail", "detail", ""),
)


def _table(title, *columns):
    """A renderer that prints the rows as one table and returns them."""
    def show(rows):
        print(format_table(rows, columns, title=title))
        return rows
    return show


def _show_fig09(rows):
    print(format_table(rows, (
        ("setup", "setup", ""),
        ("workers", "workers", "d"),
        ("mean_latency_us", "latency [us]", ".1f"),
        ("throughput_ktps", "throughput [ktxn/s]", ".1f"),
    ), title="Fig. 9 — logging to local storage"))
    print("\nlatency series [us]:")
    print(format_series(rows, "workers", "mean_latency_us", "setup"))
    print("throughput series [ktxn/s]:")
    print(format_series(rows, "workers", "throughput_ktps", "setup"))
    return rows


_show_fig10 = _table(
    "Fig. 10 — write combining",
    ("backing", "backing", ""),
    ("policy", "policy", ""),
    ("write_bytes", "write [B]", "d"),
    ("throughput_bytes_per_ns", "throughput [GB/s]", ".3f"),
    ("normalized", "normalized", ".3f"),
)

_show_fig11 = _table(
    "Fig. 11 — group commit x queue size",
    ("queue_kib", "queue [KiB]", "d"),
    ("group_kib", "group [KiB]", "d"),
    ("mean_latency_us", "latency [us]", ".1f"),
    ("throughput_mb_per_s", "throughput [MB/s]", ".0f"),
    ("credit_checks", "checks", "d"),
)

_show_fig12 = _table(
    "Fig. 12 — opportunistic destaging",
    ("mode", "mode", ""),
    ("fast_offered_pct", "fast offered [%]", ".0f"),
    ("conv_achieved_pct", "conv achieved [%]", ".1f"),
    ("fast_achieved_pct", "fast achieved [%]", ".1f"),
)

_show_fig13 = _table(
    "Fig. 13 — replication delay",
    ("update_period_us", "period [us]", ".1f"),
    ("latency_low_us", "low [us]", ".2f"),
    ("latency_median_us", "median [us]", ".2f"),
    ("latency_high_us", "high [us]", ".2f"),
    ("latency_spread_us", "spread [us]", ".2f"),
    ("bandwidth_pct", "bandwidth [%]", ".2f"),
)

_show_kernel = _table(
    "Kernel microbenchmark — events/sec vs the seed engine",
    ("workload", "workload", ""),
    ("events", "events", "d"),
    ("events_per_sec_m", "current [Mev/s]", ".3f"),
    ("seed_events_per_sec_m", "seed [Mev/s]", ".3f"),
    ("speedup_vs_seed", "speedup", ".2f"),
)


def _show_nand(result):
    print(format_table(result["suspend"], (
        ("cell", "cell", ""),
        ("reads", "reads", "d"),
        ("read_p50_us", "p50 [us]", ".1f"),
        ("read_p99_us", "p99 [us]", ".1f"),
        ("suspends", "suspends", "d"),
        ("resumes", "resumes", "d"),
    ), title="NAND — read tail vs erase suspend/resume"))
    print()
    print(format_table(result["aged"], (
        ("cell", "cell", ""),
        ("reads", "reads", "d"),
        ("read_retries", "retries", "d"),
        ("read_retirements", "retirements", "d"),
        ("blocks_retired", "blocks retired", "d"),
        ("ecc_errors", "ECC errors", "d"),
    ), title="NAND — aging, retry-then-retire"))
    print()
    print(format_table(result["pipeline"], (
        ("cell", "cell", ""),
        ("pages", "pages", "d"),
        ("per_page_us", "per page [us]", ".1f"),
        ("throughput_mb_per_s", "throughput [MB/s]", ".1f"),
    ), title="NAND — cache-program / multi-plane pipelining"))
    return result


def _show_chaos(outcome):
    result, rows = outcome
    print(f"chaos run: seed={result['seed']} "
          f"chain={'->'.join(result['chain_order'])} "
          f"kinds={','.join(result['fault_kinds'])}")
    for entry in result["fault_log"]:
        print(f"  t={entry['time_ns'] / 1e6:7.3f} ms  "
              f"{entry['kind']:<20} {entry['site']:<12} {entry['detail']}")
    print(format_table(rows, ORACLE_COLUMNS, title="Chaos oracles"))
    print(f"\ncommits acknowledged: {result['commits_acknowledged']}, "
          f"transactions recovered: {result['transactions_recovered']}, "
          f"ok: {result['ok']}")
    if not result["ok"]:
        _dump_chaos_diagnostics(result)
        raise SystemExit(1)
    return result


def _dump_chaos_diagnostics(result):
    """On an oracle violation, dump post-crash device state (and, when a
    trace capture is active, the tail of the event log) to stderr."""
    from repro.core.metrics import format_snapshot
    from repro.obs.trace import current_session

    print("\noracle violation — post-crash device snapshots:",
          file=sys.stderr)
    for name, snapshot in sorted(result.get("snapshots", {}).items()):
        print(f"\n[{name}]", file=sys.stderr)
        print(format_snapshot(snapshot, indent=1), file=sys.stderr)
    session = current_session()
    if session is not None:
        print("\ntrace tail (most recent events last):", file=sys.stderr)
        for line in session.tail(limit=40):
            print(f"  {line}", file=sys.stderr)


def _health_oracle_rows(oracles):
    return [
        {
            "oracle": name,
            "verdict": "PASS" if not violations else "FAIL",
            "violations": len(violations),
            "detail": violations[0] if violations else "",
        }
        for name, violations in sorted(oracles.items())
    ]


HEALTH_SCENARIOS = {"failover": run_failover_scenario,
                    "overload": run_overload_scenario}


def _health(scenario="all", **kwargs):
    """Run the failover and/or overload scenario; ``kwargs`` (the seed)
    reach each scenario runner unchanged."""
    return [runner(**kwargs) for name, runner in HEALTH_SCENARIOS.items()
            if scenario in (name, "all")]


def _show_failover(result):
    print(f"failover: seed={result['seed']} victim={result['victim']} "
          f"killed at {result['kill_at_ns'] / 1e6:.3f} ms; final chain "
          f"{'->'.join(result['chain_order'])}")
    for entry in result["events"]:
        print(f"  t={entry['time_ns'] / 1e6:7.3f} ms  "
              f"{entry['action']:<15} {entry['site']:<12} "
              f"{entry['detail']}")
    detection = result["detection_ns"]
    loop = result["kill_to_resync_ns"]
    print(f"  detection window: "
          f"{'-' if detection is None else f'{detection:.0f}'} ns "
          f"(bound {result['detect_within_ns']:.0f}); kill-to-resync: "
          f"{'-' if loop is None else f'{loop:.0f}'} ns "
          f"(bound {result['resync_within_ns']:.0f})")
    print(format_table(_health_oracle_rows(result["oracles"]), ORACLE_COLUMNS,
                       title="Failover convergence oracles"))
    print()


def _show_overload(result):
    print(f"overload: seed={result['seed']} writers={result['writers']} "
          f"completed={result['writes_completed']} "
          f"rejections={result['rejections']} "
          f"({result['rejections_by_reason']})")
    print(f"  backlog peaks: {result['backlog_peaks']}; chunks shed: "
          f"{result['chunks_shed']}")
    entered = result["brownout_entered_at_ns"]
    exited = result["brownout_exited_at_ns"]
    print(f"  brownout: enter at "
          f"{'-' if entered is None else f'{entered / 1e6:.3f} ms'}, "
          f"exit at "
          f"{'-' if exited is None else f'{exited / 1e6:.3f} ms'}; "
          f"final policy {result['final_policy']}")
    print(format_table(_health_oracle_rows(result["oracles"]), ORACLE_COLUMNS,
                       title="Overload protection oracles"))


def _show_health(results):
    for result in results:
        (_show_failover if "victim" in result else _show_overload)(result)
    if not all(result["ok"] for result in results):
        raise SystemExit(1)
    return results


def _show_fleet(result):
    print(format_table(result["scaling"], (
        ("devices", "devices", "d"),
        ("tenants", "tenants", "d"),
        ("commits", "commits", "d"),
        ("ktxn_per_s", "throughput [ktxn/s]", ".1f"),
        ("efficiency", "efficiency", ".2f"),
        ("admission_rejections", "rejections", "d"),
    ), title="Fleet — aggregate throughput vs device count"))
    hot = result["hot"]
    if hot is not None:
        moves = [(m["shard"], m["source"], m["dest"]) for m in hot["moves"]]
        print(f"\nhot-shard: {hot['devices']} devices, "
              f"{hot['tenants']} tenants, hot at "
              f"{hot['hot_at_ms']:.2f} ms; migrations={hot['migrations']} "
              f"moves={moves}")
        if hot["converged"]:
            print(f"  rebalance converged in "
                  f"{hot['time_to_converge_ms']:.2f} ms "
                  f"(final imbalance {hot['final_imbalance']:.2f})")
        else:
            print(f"  NOT converged (imbalance "
                  f"{hot['final_imbalance']:.2f})")
        for event in hot["supervisor_events"]:
            print(f"  t={event['time_ns'] / 1e6:7.3f} ms  "
                  f"{event['action']:<20} {event['site']:<10} "
                  f"{event['detail']}")
    return result


def _show_dr(result):
    for row in result["steady"]:
        row["mode"] = "archived" if row["dr"] else "baseline"
    print(format_table(result["steady"], (
        ("mode", "mode", ""),
        ("shards", "shards", "d"),
        ("commits", "commits", "d"),
        ("ktxn_per_s", "throughput [ktxn/s]", ".1f"),
        ("overhead_pct", "overhead [%]", ".1f"),
    ), title="DR — archival overhead vs steady-state throughput"))
    rec = result["recovery"]
    print(f"\nrecovery: {rec['commits']} commits archived "
          f"({rec['wal_bytes_resynced']:.0f} WAL bytes, "
          f"{rec['archiver']['segments_shipped']} segments, "
          f"{rec['archiver']['snapshots_taken']} snapshots)")
    print(format_table([rec], (
        ("resync_ms", "chain resync [ms]", ".3f"),
        ("restore_ms", "archive restore [ms]", ".3f"),
        ("restore_speedup", "speedup", ".2f"),
        ("restored_rows", "rows", "d"),
        ("restored_matches", "state matches", ""),
    ), title="DR — replica repair: full chain resync vs archive restore"))
    if not (rec["restored_matches"] and rec["resync_complete"]
            and rec["restore_complete"]):
        raise SystemExit(1)
    return result


def _show_slo(result):
    baseline = result["runs"]["baseline"]
    controlled = result["runs"]["controlled"]
    series = []
    for base_row, ctl_row in zip(baseline["windows"],
                                 controlled["windows"]):
        series.append({
            "window": base_row["window"],
            "baseline_p99_us": (base_row["p99_ns"] / 1e3
                                if base_row["p99_ns"] is not None else ""),
            "controlled_p99_us": (ctl_row["p99_ns"] / 1e3
                                  if ctl_row["p99_ns"] is not None else ""),
            "target_us": result["target_p99_us"],
        })
    print(format_table(series, (
        ("window", "window", "d"),
        ("baseline_p99_us", "baseline p99 [us]", ".1f"),
        ("controlled_p99_us", "controlled p99 [us]", ".1f"),
        ("target_us", "target [us]", ".1f"),
    ), title="SLO — per-window p99 vs target across the compressed day"))
    summary = [
        {
            "mode": label,
            "commits": run["commits"],
            "violated_windows": run["violated_windows"],
            "slo_minutes_violated": run["slo_minutes_violated"],
        }
        for label, run in (("baseline", baseline),
                           ("controlled", controlled))
    ]
    print(format_table(summary, (
        ("mode", "mode", ""),
        ("commits", "commits", "d"),
        ("violated_windows", "violated windows", "d"),
        ("slo_minutes_violated", "SLO-minutes violated", ".0f"),
    ), title="SLO — day summary"))
    print(f"\ncontroller: {controlled.get('escalations', 0)} escalations, "
          f"{controlled.get('deescalations', 0)} de-escalations, "
          f"{controlled.get('invariant_violations', 0)} durability-fence "
          f"violations; SLO-minutes saved: {result['slo_minutes_saved']:.0f}")
    return result


def _execute(command, kwargs):
    """Run one command's runner and render its result; returns what
    ``--json`` records."""
    result = command.run(**kwargs)
    return result if command.show is None else command.show(result)


def _run_figures(jobs=None):
    """``all``: every figure in turn with its own defaults."""
    rows = {}
    for name in FIGURES:
        rows[name] = _execute(COMMANDS[name], {"jobs": jobs})
        print()
    return rows


# -- flags --------------------------------------------------------------------


def _jobs_count(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"jobs must be >= 0, got {value}")
    return value


def _positive_ms(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of milliseconds, got {text}")
    return value


def _ms_as_ns(text):
    return _positive_ms(text) * 1e6


def _kib_as_bytes(text):
    return int(text) * KIB


def _flag(option, help, **options):
    """A subcommand flag.  It defaults to None, so only a flag the user
    gives reaches the runner, as the kwarg ``dest`` (argparse derives
    ``dest`` from the option name unless the entry renames it)."""
    if "dest" in options and "action" not in options:
        # Name the value after the option, not the runner kwarg.
        options.setdefault("metavar", option[2:].replace("-", "_").upper())
    return option, dict(options, help=help, default=None)


# ``run`` takes the flags' dests as keyword arguments (and gets ``--jobs``
# iff it has a ``jobs`` parameter); ``show`` (optional) prints its result
# and returns what ``--json`` records; ``outputs`` adds ``--json``/``--trace``.
Command = namedtuple("Command", "run show help flags outputs",
                     defaults=(True,))

FIGURES = ("fig09", "fig10", "fig11", "fig12", "fig13")

COMMANDS = {
    "fig09": Command(
        run_fig09, _show_fig09,
        "logging to local storage (latency/throughput)", (
            _flag("--txns", "transactions per worker", type=int,
                  dest="transactions_per_worker"),
            _flag("--workers", "worker counts to sweep", type=int, nargs="+",
                  dest="worker_counts"),
        )),
    "fig10": Command(
        run_fig10, _show_fig10,
        "write combining vs uncached, by write size", (
            _flag("--total-kib", "KiB pushed through the fast side per cell",
                  type=_kib_as_bytes, dest="total_bytes"),
        )),
    "fig11": Command(
        run_fig11, _show_fig11, "group-commit size x CMB queue size", (
            _flag("--writes", "group writes per cell", type=int),
        )),
    "fig12": Command(
        run_fig12, _show_fig12, "opportunistic destaging under contention", (
            _flag("--duration-ms", "simulated milliseconds per cell",
                  type=_ms_as_ns, dest="duration_ns"),
            _flag("--backend", "flash model: idealized array or the NAND "
                  "realism pack (planes, cache program, suspend)",
                  choices=["ideal", "realistic"]),
        )),
    "fig13": Command(
        run_fig13, _show_fig13, "shadow-counter freshness vs update period", (
            _flag("--periods", "update periods to sweep [us]", type=float,
                  nargs="+", dest="update_periods_us"),
            _flag("--writes", "measured writes per cell", type=int),
        )),
    "all": Command(
        _run_figures, None, "every figure with default parameters", ()),
    "kernel": Command(
        run_kernel_bench, _show_kernel,
        "DES kernel microbenchmark (events/sec vs seed)", (
            _flag("--events", "events per workload run", type=int),
            _flag("--repeat", "runs per engine; best rate is kept", type=int),
        )),
    "nand": Command(
        run_nand_bench, _show_nand,
        "NAND realism: erase suspend tail, aging, pipelining", (
            _flag("--reads", "paced reads in the suspend cell", type=int),
            _flag("--aged-reads", "reads per aging variant", type=int),
            _flag("--pages", "pages in the pipelining write stream",
                  type=int),
        )),
    "chaos": Command(
        partial(run_chaos_bench, collect_snapshots=True), _show_chaos,
        "seeded fault-injection run with durability oracles", (
            _flag("--seed", "master seed (workload, plan, fault models)",
                  type=int),
            _flag("--faults", "JSON fault plan overriding the seed-derived "
                  "one", type=FaultPlan.load, metavar="PLAN_JSON", dest="plan"),
            _flag("--secondaries", "chain length behind the primary",
                  type=int),
            _flag("--duration-ms", "simulated milliseconds before the final "
                  "crash", type=_ms_as_ns, dest="duration_ns"),
            _flag("--fault-events", "events in the seed-derived plan",
                  type=int),
            _flag("--txns", "transactions in the primary workload", type=int,
                  dest="transactions"),
        )),
    "health": Command(
        _health, _show_health,
        "self-healing control plane: supervised failover + overload", (
            _flag("--scenario", "which health scenario to run (default: all)",
                  choices=[*HEALTH_SCENARIOS, "all"]),
            _flag("--seed", "scenario seed", type=int),
        )),
    "fleet": Command(
        run_fleet_bench, _show_fleet,
        "sharded fleet: throughput scaling + hot-shard rebalance", (
            _flag("--devices", "device counts for the scaling sweep",
                  type=int, nargs="+", dest="device_counts"),
            _flag("--tenants", "tenants (shards) per device", type=int,
                  dest="tenants_per_device"),
            _flag("--duration-ms", "simulated milliseconds per scaling cell",
                  type=_positive_ms),
            _flag("--hot-duration-ms", "simulated milliseconds for the "
                  "hot-shard cell", type=_positive_ms),
            _flag("--seed", "fleet seed (workloads, device fault models)",
                  type=int),
            _flag("--replicas", "secondaries per fleet node chain", type=int),
            _flag("--no-hot", "skip the hot-shard rebalance cell",
                  action="store_false", dest="hot"),
        )),
    "dr": Command(
        run_dr_bench, _show_dr,
        "disaster recovery: archival overhead + restore vs resync", (
            _flag("--seed", "workload/device seed", type=int),
            _flag("--shards", "shards (writers) on the archived node",
                  type=int),
            _flag("--duration-ms", "simulated milliseconds per steady-state "
                  "cell", type=_positive_ms),
            _flag("--txns", "transactions per shard in the recovery cell",
                  type=int, dest="transactions"),
            _flag("--key-space", "distinct keys per shard (small = snapshot "
                  "compacts more history)", type=int),
            _flag("--segment-bytes", "WAL bytes per archived segment",
                  type=int),
        )),
    "slo": Command(
        run_slo_bench, _show_slo,
        "SLO control plane: a compressed day with/without the controller", (
            _flag("--seed", "traffic/device seed", type=int),
            _flag("--nodes", "fleet nodes (replication chains)", type=int),
            _flag("--tenants", "diurnal tenants (Zipf-sized)", type=int),
            _flag("--day-ms", "simulated milliseconds per compressed day",
                  type=_positive_ms),
            _flag("--windows", "SLO evaluation windows across the day",
                  type=int),
            _flag("--target-p99-us", "the p99 commit-latency SLO target",
                  type=float),
            _flag("--mean-gap-us", "fleet-mean transaction interarrival gap",
                  type=float),
            _flag("--crowd-amplitude", "flash-crowd rate multiplier "
                  "amplitude", type=float),
        )),
    "trace": Command(
        run_trace, None, "capture a full-stack trace of one scenario", (
            _flag("--scenario", "what to trace (default: replicated chain)",
                  choices=TRACE_SCENARIOS),
            _flag("--out", "Chrome trace-event output file", metavar="PATH",
                  dest="out_path"),
            _flag("--summary", "also write the per-stage latency summary "
                  "JSON", metavar="PATH", dest="summary_path"),
            _flag("--csv", "also write the per-stage summary as CSV",
                  metavar="PATH", dest="csv_path"),
            _flag("--seed", "scenario seed", type=int),
            _flag("--secondaries", "chain length behind the primary "
                  "(chain/chaos scenarios)", type=int),
            _flag("--txns", "override the scenario's transaction count",
                  type=int, dest="transactions"),
            _flag("--duration-ms", "override the scenario's time budget",
                  type=_ms_as_ns, dest="duration_ns"),
        ), outputs=False),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.set_defaults(json=None, trace=None)
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="command")
    for name, command in COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help)
        for option, spec in command.flags:
            sub.add_argument(option, **spec)
        if "jobs" in inspect.signature(command.run).parameters:
            sub.add_argument("--jobs", type=_jobs_count, metavar="N",
                             help="run the cells over N worker processes "
                                  "(0 = one per core; default: serial)")
        if command.outputs:
            sub.add_argument("--json", metavar="PATH",
                             help="also write the structured rows as JSON "
                                  "to PATH")
            sub.add_argument("--trace", metavar="PATH",
                             help="capture a Chrome trace-event file of the "
                                  "run to PATH (forces serial execution)")
    subparsers.add_parser(
        "check",
        help="crash-consistency model checker (python -m repro.check)",
        add_help=False,
    )
    return parser


def _write_json(path, name, rows):
    payload = {"bench": name, "rows": rows}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _capturing(trace_path, name, body):
    """Run ``body()`` under a trace capture when ``trace_path`` is set."""
    if not trace_path:
        return body()
    from repro.obs import capture, write_chrome_trace

    with capture() as session:
        try:
            return body()
        finally:
            # Written even when the run fails (a chaos oracle violation
            # raises SystemExit): the trace of a failing run is exactly
            # the artifact worth keeping.
            write_chrome_trace(trace_path, session.tracers,
                               label=f"bench:{name}")
            print(f"trace: {session.events_recorded} events -> {trace_path}",
                  file=sys.stderr)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["check"]:
        # Pure passthrough before argparse (REMAINDER chokes on leading
        # options): the checker owns its CLI (see CHECKING.md).
        from repro.check.__main__ import main as check_main

        return check_main(argv[1:])
    args = build_parser().parse_args(argv)
    # Only the flags the user set reach the runner (see ``_flag``).
    kwargs = {name: value for name, value in vars(args).items()
              if value is not None and name not in ("command", "json", "trace")}
    if args.trace and kwargs.get("jobs", 1) != 1:
        # Worker processes build their engines out of the tracer's reach;
        # tracing implies the serial path so every engine is captured.
        print("note: --trace forces serial execution (--jobs ignored)",
              file=sys.stderr)
        del kwargs["jobs"]
    command = COMMANDS[args.command]
    rows = _capturing(args.trace, args.command,
                      lambda: _execute(command, kwargs))
    if args.json:
        _write_json(args.json, args.command, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
