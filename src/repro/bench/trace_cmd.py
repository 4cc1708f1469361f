"""The ``trace`` subcommand: capture a full-stack trace of one scenario.

Three scenarios cover the subsystem's reach:

* ``chain`` (default) — a replicated chain (primary + N secondaries)
  running a seeded key-value commit workload, so the trace shows the
  full host -> CMB -> destage -> NAND path *and* the NTB mirror flows
  plus counter updates coming back;
* ``fig09`` — one local Villars device under the TPC-C logging workload
  of Fig. 9 (no replication; small and fast, the CI smoke target);
* ``chaos`` — a seeded :func:`repro.faults.scenario.run_chaos` run, so
  fault instants (torn writes, drops, retries) appear on the timeline.

Each run writes a Chrome trace-event JSON (load it at
https://ui.perfetto.dev) and, optionally, a per-stage latency summary as
JSON and/or CSV.  Everything derives from the scenario seed and the
simulated clock, so the same invocation produces byte-identical files.
"""

from repro.bench.stacks import TXN_CPU_NS, build_log_file, build_tpcc_database
from repro.cluster.topology import replicated_chain
from repro.core.metrics import device_snapshot
from repro.faults.scenario import chaos_config_factory, run_chaos
from repro.obs import (
    GaugeSampler,
    capture,
    format_summary,
    stage_summary,
    write_chrome_trace,
    write_summary_csv,
    write_summary_json,
)
from repro.sim import Engine
from repro.sim.rng import derive
from repro.workloads.tpcc import TpccWorkload

SCENARIOS = ("chain", "fig09", "chaos")

# Gauge sampling period for trace runs: fine enough to draw queue
# levels between destage events, coarse enough not to dominate the file.
SAMPLE_PERIOD_NS = 20_000.0


def _run_bounded(engine, done, deadline_ns, step_ns=1e6):
    """Step the clock until ``done`` triggers or the deadline passes.

    Reporter loops and gauge samplers keep the event heap non-empty, so
    an unbounded ``run()`` would never return; bounded steps (the
    chaos harness's pattern) let us stop as soon as the workload ends.
    """
    deadline = engine.now + deadline_ns
    while not done.triggered and engine.now < deadline:
        engine.run(until=min(engine.now + step_ns, deadline))
    return done.triggered


def _sample_cluster(engine, cluster):
    """Attach one gauge sampler per server; returns the sampler list."""
    samplers = []
    for name in cluster.order:
        server = cluster.servers[name]
        samplers.append(
            GaugeSampler(engine.tracer, server.device,
                         period_ns=SAMPLE_PERIOD_NS)
        )
    for sampler in samplers:
        sampler.start()
    return samplers


def run_chain_scenario(seed=7, secondaries=2, transactions=60,
                       duration_ns=8_000_000.0, key_space=8):
    """Replicated-chain trace scenario (no faults); returns metadata."""
    engine = Engine()
    cluster = replicated_chain(
        engine, chaos_config_factory(seed), secondaries=secondaries,
    )
    database = cluster.primary.with_database(
        group_commit_bytes=2048, group_commit_timeout_ns=15_000.0,
    )
    database.create_table("kv")
    workload_rng = derive(seed, "workload")

    def workload():
        for index in range(transactions):
            txn = database.begin()
            txn.write("kv", f"k{workload_rng.randrange(key_space)}",
                      f"v{index}")
            yield txn.commit()

    samplers = _sample_cluster(engine, cluster)
    done = engine.process(workload(), name="trace-workload")
    finished = _run_bounded(engine, done, duration_ns)
    for sampler in samplers:
        sampler.stop()
        sampler.sample()  # one closing sample at the final clock
    return {
        "scenario": "chain",
        "seed": seed,
        "secondaries": secondaries,
        "transactions": transactions,
        "workload_finished": finished,
        "commits": database.stats.commits,
        "time_ns": engine.now,
        "snapshots": {
            name: device_snapshot(server.device)
            for name, server in sorted(cluster.servers.items())
        },
    }


def run_fig09_scenario(seed=7, workers=2, transactions_per_worker=12,
                       duration_ns=60_000_000.0):
    """One local Villars device under the Fig. 9 TPC-C logging workload."""
    engine = Engine()
    log_file = build_log_file(engine, "villars-sram")
    database = build_tpcc_database(engine, log_file, workers)
    sampler = GaugeSampler(engine.tracer, log_file.device,
                           period_ns=SAMPLE_PERIOD_NS)
    sampler.start()
    done = []
    for worker_id in range(workers):
        done.append(
            database.run_worker(
                TpccWorkload(worker_id=worker_id),
                transactions=transactions_per_worker,
                txn_cpu_ns=TXN_CPU_NS,
                async_commit=True,
            )
        )
    all_done = engine.all_of(done)
    finished = _run_bounded(engine, all_done, duration_ns)
    sampler.stop()
    sampler.sample()
    return {
        "scenario": "fig09",
        "seed": seed,
        "workers": workers,
        "transactions_per_worker": transactions_per_worker,
        "workload_finished": finished,
        "commits": database.stats.commits,
        "time_ns": engine.now,
        "snapshots": {
            log_file.device.name: device_snapshot(log_file.device)
        },
    }


def run_chaos_scenario(seed=7, secondaries=2, duration_ns=8_000_000.0,
                       transactions=160, fault_events=6):
    """A seeded chaos run under the tracer; returns its result dict."""
    result = run_chaos(
        seed=seed, secondaries=secondaries, duration_ns=duration_ns,
        transactions=transactions, fault_events=fault_events,
        collect_snapshots=True,
    )
    result["scenario"] = "chaos"
    return result


def run_trace(scenario="chain", out_path="trace.json", summary_path=None,
              csv_path=None, seed=7, secondaries=2, transactions=None,
              duration_ns=None, quiet=False):
    """Capture one scenario and write the requested artifacts.

    Returns ``(metadata, summary)``; the summary's per-stage totals are
    computed from the captured tracers after the run completes.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown trace scenario {scenario!r}")
    # Only the values the caller set reach the scenario: its defaults
    # live once, in its own signature.
    overrides = {}
    if duration_ns is not None:
        overrides["duration_ns"] = duration_ns
    if transactions is not None:
        overrides["transactions_per_worker" if scenario == "fig09"
                  else "transactions"] = transactions
    with capture() as session:
        if scenario == "chain":
            metadata = run_chain_scenario(
                seed=seed, secondaries=secondaries, **overrides,
            )
        elif scenario == "fig09":
            metadata = run_fig09_scenario(seed=seed, **overrides)
        else:
            metadata = run_chaos_scenario(
                seed=seed, secondaries=secondaries, **overrides,
            )
    # Snapshots are for the summary sidecar, not the trace header.
    snapshots = metadata.pop("snapshots", None)
    write_chrome_trace(out_path, session.tracers, label=f"trace:{scenario}")
    summary = stage_summary(
        session.tracers,
        extra={"scenario": scenario, "seed": seed,
               "events_in_trace_file": session.events_recorded},
    )
    if snapshots is not None:
        summary["snapshots"] = snapshots
    if summary_path:
        write_summary_json(summary_path, summary)
    if csv_path:
        write_summary_csv(csv_path, summary)
    if not quiet:
        print(f"trace: {session.events_recorded} events -> {out_path}")
        print(format_summary(summary))
    return metadata, summary
