"""SLO bench: a compressed day of diurnal traffic, with and without the controller.

``python -m repro.bench slo`` runs the same seeded
:class:`~repro.workloads.diurnal.DiurnalTrafficModel` day twice — once
uncontrolled, once under :class:`~repro.slo.SloController` — over a
small fleet sized so the flash crowds genuinely overload it.  Latency is
measured where the tenant feels it: around the full commit attempt,
*including* admission-shed backoff and retries.

The day is then cut into equal windows and each window's p99 compared
against the target.  A window violates the SLO when its p99 exceeds the
target — or when nothing completed at all while commits were being
offered, a stall being worse than any measurable tail.  The headline
number is **SLO-minutes-violated**: violating windows scaled onto a
1440-minute day, reported for both runs side by side.

The two cells are independent engines fed identical offered traffic
(same seed, same crowd schedule), so the comparison isolates exactly one
variable: whether the control loop is closed.
"""

from repro.bench.parallel import run_cells
from repro.cluster.fleet import Fleet, run_shard_body
from repro.faults.scenario import chaos_config_factory
from repro.sim.engine import Engine
from repro.sim.stats import percentile
from repro.workloads.diurnal import DiurnalTrafficModel, bursty_tenant_stream

SIMULATED_DAY_MINUTES = 1440.0


def _slo_cell(**cell):
    """One full day, one engine; returns raw completion samples + audit."""
    engine = Engine()
    fleet = Fleet(
        engine, chaos_config_factory(cell["seed"]),
        group_commit_bytes=cell["group_commit_bytes"],
        group_commit_timeout_ns=cell["group_commit_timeout_ns"],
        admission_bytes=cell["admission_bytes"],
    )
    fleet.add_nodes(cell["nodes"])
    tenants = cell["tenants"]
    shards = [fleet.create_shard(f"tenant{i}") for i in range(tenants)]
    day_ns = cell["day_ns"]
    model = DiurnalTrafficModel(
        seed=cell["seed"], tenants=tenants, day_ns=day_ns,
        base_rate_per_ns=tenants / cell["mean_gap_ns"],
        crowd_rate_per_day=cell["crowd_rate_per_day"],
        crowd_amplitude=cell["crowd_amplitude"],
    )
    controller = None
    if cell["controlled"]:
        controller = fleet.enable_slo(
            target_p99_ns=cell["target_p99_ns"],
            poll_ns=cell["poll_ns"],
        )

    samples = []  # (completion time, perceived latency) pairs
    pad = "x" * cell["value_pad"]

    def make_submit(shard):
        counter = [0]

        def submit():
            counter[0] += 1
            seq = counter[0]

            def body(txn):
                for slot in range(3):
                    txn.write("kv", f"k{(seq + slot) % 8}",
                              f"{shard.shard_id}-v{seq}-{pad}")

            started = engine.now
            yield from run_shard_body(engine, shard, body)
            samples.append((engine.now, engine.now - started))

        return submit

    for index, shard in enumerate(shards):
        bursty_tenant_stream(engine, make_submit(shard), model, index,
                             day_ns)
    engine.run(until=day_ns)
    fleet.stop()
    # A bounded drain so commits in flight at midnight still count.
    engine.run(until=day_ns + cell["drain_ns"])

    row = {
        "controlled": cell["controlled"],
        "commits": fleet.total_commits(),
        "rejections": sum(node.admission.rejections
                          for node in fleet.nodes.values()),
        "samples": [(round(at, 3), round(latency, 3))
                    for at, latency in samples],
    }
    if controller is not None:
        row["audit_events"] = len(controller.events)
        row["escalations"] = sum(
            1 for event in controller.events
            if event["action"] == "escalate")
        row["deescalations"] = sum(
            1 for event in controller.events
            if event["action"] == "deescalate")
        row["invariant_violations"] = len(controller.invariant_violations)
        row["final_levels"] = {
            name: controller.level_of(name) for name in sorted(fleet.nodes)
        }
    return row


def _window_rows(samples, day_ns, windows, target_ns):
    """Per-window p99 and violation verdicts from raw completion samples."""
    buckets = [[] for _ in range(windows)]
    width = day_ns / windows
    for at, latency in samples:
        index = min(int(at / width), windows - 1)
        buckets[index].append(latency)
    rows = []
    for index, bucket in enumerate(buckets):
        p99 = percentile(bucket, 0.99) if bucket else None
        violated = p99 is None or p99 > target_ns
        rows.append({
            "window": index,
            "start_ns": round(index * width, 3),
            "completions": len(bucket),
            "p99_ns": round(p99, 3) if p99 is not None else None,
            "violated": violated,
        })
    return rows


def slo_minutes_violated(window_rows, windows):
    violated = sum(1 for row in window_rows if row["violated"])
    return round(violated * SIMULATED_DAY_MINUTES / windows, 3)


def run_slo_bench(nodes=2, tenants=12, day_ms=3.0, windows=12,
                  target_p99_us=150.0, seed=7, mean_gap_us=2.0,
                  crowd_rate_per_day=3.0, crowd_amplitude=8.0,
                  group_commit_bytes=384, group_commit_timeout_us=5.0,
                  admission_kib=6, value_pad=160, poll_us=40.0,
                  drain_ms=0.3, jobs=None):
    """The with/without-controller day; returns a JSON-able report.

    The default cell is deliberately overloaded at the crowd peaks: an
    uncontrolled fleet stalls through them, while the controller's
    ladder (bigger batches, destage priority, shedding, lazy
    replication) keeps windows completing.  ``--jobs 2`` runs the two
    cells in parallel.
    """
    day_ns = day_ms * 1e6
    target_ns = target_p99_us * 1e3
    base = {
        "seed": seed, "nodes": nodes, "tenants": tenants,
        "day_ns": day_ns, "mean_gap_ns": mean_gap_us * 1e3,
        "crowd_rate_per_day": crowd_rate_per_day,
        "crowd_amplitude": crowd_amplitude,
        "group_commit_bytes": group_commit_bytes,
        "group_commit_timeout_ns": group_commit_timeout_us * 1e3,
        "admission_bytes": admission_kib * 1024,
        "value_pad": value_pad,
        "target_p99_ns": target_ns,
        "poll_ns": poll_us * 1e3,
        "drain_ns": drain_ms * 1e6,
    }
    cells = [dict(base, controlled=False), dict(base, controlled=True)]
    baseline, controlled = run_cells(_slo_cell, cells, jobs)

    report = {
        "seed": seed,
        "nodes": nodes,
        "tenants": tenants,
        "day_ms": day_ms,
        "windows": windows,
        "target_p99_us": target_p99_us,
        "runs": {},
    }
    for label, row in (("baseline", baseline), ("controlled", controlled)):
        window_rows = _window_rows(row.pop("samples"), day_ns, windows,
                                   target_ns)
        row["windows"] = window_rows
        row["slo_minutes_violated"] = slo_minutes_violated(window_rows,
                                                           windows)
        row["violated_windows"] = sum(
            1 for window in window_rows if window["violated"])
        report["runs"][label] = row
    report["slo_minutes_saved"] = round(
        report["runs"]["baseline"]["slo_minutes_violated"]
        - report["runs"]["controlled"]["slo_minutes_violated"], 3,
    )
    return report
