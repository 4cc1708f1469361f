"""Experiment E3 / Fig. 11: group-commit size x CMB queue size (SRAM).

Section 6.3: the intake queue's size sets how much the database can write
before re-reading the credit counter.  The experiment sends group-commit-
sized writes (1 KB to 64 KB) through the fast side while the queue varies
(4 KB to 64 KB) and reports per-write latency and overall throughput.

Expected shape: once the queue is at least as big as the write, latency
is dominated by the write size itself; a 32 KB queue achieves the best
throughput across group-commit sizes (OLTP records stay under ~20 KB, so
32 KB absorbs a whole group without mid-write credit checks).
"""

from repro.bench.parallel import run_cells
from repro.bench.stacks import build_villars
from repro.host.api import XssdLogFile
from repro.sim import Engine
from repro.sim.units import KIB

GROUP_SIZES = tuple(k * KIB for k in (1, 2, 4, 8, 16, 32, 64))
QUEUE_SIZES = tuple(k * KIB for k in (4, 8, 16, 32, 64))


def run_one(group_bytes, queue_bytes, writes=64):
    """One (group size, queue size) cell; returns latency + throughput."""
    engine = Engine()
    device = build_villars(engine, "sram", queue_bytes=queue_bytes,
                           cmb_capacity=max(256 * KIB, 4 * queue_bytes))
    log = XssdLogFile(device)
    latencies = []

    def writer():
        for index in range(writes):
            start = engine.now
            yield log.x_pwrite(f"group-{index}", group_bytes)
            yield log.x_fsync()
            latencies.append(engine.now - start)

    start = engine.now
    done = engine.process(writer())
    finished_at = {}

    def _mark(_event):
        finished_at["t"] = engine.now

    done.then(_mark)
    engine.run(until=120e9)
    if not done.triggered:
        raise RuntimeError(
            f"writer stalled (group={group_bytes}, queue={queue_bytes})"
        )
    elapsed = finished_at["t"] - start
    return {
        "group_kib": group_bytes // KIB,
        "queue_kib": queue_bytes // KIB,
        "mean_latency_us": sum(latencies) / len(latencies) / 1e3,
        "throughput_mb_per_s": writes * group_bytes * 1e9 / elapsed / 1e6,
        "credit_checks": log.credit_checks,
    }


def cells(group_sizes=GROUP_SIZES, queue_sizes=QUEUE_SIZES, writes=64):
    """The figure's independent cells, in output order."""
    return [
        {"group_bytes": group_bytes, "queue_bytes": queue_bytes,
         "writes": writes}
        for queue_bytes in queue_sizes
        for group_bytes in group_sizes
    ]


def run_fig11(group_sizes=GROUP_SIZES, queue_sizes=QUEUE_SIZES, writes=64,
              jobs=None):
    return run_cells(
        run_one, cells(group_sizes, queue_sizes, writes), jobs=jobs
    )
