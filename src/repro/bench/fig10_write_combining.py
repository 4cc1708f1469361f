"""Experiment E2 / Fig. 10: write combining vs uncached, by write size.

Section 6.2: the fast side is byte-addressable, but every store becomes a
TLP, and per-packet overhead dominates small writes.  The experiment
pushes a fixed volume through the CMB MMIO window with store sizes from
1 to 512 bytes, under Write-Combining and Uncached mappings, for SRAM-
and DRAM-backed CMBs, and reports throughput normalized to the best
configuration.

Expected shape: WC >= UC at every size; SRAM peaks at 64-byte stores
(one WC buffer per TLP); DRAM plateaus from small sizes because its port
is the bottleneck, not the link.
"""

from repro.bench.parallel import run_cells
from repro.core.cmb import CmbModule
from repro.pcie.link import PcieLink
from repro.pcie.mmio import CachePolicy, MmioRegion
from repro.pm.backing import dram_backing, sram_backing
from repro.sim import Engine
from repro.sim.units import KIB

WRITE_SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
POLICIES = ("WC", "UC")
BACKINGS = ("sram", "dram")


def run_one(backing_kind, policy_name, write_bytes, total_bytes=256 * KIB):
    """Push ``total_bytes`` through the fast side; returns bytes/ns."""
    engine = Engine()
    link = PcieLink(engine, lanes=4, gen=2)  # the paper's constrained x4 Gen2
    if backing_kind == "sram":
        backing = sram_backing(engine, capacity=1 << 30)
    else:
        backing = dram_backing(engine, capacity=1 << 30)
    cmb = CmbModule(engine, backing, queue_bytes=32 * KIB)
    cmb.start()
    policy = (
        CachePolicy.WRITE_COMBINING if policy_name == "WC"
        else CachePolicy.UNCACHED
    )
    region = MmioRegion(engine, link, size=1 << 30, policy=policy)
    region.on_write(cmb.intake)

    def writer():
        # Each write is one log append and must be individually ordered
        # (the record is not complete until all its bytes are pushed out),
        # so a fence follows every write — the discipline under which the
        # paper finds 64-byte writes optimal.
        offset = 0
        while offset < total_bytes:
            size = min(write_bytes, total_bytes - offset)
            yield region.store(offset, size, (offset, size, None))
            yield region.fence()
            offset += size

    start = engine.now
    done = engine.process(writer())
    # This stack has no perpetual timers: the run drains naturally once
    # the last byte persists, so engine.now is the completion time.
    engine.run()
    if not done.triggered:
        raise RuntimeError("writer did not finish")
    if cmb.credit.value < total_bytes:
        raise RuntimeError("pipeline stalled before persistence")
    elapsed = engine.now - start
    return {
        "backing": backing_kind,
        "policy": policy_name,
        "write_bytes": write_bytes,
        "throughput_bytes_per_ns": total_bytes / elapsed,
        "tlps": region.tlps_emitted,
    }


def cells(write_sizes=WRITE_SIZES, backings=BACKINGS, total_bytes=256 * KIB):
    """The figure's independent cells, in output order."""
    return [
        {"backing_kind": backing, "policy_name": policy,
         "write_bytes": size, "total_bytes": total_bytes}
        for backing in backings
        for policy in POLICIES
        for size in write_sizes
    ]


def run_fig10(write_sizes=WRITE_SIZES, backings=BACKINGS,
              total_bytes=256 * KIB, jobs=None):
    """The full figure, with per-backing normalization to the best cell."""
    rows = run_cells(
        run_one, cells(write_sizes, backings, total_bytes), jobs=jobs
    )
    for backing in backings:
        best = max(
            row["throughput_bytes_per_ns"]
            for row in rows
            if row["backing"] == backing
        )
        for row in rows:
            if row["backing"] == backing:
                row["normalized"] = row["throughput_bytes_per_ns"] / best
    return rows
