"""Device configuration: the Villars reference builds.

Two presets mirror the prototype's CMB backing options (Section 6):

* :func:`villars_sram` — 128 KiB of FPGA BlockRAM at 4 GB/s;
* :func:`villars_dram` — 128 MiB carved out of the DDR3 data-buffer pool,
  whose 2 GB/s port leaves the CMB about 0.7 GB/s of its own.

Both constrain the PCIe interface to x4 Gen2 (2 GB/s) as the paper does
for CMB experiments.
"""

from dataclasses import dataclass, field, replace

from repro.sim.units import KIB, MIB
from repro.ssd.device import SsdConfig


@dataclass
class VillarsConfig:
    """Everything needed to assemble one Villars device."""

    ssd: SsdConfig = field(default_factory=SsdConfig)
    backing_kind: str = "sram"  # "sram" or "dram"
    cmb_capacity: int = 128 * KIB
    cmb_queue_bytes: int = 32 * KIB  # the best-performing size (Fig. 11)
    destage_latency_threshold_ns: float = 50_000.0
    destage_ring_blocks: int = 4096
    transport_update_period_ns: float = 400.0  # Fig. 13's best frequency
    # Seed for the transport's randomized retry backoff; scenario builders
    # thread their master seed through here so chaos runs replay byte-
    # for-byte (the jitter streams derive from this value per peer).
    transport_seed: int = 0
    # Hard cap on bytes accepted-but-not-yet-persisted at the CMB intake.
    # None (the default) preserves the unbounded-intake behavior; a bound
    # makes the intake shed excess chunks instead of queueing without
    # limit (see repro/health — overload protection).
    cmb_intake_bound_bytes: int | None = None

    def __post_init__(self):
        if self.backing_kind not in ("sram", "dram"):
            raise ValueError("backing_kind must be 'sram' or 'dram'")
        if self.cmb_queue_bytes <= 0:
            raise ValueError("queue size must be positive")
        if self.cmb_capacity < self.cmb_queue_bytes:
            raise ValueError("CMB capacity must hold at least the queue")
        if (self.cmb_intake_bound_bytes is not None
                and self.cmb_intake_bound_bytes < self.cmb_queue_bytes):
            raise ValueError("intake bound cannot be below the queue size")


def villars_sram(**overrides):
    """The Villars-SRAM configuration (BlockRAM-backed CMB)."""
    config = VillarsConfig(backing_kind="sram", cmb_capacity=128 * KIB)
    return replace(config, **overrides) if overrides else config


def villars_dram(**overrides):
    """The Villars-DRAM configuration (data-buffer-pool-backed CMB)."""
    config = VillarsConfig(backing_kind="dram", cmb_capacity=128 * MIB)
    return replace(config, **overrides) if overrides else config
