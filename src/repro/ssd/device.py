"""The assembled conventional SSD.

Wires the pieces of Figure 2 (bottom) together: PCIe link, HIC, firmware,
FTL, channels, data buffer, scheduler, GC.  The host talks to the device
through :meth:`ConventionalSsd.submit` (driver-level) or the blocking
helpers :meth:`write`, :meth:`read`, :meth:`flush` (used by the host API
layer in :mod:`repro.host`).
"""

from dataclasses import dataclass, field

from repro.ftl.gc import GarbageCollector
from repro.ftl.mapping import PageMappingFtl
from repro.nand.channel import Channel
from repro.nand.dies import DieQos
from repro.nand.geometry import Geometry
from repro.nand.timing import NandTiming
from repro.pcie.dma import DmaEngine
from repro.pcie.link import PcieLink
from repro.sim.units import MIB
from repro.ssd.data_buffer import DataBuffer
from repro.ssd.firmware import Firmware
from repro.ssd.hic import HostInterfaceController
from repro.ssd.nvme import (
    CompletionQueue,
    NvmeCommand,
    Opcode,
    SubmissionQueue,
)
from repro.ssd.scheduler import SchedulingMode, WriteScheduler


# The paper constrains the PCIe interface to x4 Gen2 (2 GB/s) for its
# CMB experiments; the data buffer is DDR3 over a 64-bit bus.
PCIE_LANES = 4
PCIE_GEN = 2
DATA_BUFFER_BANDWIDTH = 2.0  # GB/s


@dataclass
class SsdConfig:
    """Knobs for building a conventional SSD (Cosmos+-shaped defaults)."""

    geometry: Geometry = field(default_factory=Geometry)
    timing: NandTiming = field(default_factory=NandTiming)
    data_buffer_bytes: int = 64 * MIB
    queue_depth: int = 64
    scheduling_mode: SchedulingMode = SchedulingMode.NEUTRAL
    hic_pumps: int = 8
    program_fault_model: object = None
    read_fault_model: object = None
    # Die QoS policy (erase suspend/resume, cache program, multi-plane
    # writes) shared by every channel and the scheduler; None builds the
    # all-off default, which reproduces the idealized backend exactly.
    qos: object = None


class ConventionalSsd:
    """A complete NVMe block device on a PCIe link."""

    def __init__(self, engine, config=None, name="ssd"):
        self.engine = engine
        self.config = config or SsdConfig()
        self.name = name
        cfg = self.config

        self.link = PcieLink(engine, lanes=PCIE_LANES, gen=PCIE_GEN,
                             name=f"{name}.pcie")
        self.dma = DmaEngine(engine, self.link)
        self.qos = cfg.qos if cfg.qos is not None else DieQos()
        self.channels = [
            Channel(engine, cfg.geometry, cfg.timing, channel_id=i,
                    fault_model=cfg.read_fault_model,
                    qos=self.qos,
                    name=f"{name}.ch{i}")
            for i in range(cfg.geometry.channels)
        ]
        self.ftl = PageMappingFtl(
            engine, self.channels, cfg.geometry,
            program_fault_model=cfg.program_fault_model,
            name=f"{name}.ftl",
        )
        self.data_buffer = DataBuffer(
            engine, cfg.data_buffer_bytes,
            bandwidth=DATA_BUFFER_BANDWIDTH,
        )
        self.scheduler = WriteScheduler(engine, self.ftl,
                                        mode=cfg.scheduling_mode,
                                        name=f"{name}.scheduler")
        self.firmware = Firmware(
            engine, self.ftl, self.data_buffer, self.scheduler,
            block_bytes=cfg.geometry.page_bytes,
        )
        self.submission_queue = SubmissionQueue(engine, depth=cfg.queue_depth)
        self.completion_queue = CompletionQueue(engine)
        self.hic = HostInterfaceController(
            engine, self.link, self.dma, self.submission_queue,
            self.completion_queue, self.firmware,
        )
        self.gc = GarbageCollector(engine, self.ftl, name=f"{name}.gc")
        self._started = False

    @property
    def block_bytes(self):
        """The device's logical block size (one flash page)."""
        return self.config.geometry.page_bytes

    def start(self):
        """Spin up the HIC pumps, scheduler workers, and GC."""
        if self._started:
            raise RuntimeError(f"{self.name} already started")
        self._started = True
        self.hic.start(pumps=self.config.hic_pumps)
        self.scheduler.start()
        self.gc.start()
        return self

    # -- driver-level interface ---------------------------------------------------

    def submit(self, command):
        """Submit an NVMe command; event value is the NvmeCompletion."""
        if not self._started:
            raise RuntimeError(f"{self.name} not started")
        done = self.completion_queue.expect(command.command_id)
        self.submission_queue.submit(command)
        return done

    # -- blocking helpers (used by the host API layer) ------------------------------

    def write(self, lba, payload, nblocks=1):
        """Durable block write; event value is the completion."""
        return self.submit(
            NvmeCommand(Opcode.WRITE, lba=lba, nblocks=nblocks,
                        payload=payload)
        )

    def read(self, lba, nblocks=1):
        """Block read; event value is the completion (result = payload)."""
        return self.submit(
            NvmeCommand(Opcode.READ, lba=lba, nblocks=nblocks)
        )

    def flush(self):
        return self.submit(NvmeCommand(Opcode.FLUSH))

    def admin(self, opcode, **arguments):
        """Issue an admin (possibly vendor-specific) command."""
        return self.submit(NvmeCommand(opcode, arguments=arguments))

    # -- introspection ---------------------------------------------------------------

    def write_bandwidth_ceiling(self):
        """Aggregate sustained program bandwidth of the array, bytes/ns.

        Per die: one page every (bus transfer + tPROG); dies overlap except
        on the shared channel bus.  The min of cell-limited and bus-limited
        throughput bounds the device — the 100% reference line of Fig. 12.

        With the NAND realism pack on, the per-die cost reflects it:
        cache program overlaps the transfer with the previous cell phase
        (``max`` instead of sum) and multi-plane batching amortizes one
        cell phase over ``planes_per_die`` pages.
        """
        geometry = self.config.geometry
        timing = self.config.timing
        page = geometry.page_bytes
        planes = (geometry.planes_per_die
                  if self.qos.multi_plane_writes else 1)
        transfer = timing.transfer_time(page) * planes
        cell = timing.t_program * (
            timing.multiplane_program_factor if planes > 1 else 1.0
        )
        if self.qos.cache_program:
            per_stripe = max(transfer, cell)
        else:
            per_stripe = transfer + cell
        per_die = page * planes / per_stripe
        cell_limit = per_die * geometry.dies
        bus_limit = timing.bus_bandwidth * geometry.channels
        return min(cell_limit, bus_limit)
