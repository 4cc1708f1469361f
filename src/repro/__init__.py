"""repro — a full-stack reproduction of the X-SSD / Villars storage system.

The package rebuilds the system of *"X-SSD: A Storage System with Native
Support for Database Logging and Replication"* (SIGMOD 2022) as a timed
discrete-event simulation: a complete NVMe SSD substrate (NAND, FTL,
scheduler, NVMe protocol), the paper's fast side (CMB module, Destage
module, Transport module with shadow-counter replication), the drop-in
host API (``x_pwrite``/``x_fsync``/``x_pread``), an in-memory database
with write-ahead logging, and the benchmark harness that regenerates the
paper's evaluation figures.

Quick start::

    from repro.core import XssdDevice, villars_sram
    from repro.host import XssdLogFile
    from repro.sim import Engine, KIB

    engine = Engine()
    device = XssdDevice(engine, villars_sram()).start()
    log = XssdLogFile(device)

    def scenario():
        yield log.x_pwrite(b"a log record", 4 * KIB)
        yield log.x_fsync()   # durable once the credit counter covers it

    engine.process(scenario())
    engine.run(until=1e9)

Package map — see DESIGN.md for the full inventory:

========================  ====================================================
``repro.sim``             discrete-event kernel (engine, resources, stats)
``repro.pcie``            TLPs, links, MMIO/write-combining, DMA, NTB, RDMA
``repro.nand``            flash geometry, timings, dies, channels, faults
``repro.ftl``             page mapping, GC, bad blocks
``repro.ssd``             NVMe front end, buffer, scheduler, firmware, device
``repro.pm``              CMB backing memories and host NVDIMM
``repro.core``            the paper's contribution: CMB / Destage / Transport
``repro.host``            drop-in x_* calls, allocator API, baselines
``repro.db``              transactions, WAL with group commit, recovery
``repro.workloads``       TPC-C-shaped, YCSB, synthetic streams
``repro.cluster``         replicated topologies and failure injection
``repro.bench``           one experiment module per paper figure
========================  ====================================================
"""

__version__ = "1.0.0"

__all__ = [
    "sim",
    "pcie",
    "nand",
    "ftl",
    "ssd",
    "pm",
    "core",
    "host",
    "db",
    "workloads",
    "cluster",
    "bench",
]
