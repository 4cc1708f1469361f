"""CMB backing memories: SRAM and DRAM variants.

A backing memory is a byte store with a finite write port.  The two Villars
variants differ in:

* **bandwidth** — SRAM (FPGA BlockRAM, 128-bit bus at 250 MHz) delivers
  4 GB/s; DRAM (the DDR3 data-buffer pool, accessed over a 64-bit bus at
  250 MHz) delivers 2 GB/s;
* **sharing** — the DRAM port is shared with the device's regular data
  buffering (the effect behind Fig. 9's DRAM back-pressure at 8 workers);
  the model folds that into a private port at about a third of the
  pool's bandwidth rather than contending on the data buffer's port;
* **capacity** — 128 KiB of SRAM versus 128 MiB of DRAM in the prototype.
"""

from repro.sim.resources import BandwidthPipe
from repro.sim.units import KIB, MIB


class BackingMemory:
    """A persistent byte store with a finite-bandwidth write/read port.

    ``write(nbytes)`` and ``read(nbytes)`` return events that fire when the
    transfer has fully passed the port.  When a ``shared_port`` pipe is
    given, transfers go through it instead of a private port — this is how
    the DRAM variant contends with data-buffer traffic.
    """

    def __init__(self, engine, name, capacity, bandwidth, access_latency_ns,
                 shared_port=None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        if shared_port is not None:
            self.port = shared_port
        else:
            self.port = BandwidthPipe(
                engine, bandwidth, latency=access_latency_ns,
                name=f"{name}.port",
            )
        self.bytes_written = 0
        self.bytes_read = 0

    def write(self, nbytes):
        """Persist ``nbytes``; event fires when they are durable."""
        if nbytes < 0:
            raise ValueError("cannot write a negative size")
        self.bytes_written += nbytes
        return self.port.transfer(nbytes)

    def read(self, nbytes):
        """Fetch ``nbytes``; event fires when they left the port."""
        if nbytes < 0:
            raise ValueError("cannot read a negative size")
        self.bytes_read += nbytes
        return self.port.transfer(nbytes)


def sram_backing(engine, capacity=128 * KIB):
    """The Villars-SRAM configuration: FPGA BlockRAM at 4 GB/s."""
    return BackingMemory(
        engine,
        name="cmb-sram",
        capacity=capacity,
        bandwidth=4.0,
        access_latency_ns=20.0,
    )


def dram_backing(engine, capacity=128 * MIB):
    """The Villars-DRAM configuration.

    The DDR3 pool's port peaks at 2 GB/s over the 64-bit bus, but the CMB
    is a *guest* in that pool: refresh, the controller's regular
    buffering activity, and read/write turnarounds leave roughly a third
    of it to the fast side.
    """
    return BackingMemory(
        engine,
        name="cmb-dram",
        capacity=capacity,
        bandwidth=0.7,
        access_latency_ns=80.0,
    )
