"""Discrete-event simulation kernel.

Everything in this reproduction — NAND arrays, PCIe links, the CMB module,
the database engine — runs as cooperating processes on top of this kernel.
The design is a deliberately small subset of the well-known simpy style:

* :class:`Engine` owns the simulated clock (nanoseconds) and the event heap.
* :class:`Event` is a one-shot occurrence that processes can wait on.
* Processes are plain Python generators that ``yield`` events; the engine
  resumes them when the event fires.
* Resources (:class:`~repro.sim.resources.Store`,
  :class:`~repro.sim.resources.Container`,
  :class:`~repro.sim.resources.BandwidthPipe`, ...) model contention.

The kernel is fully deterministic for a fixed seed: ties in the event heap
break on a monotonically increasing sequence number, never on object ids.
"""

from repro.sim.engine import (
    NULL_TRACER,
    Engine,
    Event,
    Process,
    SimulationError,
    Timeout,
    set_tracer_factory,
)
from repro.sim.resources import (
    BandwidthPipe,
    Container,
    Resource,
    Store,
)
from repro.sim.stats import (
    Candlestick,
    Counter,
    percentile,
)
from repro.sim.units import (
    GB,
    GIB,
    KB,
    KIB,
    MB,
    MIB,
    MICROS,
    MILLIS,
    NANOS,
    SECONDS,
)

__all__ = [
    "Engine",
    "NULL_TRACER",
    "set_tracer_factory",
    "Event",
    "Process",
    "Timeout",
    "SimulationError",
    "Resource",
    "Store",
    "Container",
    "BandwidthPipe",
    "Candlestick",
    "Counter",
    "percentile",
    "KB",
    "MB",
    "GB",
    "KIB",
    "MIB",
    "GIB",
    "NANOS",
    "MICROS",
    "MILLIS",
    "SECONDS",
]
