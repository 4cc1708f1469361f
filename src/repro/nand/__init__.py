"""NAND flash substrate: geometry, timing, dies, channels, error model.

This is the conventional side's storage medium (Section 2.2's Flash Arrays
and the Storage Controller's view of them).  The model captures what the
evaluation depends on:

* the program/read/erase latency asymmetry versus PM (hundreds of
  microseconds versus hundreds of nanoseconds) — the reason the fast side
  exists at all;
* per-die busy exclusivity and per-channel bus sharing — the "gaps" that
  opportunistic destaging (Section 4.3, Fig. 12) schedules into;
* erase-before-program and in-order page programming — the constraints the
  FTL exists to hide.

Parameters default to the Cosmos+ OpenSSD platform the paper prototyped on.
"""

from repro.nand.channel import Channel
from repro.nand.dies import DieQos, DieResourceManager
from repro.nand.ecc import EccFaultModel, ProgramFaultModel, WearCurve
from repro.nand.errors import (
    BadBlockError,
    NandError,
    ProgramOrderError,
    UncorrectableError,
    WriteWithoutEraseError,
)
from repro.nand.flash_array import Block, FlashDie
from repro.nand.geometry import Geometry, PhysicalPageAddress
from repro.nand.timing import NandTiming

__all__ = [
    "Geometry",
    "PhysicalPageAddress",
    "NandTiming",
    "FlashDie",
    "Block",
    "Channel",
    "DieQos",
    "DieResourceManager",
    "EccFaultModel",
    "ProgramFaultModel",
    "WearCurve",
    "NandError",
    "BadBlockError",
    "UncorrectableError",
    "ProgramOrderError",
    "WriteWithoutEraseError",
]
