"""Flash Translation Layer: logical-to-physical mapping, GC, bad blocks.

The FTL is the heart of the Firmware subsystem (Section 2.2): it picks the
physical flash page for every logical write, reclaims space with garbage
collection, and retires bad blocks.  The Villars device reuses
the conventional FTL unchanged — its fast side only adds the destage ring
as one more *client* of the FTL — so this implementation serves both sides.
"""

from repro.ftl.allocator import BlockAllocator, OutOfSpaceError
from repro.ftl.gc import GarbageCollector
from repro.ftl.mapping import MappingTable, PageMappingFtl

__all__ = [
    "MappingTable",
    "PageMappingFtl",
    "BlockAllocator",
    "OutOfSpaceError",
    "GarbageCollector",
]
