"""Flash geometry: channels / ways / dies / blocks / pages and addressing."""

from dataclasses import dataclass

from repro.sim.units import KIB


@dataclass(frozen=True)
class PhysicalPageAddress:
    """A fully resolved flash page location."""

    channel: int
    way: int
    block: int
    page: int

    def __str__(self):
        return f"ch{self.channel}/w{self.way}/b{self.block}/p{self.page}"


@dataclass(frozen=True)
class Geometry:
    """The shape of the flash array.

    Defaults approximate the Cosmos+ OpenSSD platform (8 channels x 8 ways,
    16 KiB pages, 256 pages per block).  ``blocks_per_die`` defaults small
    so unit tests stay fast; device-level configs raise it.
    """

    channels: int = 8
    ways_per_channel: int = 8
    blocks_per_die: int = 64
    pages_per_block: int = 256
    page_bytes: int = 16 * KIB
    #: Planes per die.  Blocks interleave across planes (block ``b`` lives
    #: on plane ``b % planes_per_die``); multi-plane operations address one
    #: aligned block per plane.  The default of 1 keeps the idealized
    #: single-plane behavior; realistic configs use 2 or 4.
    planes_per_die: int = 1

    def __post_init__(self):
        for name in (
            "channels",
            "ways_per_channel",
            "blocks_per_die",
            "pages_per_block",
            "page_bytes",
            "planes_per_die",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.blocks_per_die % self.planes_per_die:
            raise ValueError(
                "blocks_per_die must be a multiple of planes_per_die"
            )

    @property
    def dies(self):
        """Total number of independently busy flash dies."""
        return self.channels * self.ways_per_channel

    @property
    def pages_per_die(self):
        return self.blocks_per_die * self.pages_per_block

    # -- plane addressing ----------------------------------------------------

    def plane_of(self, block):
        """The plane a block index belongs to (interleaved layout)."""
        return block % self.planes_per_die

    def stripe_base(self, block):
        """First block of the aligned multi-plane stripe containing ``block``."""
        return block - (block % self.planes_per_die)

    @property
    def total_pages(self):
        return self.dies * self.pages_per_die

    @property
    def capacity_bytes(self):
        return self.total_pages * self.page_bytes

    def validate(self, address):
        """Raise ``ValueError`` if ``address`` is outside the array."""
        if not 0 <= address.channel < self.channels:
            raise ValueError(f"channel {address.channel} out of range")
        if not 0 <= address.way < self.ways_per_channel:
            raise ValueError(f"way {address.way} out of range")
        if not 0 <= address.block < self.blocks_per_die:
            raise ValueError(f"block {address.block} out of range")
        if not 0 <= address.page < self.pages_per_block:
            raise ValueError(f"page {address.page} out of range")

    def page_index(self, address):
        """Flatten an address into a dense integer (for mapping tables)."""
        self.validate(address)
        die = address.channel * self.ways_per_channel + address.way
        return (
            die * self.pages_per_die
            + address.block * self.pages_per_block
            + address.page
        )

    def address_of(self, page_index):
        """Inverse of :meth:`page_index`."""
        if not 0 <= page_index < self.total_pages:
            raise ValueError(f"page index {page_index} out of range")
        die, rest = divmod(page_index, self.pages_per_die)
        block, page = divmod(rest, self.pages_per_block)
        channel, way = divmod(die, self.ways_per_channel)
        return PhysicalPageAddress(channel, way, block, page)
