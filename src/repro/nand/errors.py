"""Exception hierarchy for modeled NAND faults.

These are *modeled* device conditions, not simulator bugs: the firmware is
expected to catch and handle them (bad-block remapping, ECC retries), just
as real firmware does.
"""


class NandError(Exception):
    """Base class for modeled flash faults."""


class BadBlockError(NandError):
    """The target block is marked bad; the operation was not performed."""


class WriteWithoutEraseError(NandError):
    """Attempt to program a page that was not erased since its last program."""


class ProgramOrderError(NandError):
    """Pages within a block must be programmed in ascending order."""


class UncorrectableError(NandError):
    """Read hit more bit errors than the ECC can correct."""
