"""Error model: bit errors, ECC correction, and bad-block genesis.

The Villars paper handles flash faults in the conventional way (Section
7.1): a failed destage program means a bad block, handled internally by
picking a new block.  This module provides the fault injector the tests
and ablations use to exercise those paths deterministically.
"""

from repro.nand.errors import UncorrectableError
from repro.sim.rng import derive


# Wear enters the raw bit error rate as (erases / endurance) ** WEAR_EXPONENT.
WEAR_EXPONENT = 2.0


class WearCurve:
    """Raw bit error rate as a function of block wear and read disturb.

    Real devices see RBERs around 1e-7 (fresh) to 1e-4 (end of life):
    program/erase cycling degrades the tunnel oxide, and every read of a
    block disturbs its unread cells until the next erase resets them.
    The curve is deliberately simple — a power law in the erase-count
    fraction of rated endurance plus a linear read-disturb term, capped
    at ``max_ber`` — because the *shape* (aged blocks fail reads more,
    hammered blocks fail until erased) is what the retry-then-retire
    path and the aging bench measure.

    ``uncorrectable_scale`` converts a raw BER into the per-read
    probability that the codeword exceeds the ECC correction budget.
    The default keeps fresh blocks effectively error-free while an
    end-of-life block fails a few percent of reads; tests and the aged
    bench crank it instead of simulating trillions of reads.
    """

    def __init__(self, base_ber=1e-7, max_ber=1e-4, endurance=3_000,
                 disturb_reads=100_000, uncorrectable_scale=300.0):
        if not 0 < base_ber <= max_ber:
            raise ValueError("need 0 < base_ber <= max_ber")
        if endurance < 1 or disturb_reads < 1:
            raise ValueError("endurance and disturb_reads must be >= 1")
        self.base_ber = base_ber
        self.max_ber = max_ber
        self.endurance = endurance
        self.disturb_reads = disturb_reads
        self.uncorrectable_scale = uncorrectable_scale

    def ber(self, erase_count, read_count):
        """Raw bit error rate for a block with this wear state."""
        wear = min(1.0, erase_count / self.endurance) ** WEAR_EXPONENT
        disturb = min(1.0, read_count / self.disturb_reads)
        degraded = min(1.0, wear + disturb)
        return self.base_ber + (self.max_ber - self.base_ber) * degraded

    def uncorrectable_probability(self, erase_count, read_count):
        """Per-read probability the ECC budget is exceeded."""
        return min(
            1.0, self.ber(erase_count, read_count) * self.uncorrectable_scale
        )


class EccFaultModel:
    """Probabilistic read-error injector with deterministic seeding.

    Without a ``wear_curve`` the per-read uncorrectable probability is
    the constant ``uncorrectable_probability``.  With one, the
    probability is a function of the target block's erase count and
    read-disturb count (the channel passes both), so aging devices
    actually degrade and the FTL's retry-then-retire path fires
    organically on worn blocks.
    """

    def __init__(self, seed=0, uncorrectable_probability=0.0,
                 wear_curve=None):
        if not 0.0 <= uncorrectable_probability <= 1.0:
            raise ValueError("probability outside [0, 1]")
        self.probability = uncorrectable_probability
        self.wear_curve = wear_curve
        self._rng = derive(seed, "ecc")
        self.reads_checked = 0
        self.errors_raised = 0
        self._forced = set()
        self._forced_next = 0

    def force_error_at(self, channel, way, block, page):
        """Make every read of this exact page fail (deterministic tests).

        A hard fault: the page stays uncorrectable across read retries,
        unlike :meth:`force_next_errors` whose injections are transient
        and can be recovered by a retry.
        """
        self._forced.add((channel, way, block, page))

    def force_next_errors(self, count=1):
        """Fail the next ``count`` reads regardless of address.

        This is the schedule-driven injection hook: a fault plan knows
        *when* a read should fail, not which physical page the FTL will
        happen to touch.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        self._forced_next += count

    def check_read(self, channel, way, block, page, erase_count=0,
                   read_count=0):
        """Called by the channel on every read's cell phase.

        ``erase_count`` and ``read_count`` describe the target block's
        wear state; they only matter when a :class:`WearCurve` is
        attached.
        """
        self.reads_checked += 1
        key = (channel, way, block, page)
        if self._forced_next:
            self._forced_next -= 1
            self.errors_raised += 1
            raise UncorrectableError(f"injected uncorrectable read at {key}")
        if key in self._forced:
            self.errors_raised += 1
            raise UncorrectableError(f"forced error at {key}")
        if self.wear_curve is not None:
            probability = self.wear_curve.uncorrectable_probability(
                erase_count, read_count
            )
        else:
            probability = self.probability
        if probability and self._rng.random() < probability:
            self.errors_raised += 1
            raise UncorrectableError(
                f"uncorrectable read at {key} "
                f"(wear {erase_count} erases, {read_count} reads)"
            )


class ProgramFaultModel:
    """Injects program (write) failures so bad-block handling can be tested.

    The firmware consults :meth:`should_fail` before committing a program;
    a failure marks the block bad and the firmware must re-place the data —
    the destage-failure scenario of Section 7.1.  Programs fail only where
    a test or the chaos injector forces them to.
    """

    def __init__(self):
        self._forced = set()
        self._forced_next = 0
        self.failures = 0

    def force_failure_at(self, channel, way, block):
        self._forced.add((channel, way, block))

    def force_next_failures(self, count=1):
        """Fail the next ``count`` programs wherever the allocator places them."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._forced_next += count

    def should_fail(self, channel, way, block):
        key = (channel, way, block)
        if self._forced_next:
            self._forced_next -= 1
            self.failures += 1
            return True
        if key in self._forced:
            self._forced.discard(key)
            self.failures += 1
            return True
        return False
