"""Deterministic randomness for workload generation.

All stochastic behavior in the simulator flows through :class:`SimRandom`
instances seeded explicitly, so a run is exactly reproducible — a requirement
for the property tests and for debugging scheduler interleavings.
"""

import random


class SimRandom(random.Random):
    """A seeded RNG with the distribution helpers workloads need."""

    def nonuniform(self, a, x, y):
        """TPC-C NURand(A, x, y) non-uniform distribution (clause 2.1.6).

        The constant C is fixed at construction-time per the spec's intent;
        we use A itself as a deterministic stand-in, which preserves the
        skew shape.
        """
        c = a // 2
        return (((self.randint(0, a) | self.randint(x, y)) + c) % (y - x + 1)) + x

    def exponential_ns(self, mean_ns):
        """Exponential inter-arrival time, clamped away from zero."""
        return max(1.0, self.expovariate(1.0 / mean_ns))


def derive(seed, *labels):
    """Derive a child RNG deterministically from a seed and string labels.

    Lets each component (per warehouse, per worker, per device) own an
    independent stream that does not perturb the others when one component
    draws more numbers.
    """
    material = ":".join([str(seed), *map(str, labels)])
    return SimRandom(material)
