"""Measurement utilities: percentiles, candlesticks, counters.

The benchmark harness reports the same statistics the paper plots: average
transaction latency/throughput (Fig. 9, 11), normalized throughput (Fig. 10),
bandwidth shares (Fig. 12), and latency candlesticks plus bandwidth
percentages (Fig. 13).
"""

import math


def percentile(samples, fraction, presorted=False):
    """Linear-interpolated percentile of ``samples`` (fraction in [0, 1]).

    Pass ``presorted=True`` when ``samples`` is already sorted to skip the
    O(n log n) copy — callers that take several percentiles of one sample
    set (candlesticks) sort once and reuse.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    ordered = samples if presorted else sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high or ordered[low] == ordered[high]:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


class Candlestick:
    """Five-number summary (min, p25, median, p75, max) of a sample set.

    This is the box-with-whiskers shape Fig. 13 draws for shadow-counter
    update latencies.
    """

    __slots__ = ("low", "q1", "median", "q3", "high", "count")

    def __init__(self, samples, presorted=False):
        if not samples:
            raise ValueError("candlestick of an empty sample set")
        # One sort serves all five numbers (the seed re-sorted per
        # percentile — four sorts per candlestick on Fig. 13's path).
        ordered = samples if presorted else sorted(samples)
        self.count = len(ordered)
        self.low = ordered[0]
        self.q1 = percentile(ordered, 0.25, presorted=True)
        self.median = percentile(ordered, 0.50, presorted=True)
        self.q3 = percentile(ordered, 0.75, presorted=True)
        self.high = ordered[-1]

    @property
    def spread(self):
        """Max minus min — the 'variance band' the paper discusses."""
        return self.high - self.low

    def __repr__(self):
        return (
            f"Candlestick(low={self.low:.1f}, q1={self.q1:.1f}, "
            f"median={self.median:.1f}, q3={self.q3:.1f}, "
            f"high={self.high:.1f}, n={self.count})"
        )


class Counter:
    """A monotonically non-decreasing byte counter with change history.

    This is the *credit counter* abstraction (Section 4.1 of the paper): the
    device increments it as bytes become persistent; the host polls it.  The
    monotonicity invariant is enforced here so every user of the class gets
    it checked for free.
    """

    def __init__(self, engine, name="counter"):
        self.engine = engine
        self.name = name
        self.value = 0
        self.last_advanced_at = engine.now

    def advance(self, amount):
        """Add ``amount`` bytes; rejects regressions."""
        if amount < 0:
            raise ValueError(f"{self.name}: counters never regress")
        if amount:
            self.value += amount
            self.last_advanced_at = self.engine.now
        return self.value

    def set_at_least(self, target):
        """Raise the counter to ``target`` if it is below (idempotent)."""
        if target > self.value:
            self.value = target
            self.last_advanced_at = self.engine.now
        return self.value

    def __repr__(self):
        return f"Counter({self.name}={self.value})"
