"""Unit and property tests for the statistics utilities."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Engine
from repro.sim.stats import Candlestick, Counter, percentile


class TestPercentile:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_single_sample(self):
        assert percentile([42.0], 0.0) == 42.0
        assert percentile([42.0], 1.0) == 42.0

    def test_median_of_odd_set(self):
        assert percentile([3, 1, 2], 0.5) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 0.5) == 5.0
        assert percentile([0, 10], 0.25) == 2.5

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
    def test_bounds_property(self, samples):
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
            value = percentile(samples, fraction)
            assert min(samples) <= value <= max(samples)

    @given(st.lists(st.floats(0, 1e6), min_size=2, max_size=50))
    def test_monotone_in_fraction(self, samples):
        """Quantiles are non-decreasing in the fraction (up to float eps)."""
        quantiles = [percentile(samples, f) for f in (0.1, 0.5, 0.9)]
        for earlier, later in zip(quantiles, quantiles[1:]):
            assert later >= earlier - 1e-9 * max(1.0, abs(earlier))


class TestCandlestick:
    def test_five_numbers_ordered(self):
        stick = Candlestick([5, 1, 3, 2, 4])
        assert stick.low == 1
        assert stick.high == 5
        assert stick.median == 3
        assert stick.low <= stick.q1 <= stick.median <= stick.q3 <= stick.high

    def test_spread(self):
        assert Candlestick([2, 8]).spread == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Candlestick([])

    @given(st.lists(st.floats(0, 1e9), min_size=1, max_size=100))
    def test_ordering_property(self, samples):
        stick = Candlestick(samples)
        assert (stick.low <= stick.q1 <= stick.median
                <= stick.q3 <= stick.high)
        assert stick.count == len(samples)


class TestCounter:
    def test_advance_monotone(self):
        engine = Engine()
        counter = Counter(engine)
        counter.advance(10)
        counter.advance(5)
        assert counter.value == 15

    def test_regression_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            Counter(engine).advance(-1)

    def test_set_at_least_idempotent(self):
        engine = Engine()
        counter = Counter(engine)
        counter.set_at_least(100)
        counter.set_at_least(50)  # lower: no effect
        assert counter.value == 100

    def test_advance_timestamps(self):
        engine = Engine()
        counter = Counter(engine)

        def proc():
            yield engine.timeout(500.0)
            counter.advance(1)

        engine.process(proc())
        engine.run()
        assert counter.last_advanced_at == 500.0
