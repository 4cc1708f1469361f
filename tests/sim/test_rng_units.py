"""Tests for the deterministic RNG helpers and unit constants."""

from repro.sim.rng import SimRandom, derive
from repro.sim.units import (
    GB,
    KIB,
    MICROS,
    SECONDS,
)


class TestDerive:
    def test_same_labels_same_stream(self):
        a = derive(42, "tpcc", 0)
        b = derive(42, "tpcc", 0)
        assert [a.random() for _ in range(10)] == [
            b.random() for _ in range(10)
        ]

    def test_different_labels_different_streams(self):
        a = derive(42, "tpcc", 0)
        b = derive(42, "tpcc", 1)
        assert [a.random() for _ in range(10)] != [
            b.random() for _ in range(10)
        ]

    def test_child_streams_are_independent(self):
        """Drawing extra numbers from one stream must not shift another."""
        first_run = derive(1, "b").random()
        a = derive(1, "a")
        for _ in range(100):
            a.random()
        second_run = derive(1, "b").random()
        assert first_run == second_run


class TestDistributions:
    def test_nonuniform_in_range(self):
        rng = SimRandom(7)
        for _ in range(500):
            value = rng.nonuniform(1023, 1, 3000)
            assert 1 <= value <= 3000

    def test_exponential_positive(self):
        rng = SimRandom(7)
        samples = [rng.exponential_ns(1000.0) for _ in range(200)]
        assert all(sample >= 1.0 for sample in samples)
        mean = sum(samples) / len(samples)
        assert 500 < mean < 2000  # roughly the requested mean


class TestUnits:
    def test_size_constants(self):
        assert KIB == 1024
        assert GB == 10 ** 9

    def test_time_constants(self):
        assert MICROS == 1_000.0
        assert SECONDS == 1e9
