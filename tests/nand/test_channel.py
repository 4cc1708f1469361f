"""Unit tests for the flash channel: timing, bus sharing, die exclusivity."""

import pytest

from repro.nand.channel import Channel
from repro.nand.ecc import EccFaultModel, ProgramFaultModel
from repro.nand.errors import UncorrectableError
from repro.nand.geometry import Geometry
from repro.nand.timing import NandTiming
from repro.sim import Engine


def make_channel(ways=2, fault_model=None):
    engine = Engine()
    geometry = Geometry(channels=1, ways_per_channel=ways, blocks_per_die=4,
                        pages_per_block=4, page_bytes=4096)
    timing = NandTiming(t_program=100_000.0, t_read=10_000.0,
                        t_erase=500_000.0, bus_bandwidth=0.5)
    return engine, Channel(engine, geometry, timing, channel_id=0,
                           fault_model=fault_model)


def test_program_takes_bus_plus_cell_time():
    engine, channel = make_channel()
    done = []

    def proc():
        yield channel.program(0, 0, 0, "data")
        done.append(engine.now)

    engine.process(proc())
    engine.run()
    bus_time = 4096 / 0.5
    assert done == [pytest.approx(bus_time + 100_000.0)]


def test_read_returns_programmed_payload():
    engine, channel = make_channel()
    results = []

    def proc():
        yield channel.program(0, 0, 0, "the-log-page")
        results.append((yield channel.read(0, 0, 0)))

    engine.process(proc())
    engine.run()
    assert results == [("the-log-page", 4096)]


def test_erased_page_read_moves_a_full_page():
    engine, channel = make_channel()
    results = []

    def proc():
        results.append((yield channel.read(0, 0, 0)))
        results.append(engine.now)

    engine.process(proc())
    engine.run()
    assert results == [(None, 0), pytest.approx(10_000.0 + 4096 / 0.5)]
    assert channel.die(0).blocks[0].read_count == 1


def test_two_dies_overlap_cell_time_but_share_bus():
    """Programs to different ways serialize only on the data phase."""
    engine, channel = make_channel(ways=2)
    finish = {}

    def proc(way):
        yield channel.program(way, 0, 0, f"way-{way}")
        finish[way] = engine.now

    engine.process(proc(0))
    engine.process(proc(1))
    engine.run()
    bus_time = 4096 / 0.5
    assert finish[0] == pytest.approx(bus_time + 100_000.0)
    # Way 1 waits one extra bus slot, not an extra tPROG.
    assert finish[1] == pytest.approx(2 * bus_time + 100_000.0)


def test_same_die_operations_serialize_fully():
    engine, channel = make_channel(ways=1)
    finish = []

    def proc(tag):
        yield channel.program(0, 0, tag, f"p{tag}")
        finish.append((tag, engine.now))

    engine.process(proc(0))
    engine.process(proc(1))
    engine.run()
    bus_time = 4096 / 0.5
    one_op = bus_time + 100_000.0
    assert finish[0] == (0, pytest.approx(one_op))
    assert finish[1][1] == pytest.approx(2 * one_op)


def test_erase_occupies_die_for_t_erase():
    engine, channel = make_channel(ways=1)
    done = []

    def proc():
        yield channel.erase(0, 0)
        done.append(engine.now)

    engine.process(proc())
    engine.run()
    assert done == [pytest.approx(500_000.0)]


def test_idle_ways_reports_scheduling_gaps():
    engine, channel = make_channel(ways=2)
    snapshots = []

    def writer():
        yield channel.program(0, 0, 0, "busy-die")

    def observer():
        yield engine.timeout(1.0)
        snapshots.append(tuple(channel.idle_ways()))

    engine.process(writer())
    engine.process(observer())
    engine.run()
    assert snapshots == [(1,)]


def test_forced_read_error_raises_uncorrectable():
    fault = EccFaultModel()
    fault.force_error_at(0, 0, 0, 0)
    engine, channel = make_channel(fault_model=fault)
    caught = []

    def proc():
        yield channel.program(0, 0, 0, "x")
        try:
            yield channel.read(0, 0, 0)
        except UncorrectableError:
            caught.append(True)

    engine.process(proc())
    engine.run()
    assert caught == [True]
    assert fault.errors_raised == 1


def test_probabilistic_fault_model_is_deterministic_per_seed():
    def count_errors(seed):
        fault = EccFaultModel(seed=seed, uncorrectable_probability=0.3)
        hits = 0
        for i in range(100):
            try:
                fault.check_read(0, 0, 0, i)
            except UncorrectableError:
                hits += 1
        return hits

    assert count_errors(7) == count_errors(7)
    assert 10 < count_errors(7) < 60  # roughly 30 of 100


def test_program_fault_model_forced_failure():
    model = ProgramFaultModel()
    model.force_failure_at(0, 0, 3)
    assert model.should_fail(0, 0, 3)
    assert not model.should_fail(0, 0, 3)  # one-shot
    assert model.failures == 1
