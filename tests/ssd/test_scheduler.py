"""Tests for the write scheduler's priority modes (opportunistic destaging)."""

import pytest

from repro.ftl.mapping import PageMappingFtl
from repro.nand.channel import Channel
from repro.nand.geometry import Geometry
from repro.nand.timing import NandTiming
from repro.sim import Engine
from repro.ssd.scheduler import (
    SchedulingMode,
    Source,
    WriteRequest,
    WriteScheduler,
)


def make_scheduler(mode, channels=1, ways=1):
    engine = Engine()
    geometry = Geometry(channels=channels, ways_per_channel=ways,
                        blocks_per_die=64, pages_per_block=16,
                        page_bytes=4096)
    timing = NandTiming(t_program=10_000.0, t_read=1_000.0,
                        t_erase=50_000.0, bus_bandwidth=4.0)
    chans = [Channel(engine, geometry, timing, channel_id=i)
             for i in range(channels)]
    ftl = PageMappingFtl(engine, chans, geometry)
    scheduler = WriteScheduler(engine, ftl, mode=mode)
    scheduler.start()
    return engine, scheduler


def submit_batch(scheduler, source, count, base_lba):
    events = []
    for i in range(count):
        events.append(
            scheduler.submit(source, base_lba + i, f"{source.value}-{i}", 4096)
        )
    return events


def drain_order(mode):
    """Run a contended batch; return dispatch order by source."""
    engine, scheduler = make_scheduler(mode)
    order = []

    conventional = submit_batch(scheduler, Source.CONVENTIONAL, 4, 0)
    destage = submit_batch(scheduler, Source.DESTAGE, 4, 100)
    for source, events in (("conv", conventional), ("dest", destage)):
        for event in events:
            event.then(lambda _ev, s=source: order.append(s))
    engine.run(until=1_000_000.0)
    return order


def test_neutral_mode_serves_in_arrival_order():
    """Neutral = one mixed queue: requests drain in submission order."""
    order = drain_order(SchedulingMode.NEUTRAL)
    # The batch submits 4 conventional then 4 destage requests, so FIFO
    # arrival order serves all conventional work first.
    assert order == ["conv"] * 4 + ["dest"] * 4


def test_destage_priority_front_loads_destage():
    order = drain_order(SchedulingMode.DESTAGE_PRIORITY)
    assert order[:4] == ["dest"] * 4


def test_conventional_priority_front_loads_conventional():
    order = drain_order(SchedulingMode.CONVENTIONAL_PRIORITY)
    assert order[:4] == ["conv"] * 4


def test_low_priority_rides_the_gaps():
    """With priority on, the idle pool still gets served when the
    high-priority pool is empty — opportunistic, not starving."""
    engine, scheduler = make_scheduler(SchedulingMode.CONVENTIONAL_PRIORITY)
    done = []
    event = scheduler.submit(Source.DESTAGE, 0, "lonely-destage", 4096)
    event.then(lambda _ev: done.append(engine.now))
    engine.run(until=1_000_000.0)
    assert done  # served despite being low priority


def test_mode_switch_at_runtime():
    engine, scheduler = make_scheduler(SchedulingMode.NEUTRAL)
    scheduler.mode = SchedulingMode.DESTAGE_PRIORITY
    order = []
    for event in submit_batch(scheduler, Source.CONVENTIONAL, 2, 0):
        event.then(lambda _ev: order.append("conv"))
    for event in submit_batch(scheduler, Source.DESTAGE, 2, 100):
        event.then(lambda _ev: order.append("dest"))
    engine.run(until=1_000_000.0)
    assert order[:2] == ["dest", "dest"]


def test_counters_track_bytes_per_source():
    engine, scheduler = make_scheduler(SchedulingMode.NEUTRAL)
    submit_batch(scheduler, Source.CONVENTIONAL, 3, 0)
    submit_batch(scheduler, Source.DESTAGE, 2, 100)
    engine.run(until=1_000_000.0)
    assert scheduler.dispatched[Source.CONVENTIONAL] == 3
    assert scheduler.dispatched[Source.DESTAGE] == 2
    assert scheduler.bytes_written[Source.CONVENTIONAL] == 3 * 4096
    assert scheduler.bytes_written[Source.DESTAGE] == 2 * 4096


def test_double_start_rejected():
    engine, scheduler = make_scheduler(SchedulingMode.NEUTRAL)
    with pytest.raises(RuntimeError):
        scheduler.start()


def test_one_request_wakes_one_idle_worker(monkeypatch):
    """An enqueue onto an idle 64-worker scheduler runs one dispatch pass
    that takes the request and one that finds the pools empty, which
    sends the other sleepers straight back to sleep: no pass per
    sleeper, as a herd of worker processes woken by one event made."""
    engine, scheduler = make_scheduler(SchedulingMode.NEUTRAL,
                                       channels=8, ways=8)
    engine.run()  # every worker starts and goes idle
    assert scheduler.parallelism == 64
    passes = []
    pick = WriteScheduler._pick_source

    def counting_pick(self):
        passes.append(pick(self))
        return passes[-1]

    monkeypatch.setattr(WriteScheduler, "_pick_source", counting_pick)
    done = scheduler.submit(Source.DESTAGE, 0, "page", 4096)
    engine.run(until=engine.now)  # the wake itself, not the program
    assert passes == [Source.DESTAGE, None]
    engine.run()
    assert done.triggered and scheduler.dispatched[Source.DESTAGE] == 1


def test_restart_retires_the_old_workers():
    """A stop + start leaves ``parallelism`` workers, not more: after
    three halt+restart cycles at one instant, a queue deeper than
    channels x ways never has more FTL writes in flight than that."""
    engine, scheduler = make_scheduler(SchedulingMode.NEUTRAL,
                                       channels=2, ways=2)
    engine.run()  # every worker starts and goes idle
    for _ in range(3):
        scheduler.stop()
        scheduler.start()
    in_flight = []
    peak = []
    write = scheduler.ftl.write

    def counting_write(*args, **kwargs):
        written = write(*args, **kwargs)
        in_flight.append(written)
        peak.append(sum(1 for event in in_flight if not event.triggered))
        return written

    scheduler.ftl.write = counting_write
    done = submit_batch(scheduler, Source.CONVENTIONAL,
                        4 * scheduler.parallelism, 0)
    engine.run()
    assert all(event.triggered for event in done)
    assert max(peak) == scheduler.parallelism == 4
