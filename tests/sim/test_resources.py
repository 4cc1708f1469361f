"""Unit tests for Resource, Store, Container, and BandwidthPipe."""

import pytest

from repro.sim import BandwidthPipe, Container, Engine, Resource, Store
from repro.sim.engine import SimulationError


class TestResource:
    def test_grants_up_to_capacity_immediately(self):
        engine = Engine()
        resource = Resource(engine, capacity=2)
        assert resource.request().triggered
        assert resource.request().triggered
        third = resource.request()
        assert not third.triggered
        assert resource.queue_length == 1

    def test_release_wakes_fifo_waiter(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        order = []

        def holder():
            yield resource.request()
            yield engine.timeout(10.0)
            resource.release()

        def waiter(tag):
            yield resource.request()
            order.append((engine.now, tag))
            resource.release()

        engine.process(holder())
        engine.process(waiter("first"))
        engine.process(waiter("second"))
        engine.run()
        assert order == [(10.0, "first"), (10.0, "second")]

    def test_release_without_request_is_an_error(self):
        engine = Engine()
        resource = Resource(engine)
        with pytest.raises(SimulationError):
            resource.release()

    def test_zero_capacity_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            Resource(engine, capacity=0)


class TestStore:
    def test_put_then_get_fifo(self):
        engine = Engine()
        store = Store(engine)
        received = []

        def producer():
            for item in ("a", "b", "c"):
                yield store.put(item)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        engine.process(producer())
        engine.process(consumer())
        engine.run()
        assert received == ["a", "b", "c"]

    def test_get_blocks_until_put(self):
        engine = Engine()
        store = Store(engine)
        received = []

        def consumer():
            item = yield store.get()
            received.append((engine.now, item))

        def producer():
            yield engine.timeout(99.0)
            yield store.put("late")

        engine.process(consumer())
        engine.process(producer())
        engine.run()
        assert received == [(99.0, "late")]

    def test_bounded_put_blocks_when_full(self):
        engine = Engine()
        store = Store(engine, capacity=1)
        timeline = []

        def producer():
            yield store.put(1)
            timeline.append(("put-1", engine.now))
            yield store.put(2)
            timeline.append(("put-2", engine.now))

        def consumer():
            yield engine.timeout(50.0)
            item = yield store.get()
            timeline.append((f"got-{item}", engine.now))

        engine.process(producer())
        engine.process(consumer())
        engine.run()
        assert ("put-1", 0.0) in timeline
        assert ("put-2", 50.0) in timeline


class TestContainer:
    def test_get_blocks_until_level_sufficient(self):
        engine = Engine()
        container = Container(engine)
        granted = []

        def getter():
            yield container.get(100)
            granted.append(engine.now)

        def putter():
            yield engine.timeout(10.0)
            container.put(60)
            yield engine.timeout(10.0)
            container.put(60)

        engine.process(getter())
        engine.process(putter())
        engine.run()
        assert granted == [20.0]
        assert container.level == 20

    def test_put_blocks_at_capacity(self):
        engine = Engine()
        container = Container(engine, capacity=100, init=100)
        done = []

        def putter():
            yield container.put(50)
            done.append(engine.now)

        def drainer():
            yield engine.timeout(30.0)
            yield container.get(50)

        engine.process(putter())
        engine.process(drainer())
        engine.run()
        assert done == [30.0]

    def test_negative_amounts_rejected(self):
        engine = Engine()
        container = Container(engine)
        with pytest.raises(SimulationError):
            container.put(-1)
        with pytest.raises(SimulationError):
            container.get(-1)

    def test_fifo_fairness_of_getters(self):
        engine = Engine()
        container = Container(engine)
        order = []

        def getter(tag, amount):
            yield container.get(amount)
            order.append(tag)

        engine.process(getter("big-first", 100))
        engine.process(getter("small-second", 1))
        container.put(1)  # not enough for the first getter
        engine.run()
        # Strict FIFO: the small getter must wait behind the big one.
        assert order == []
        container.put(100)
        engine.run()
        assert order == ["big-first", "small-second"]


    def test_try_put_grants_waiting_getters_without_an_event(self):
        engine = Engine()
        container = Container(engine, capacity=100, init=0)
        granted = []
        container.get(30).then(lambda _event: granted.append(engine.now))
        assert container.try_put(50) is True
        engine.run()
        assert granted == [0.0]
        assert container.level == 20

    def test_try_put_refuses_past_capacity_or_behind_a_putter(self):
        engine = Engine()
        container = Container(engine, capacity=100, init=90)
        assert container.try_put(20) is False
        assert container.level == 90
        container.put(20)  # waits for space
        container.try_get(50)
        assert container.level == 60  # the queued put went in first
        assert container.try_put(10) is True
        container = Container(engine, capacity=100, init=90)
        container.put(20)
        assert container.try_put(5) is False  # a put is queued ahead
        with pytest.raises(SimulationError):
            container.try_put(-1)

class TestBandwidthPipe:
    def test_transfer_time_is_size_over_bandwidth(self):
        engine = Engine()
        pipe = BandwidthPipe(engine, bandwidth=2.0)  # 2 B/ns
        done = []

        def proc():
            yield pipe.transfer(1000)
            done.append(engine.now)

        engine.process(proc())
        engine.run()
        assert done == [500.0]

    def test_latency_added_after_last_byte(self):
        engine = Engine()
        pipe = BandwidthPipe(engine, bandwidth=1.0, latency=100.0)
        done = []

        def proc():
            yield pipe.transfer(50)
            done.append(engine.now)

        engine.process(proc())
        engine.run()
        assert done == [150.0]

    def test_transfers_serialize(self):
        engine = Engine()
        pipe = BandwidthPipe(engine, bandwidth=1.0)
        done = []

        def proc(tag, size):
            yield pipe.transfer(size)
            done.append((tag, engine.now))

        engine.process(proc("a", 100))
        engine.process(proc("b", 100))
        engine.run()
        assert done == [("a", 100.0), ("b", 200.0)]

    def test_pipelining_overlaps_latency(self):
        """Latency applies per transfer but does not occupy the pipe."""
        engine = Engine()
        pipe = BandwidthPipe(engine, bandwidth=1.0, latency=1000.0)
        done = []

        def proc(tag):
            yield pipe.transfer(10)
            done.append((tag, engine.now))

        engine.process(proc("a"))
        engine.process(proc("b"))
        engine.run()
        assert done == [("a", 1010.0), ("b", 1020.0)]

    def test_utilization_accounting(self):
        engine = Engine()
        pipe = BandwidthPipe(engine, bandwidth=1.0)

        def proc():
            yield pipe.transfer(500)
            yield engine.timeout(500.0)

        engine.process(proc())
        engine.run()
        assert pipe.bytes_transferred == 500
        assert pipe.utilization(engine.now) == pytest.approx(0.5)

    def test_zero_bandwidth_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            BandwidthPipe(engine, bandwidth=0.0)

    def test_train_rejects_empty_and_negative_sizes(self):
        engine = Engine()
        pipe = BandwidthPipe(engine, bandwidth=1.0)
        with pytest.raises(SimulationError):
            pipe.transfer_train([])
        with pytest.raises(SimulationError):
            pipe.transfer_train([10, -1])
        with pytest.raises(SimulationError):
            pipe.transfer_train([-1], overhead=24)
        with pytest.raises(SimulationError):
            pipe.transfer_train([10], overhead=-1)
        assert pipe.bytes_transferred == 0

    def test_train_completes_with_its_last_transfer(self):
        engine = Engine()
        pipe = BandwidthPipe(engine, bandwidth=1.0, latency=100.0)
        done = []

        def proc():
            size = yield pipe.transfer_train([10, 20, 30])
            done.append((size, engine.now))

        engine.process(proc())
        engine.run()
        assert done == [(30, 160.0)]
        assert pipe.busy_time == 60.0
