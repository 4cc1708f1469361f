"""Unit tests for the DES engine: clock, events, processes, combinators."""

import pytest

from repro.sim import Engine, SimulationError


def test_clock_starts_at_zero():
    engine = Engine()
    assert engine.now == 0.0


def test_timeout_advances_clock():
    engine = Engine()
    fired = []

    def proc():
        yield engine.timeout(250.0)
        fired.append(engine.now)

    engine.process(proc())
    engine.run()
    assert fired == [250.0]


def test_run_until_is_inclusive():
    engine = Engine()
    fired = []

    def proc():
        yield engine.timeout(100.0)
        fired.append("at-100")
        yield engine.timeout(1.0)
        fired.append("at-101")

    engine.process(proc())
    engine.run(until=100.0)
    assert fired == ["at-100"]
    assert engine.now == 100.0


def test_run_until_with_empty_heap_advances_clock():
    engine = Engine()
    engine.run(until=5000.0)
    assert engine.now == 5000.0


def test_timeout_value_passed_to_process():
    engine = Engine()
    seen = []

    def proc():
        value = yield engine.timeout(1.0, value="payload")
        seen.append(value)

    engine.process(proc())
    engine.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.timeout(-1.0)


def test_same_time_events_fire_fifo():
    engine = Engine()
    order = []

    def proc(tag):
        yield engine.timeout(10.0)
        order.append(tag)

    for tag in range(5):
        engine.process(proc(tag))
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_wakes_waiter():
    engine = Engine()
    gate = engine.event()
    log = []

    def waiter():
        value = yield gate
        log.append((engine.now, value))

    def opener():
        yield engine.timeout(42.0)
        gate.succeed("opened")

    engine.process(waiter())
    engine.process(opener())
    engine.run()
    assert log == [(42.0, "opened")]


def test_event_cannot_trigger_twice():
    engine = Engine()
    gate = engine.event()
    gate.succeed()
    with pytest.raises(SimulationError):
        gate.succeed()


def test_event_fail_raises_in_waiter():
    engine = Engine()
    gate = engine.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as error:
            caught.append(str(error))

    def failer():
        yield engine.timeout(1.0)
        gate.fail(RuntimeError("device error"))

    engine.process(waiter())
    engine.process(failer())
    engine.run()
    assert caught == ["device error"]


def test_process_return_value_is_event_value():
    engine = Engine()
    results = []

    def child():
        yield engine.timeout(5.0)
        return "done-at-5"

    def parent():
        value = yield engine.process(child())
        results.append((engine.now, value))

    engine.process(parent())
    engine.run()
    assert results == [(5.0, "done-at-5")]


def test_yielding_non_event_is_an_error():
    engine = Engine()

    def bad():
        yield 123

    engine.process(bad())
    with pytest.raises(SimulationError):
        engine.run()


def test_all_of_waits_for_every_event():
    engine = Engine()
    seen = []

    def proc():
        values = yield engine.all_of(
            [engine.timeout(30.0, "a"), engine.timeout(10.0, "b")]
        )
        seen.append((engine.now, values))

    engine.process(proc())
    engine.run()
    assert seen == [(30.0, ["a", "b"])]


def test_all_of_empty_fires_immediately():
    engine = Engine()
    seen = []

    def proc():
        values = yield engine.all_of([])
        seen.append((engine.now, values))

    engine.process(proc())
    engine.run()
    assert seen == [(0.0, [])]


def test_any_of_fires_on_first():
    engine = Engine()
    seen = []

    def proc():
        first = yield engine.any_of(
            [engine.timeout(30.0, "slow"), engine.timeout(10.0, "fast")]
        )
        seen.append((engine.now, first.value))

    engine.process(proc())
    engine.run()
    assert seen == [(10.0, "fast")]


def test_then_on_already_triggered_event_still_runs():
    engine = Engine()
    ran = []
    gate = engine.event()
    gate.succeed("v")
    gate.then(lambda event: ran.append(event.value))
    engine.run()
    assert ran == ["v"]


def test_peek_reports_next_event_time():
    engine = Engine()
    engine.timeout(77.0)
    assert engine.peek() == 77.0


def test_deterministic_interleaving():
    """Two identical runs produce identical traces."""

    def trace_run():
        engine = Engine()
        trace = []

        def worker(tag, period):
            for _ in range(5):
                yield engine.timeout(period)
                trace.append((engine.now, tag))

        engine.process(worker("a", 3.0))
        engine.process(worker("b", 5.0))
        engine.run()
        return trace

    assert trace_run() == trace_run()


def test_only_the_run_loop_writes_the_clock():
    """``Engine.now`` is a plain slot: no module but the engine assigns
    an attribute named ``now``."""
    import ast
    import pathlib

    import repro
    from repro.sim import engine as engine_module

    root = pathlib.Path(repro.__file__).parent
    writers = []
    for path in sorted(root.rglob("*.py")):
        if path == pathlib.Path(engine_module.__file__):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr == "now":
                        writers.append(f"{path.relative_to(root)}:"
                                       f"{node.lineno}")
    assert writers == []
