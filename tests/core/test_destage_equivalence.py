"""The change-driven destage loop issues what the generator loop issued.

``DestageModule`` evaluates on plain callbacks and keeps one deadline
timer per partial page.  ``GeneratorDestage`` keeps the loop it replaced
as a test-only reference: a process that re-arms the deadline and races
it against the kick on every credit advance (with the same generation
token, so a stop and restart compare like for like).  Both drive bare
stand-ins for the CMB ring, its backing memory and the write scheduler
under hypothesis-generated lanes of concurrent writers: random chunk sizes
and gaps, same-instant bursts separated by single immediate-queue hops,
deadlines landing on other timers' instants, a saturated
``max_outstanding_pages``, and stop/start.  One log per run records every
write, page issue (the instant it takes the data from the ring, then its
stream offset, data and filler bytes and LBA) and program completion
(time, durable offset) in occurrence order; the two logs must match
entry for entry.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.destage import MIN_WAIT_NS, DestageModule
from repro.core.ring import SequencedRing
from repro.sim import Engine, Process, Timeout
from repro.sim.engine import AnyOf

PAGE = 1024
DELAYS = (0.0, 0.1, 0.3, 1.0, 2.0, 7.0, 33.3, 50.0, 100.0, 250.0, 400.0,
          1000.0)


class GeneratorDestage(DestageModule):
    """Reference: the generator loop that woke on every credit advance."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._kick = self.engine.event()

    def start(self):
        if self._running:
            raise RuntimeError("destage module already started")
        self._running = True
        self._generation += 1
        self.engine.process(self._loop(self._generation))

    def stop(self):
        self._running = False
        self._wake()

    def _wake(self, _value=None):
        if not self._kick.triggered:
            self._kick.succeed()

    def _next_kick(self):
        if self._kick.triggered:
            self._kick = self.engine.event()
        return self._kick

    def _loop(self, generation):
        waiting_since = None
        while self._running and self._generation == generation:
            if self._outstanding >= self.max_outstanding_pages:
                yield self._next_kick()
                continue
            available = self.cmb.ring.consumable_bytes()
            if available >= self.page_bytes:
                yield self.engine.process(self._issue_page())
                waiting_since = None
                continue
            if available > 0:
                if waiting_since is None:
                    waiting_since = self.engine.now
                deadline = waiting_since + self.latency_threshold_ns
                if self.engine.now >= deadline - MIN_WAIT_NS:
                    yield self.engine.process(self._issue_page())
                    waiting_since = None
                    continue
                remaining = max(deadline - self.engine.now, MIN_WAIT_NS)
                kick = self._next_kick()
                expiry = self.engine.timeout(remaining)
                yield self.engine.any_of([kick, expiry])
                expiry.cancel()
                continue
            waiting_since = None
            yield self._next_kick()


class Backing:
    def __init__(self, engine, read_ns):
        self.engine = engine
        self.read_ns = read_ns

    def read(self, _nbytes):
        return self.engine.timeout(self.read_ns)


class Ring(SequencedRing):
    """Logs each page's consumption: the instant its issue takes the data."""

    def __init__(self, engine, log):
        super().__init__(1 << 30)
        self.engine = engine
        self.log = log

    def consume(self, max_bytes):
        chunks = super().consume(max_bytes)
        self.log.append(("consume", self.engine.now, len(chunks)))
        return chunks


class Cmb:
    """The ring, its backing memory and the credit watchers, nothing more."""

    def __init__(self, engine, read_ns, log):
        self.ring = Ring(engine, log)
        self.backing = Backing(engine, read_ns)
        self._watchers = []

    def watch_credit(self, callback):
        self._watchers.append(callback)

    def write(self, offset, nbytes):
        advanced = self.ring.write(offset, nbytes, f"c@{offset}")
        if advanced:
            for watcher in self._watchers:
                watcher(self.ring.frontier)

    def ring_space_freed(self):
        pass


class Scheduler:
    """Completes each page program after the next latency in a cycle."""

    def __init__(self, engine, program_ns, log):
        self.engine = engine
        self.program_ns = program_ns
        self.log = log
        self.issued = 0

    def enqueue(self, request):
        page = request.payload
        self.log.append(("issue", self.engine.now, page.stream_offset,
                         page.data_bytes, page.filler_bytes, request.lba))
        latency = self.program_ns[self.issued % len(self.program_ns)]
        self.issued += 1
        return self.engine.timeout(latency)


def run(module_cls, scenario):
    engine = Engine()
    log = []
    cmb = Cmb(engine, scenario["read_ns"], log)
    destage = module_cls(
        engine, cmb, Scheduler(engine, scenario["program_ns"], log),
        page_bytes=PAGE, lba_ring_blocks=5,
        latency_threshold_ns=scenario["threshold_ns"],
        max_outstanding_pages=scenario["max_outstanding"],
    )
    applied = destage._on_programmed

    def on_programmed(sequence, page):
        applied(sequence, page)
        log.append(("ack", engine.now, sequence, destage.destaged_offset))

    destage._on_programmed = on_programmed
    destage.start()
    cursor = [0]

    def lane(steps):
        yield engine.timeout(scenario["start_ns"])
        for step in steps:
            kind = step[0]
            if kind == "wait":
                yield engine.timeout(step[1])
            elif kind == "write":
                offset = cursor[0]
                cursor[0] += step[1]
                log.append(("write", engine.now, offset, step[1]))
                cmb.write(offset, step[1])
            elif destage._running:  # "stop" toggles, "restart" bounces
                log.append(("stop", engine.now))
                destage.stop()
                if kind == "restart":
                    destage.start()
            else:
                log.append(("start", engine.now))
                destage.start()

    for steps in scenario["lanes"]:
        engine.process(lane(steps))
    engine.run()
    log.append(("end", destage.tail_sequence, destage.durable_tail,
                destage.destaged_offset, destage.filler_bytes_total,
                cmb.ring.consumable_bytes()))
    return log


steps = st.lists(
    st.one_of(
        st.tuples(st.just("wait"), st.sampled_from(DELAYS)),
        st.tuples(st.just("write"),
                  st.integers(min_value=1, max_value=PAGE + PAGE // 2)),
        st.tuples(st.sampled_from(("stop", "restart"))),
    ),
    max_size=30,
)
scenarios = st.fixed_dictionaries({
    "start_ns": st.sampled_from((0.0, 1000.0, 123_456_789.1)),
    "threshold_ns": st.sampled_from((100.0, 250.0, 1000.0, 777.7)),
    "read_ns": st.sampled_from((0.0, 1.0, 50.0)),
    "program_ns": st.lists(st.sampled_from((1.0, 50.0, 400.0, 3000.0)),
                           min_size=1, max_size=4),
    "max_outstanding": st.sampled_from((1, 2, 32)),
    "lanes": st.lists(steps, min_size=1, max_size=3),
})


def write(nbytes):
    return ("write", nbytes)


def wait(delay):
    return ("wait", delay)


def scenario(lanes, threshold_ns=1000.0, read_ns=0.0, program_ns=(400.0,),
             max_outstanding=32, start_ns=0.0):
    return {"start_ns": start_ns, "threshold_ns": threshold_ns,
            "read_ns": read_ns, "program_ns": list(program_ns),
            "max_outstanding": max_outstanding, "lanes": lanes}


@given(scenarios)
# A second chunk one hop after the first: the page fills between the
# kick and the evaluation it leads to.
@example(scenario([[write(600), wait(0.0), write(600)],
                   [wait(100.0), write(100)]]))
# No-op kicks, then a page filled well before the deadline.
@example(scenario([[write(100), wait(50.0), write(100), wait(50.0),
                    write(900)]]))
# The deadline expires with a kick on the way, whose re-armed timer
# lands one ulp before the deadline (the float sum rounds differently).
@example(scenario([[wait(0.1), write(100), wait(0.1), wait(50.0),
                    write(10)]], threshold_ns=250.0))
# Another lane's timer armed after the deadline, before the last kick,
# for the deadline's instant: it fires first, and the write it makes two
# hops later joins the padded page.
@example(scenario([[write(100), wait(400.0), write(100)],
                   [wait(0.0), wait(1000.0), write(100), wait(0.0),
                    wait(0.0), write(100)]]))
# A full page issued shortly before the deadline of the partial page it
# completes: the deadline must not fire into the issue's backing read.
@example(scenario([[write(100), wait(50.0), wait(7.0), wait(2.0), wait(1.0),
                    write(1000), wait(7.0), write(10)]],
                  threshold_ns=100.0, read_ns=50.0))
# A stop one hop after the kick that completes a page: the evaluation the
# kick leads to comes after the stop.
@example(scenario([[write(624), wait(1.0), write(404), wait(0.0),
                    ("stop",)]], threshold_ns=100.0, max_outstanding=1))
# A saturated outstanding cap, released by slow programs.
@example(scenario([[write(1500), write(1500), write(1500), wait(7.0),
                    write(200)]], max_outstanding=1,
                  program_ns=(3000.0, 50.0), read_ns=50.0))
# Stop with a partial page waiting, restart later and at one instant.
@example(scenario([[write(100), wait(50.0), ("stop",), wait(2000.0),
                    write(100), ("stop",), wait(100.0), ("restart",),
                    write(1000)]], read_ns=50.0))
# Stop while a page issue is in flight, then a write the stopped module
# must leave alone until the restart.
@example(scenario([[write(1100), ("stop",), wait(250.0), write(100),
                    wait(2000.0), ("stop",), write(10)]], read_ns=50.0))
# A second chunk at the kick's own instant, queued behind the kick's
# first hop, fills the page before the evaluation two hops on: the
# issue and that write are logged in the order the race gave them.
@example(scenario([[write(600), wait(1.0), write(100), wait(0.0),
                    write(400)],
                   [wait(1.0), wait(0.0), wait(0.0), wait(0.0),
                    write(10)]]))
def test_change_driven_loop_matches_generator_loop(scenario):
    assert run(DestageModule, scenario) == run(GeneratorDestage, scenario)


def test_credit_short_of_a_page_costs_no_timer_and_no_resume(monkeypatch):
    engine = Engine()
    log = []
    cmb = Cmb(engine, 0.0, log)
    destage = DestageModule(engine, cmb, Scheduler(engine, [400.0], log),
                            page_bytes=PAGE, latency_threshold_ns=1e6)
    destage.start()
    # Eight 100 B credit advances from plain timer callbacks, armed now.
    for index in range(8):
        engine.timeout(100.0 * (index + 1)).then(
            lambda _event, index=index: cmb.write(100 * index, 100))
    engine.run(until=150.0)  # the first advance arms the deadline
    created = []

    def counting(name, function):
        def wrapper(*args):
            created.append(name)
            return function(*args)
        return wrapper

    monkeypatch.setattr(engine, "timeout",
                        counting("engine.timeout", engine.timeout))
    monkeypatch.setattr(Timeout, "__init__",
                        counting("Timeout", Timeout.__init__))
    monkeypatch.setattr(AnyOf, "__init__", counting("AnyOf", AnyOf.__init__))
    monkeypatch.setattr(Process, "_resume",
                        counting("resume", Process._resume))
    engine.run(until=900.0)  # seven more advances, still short of a page
    assert cmb.ring.consumable_bytes() == 800
    assert destage.tail_sequence == 0
    assert created == []
