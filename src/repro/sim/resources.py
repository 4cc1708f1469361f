"""Contention primitives: resources, stores, containers, bandwidth pipes.

These are the building blocks for modeling shared hardware: a flash die that
serves one operation at a time (:class:`Resource`), a command queue
(:class:`Store`), a byte-counting credit pool (:class:`Container`), and a
serial link or memory port with finite bandwidth (:class:`BandwidthPipe`).
"""

from collections import deque

from repro.sim.engine import Event, SimulationError


class Resource:
    """A classic counted resource with FIFO waiters.

    ``request()`` returns an event that fires when a slot is granted; the
    holder must call ``release()`` exactly once.  Typical use::

        grant = resource.request()
        yield grant
        try:
            yield engine.timeout(busy_time)
        finally:
            resource.release()
    """

    def __init__(self, engine, capacity=1):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.in_use = 0
        self._waiters = deque()

    def request(self):
        event = Event(self.engine)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self):
        if self.in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

    @property
    def queue_length(self):
        """Number of requests waiting for a slot."""
        return len(self._waiters)


class Store:
    """An unbounded-or-bounded FIFO of items with blocking put/get.

    Models command queues, mailboxes, and channels between modules.  When a
    ``capacity`` is given, ``put()`` blocks while the store is full — which
    is exactly how back-pressure propagates between pipeline stages.
    """

    def __init__(self, engine, capacity=None):
        self.engine = engine
        self.capacity = capacity
        self._items = deque()
        self._getters = deque()
        self._putters = deque()  # (event, item) pairs waiting for space

    def __len__(self):
        return len(self._items)

    def put(self, item):
        """Deposit ``item``; returns an event that fires when accepted."""
        event = Event(self.engine)
        if self._getters:
            self._getters.popleft().succeed(item)
            event.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self):
        """Take the oldest item; returns an event whose value is the item."""
        event = Event(self.engine)
        if self._items:
            event.succeed(self._items.popleft())
            if self._putters:
                put_event, item = self._putters.popleft()
                self._items.append(item)
                put_event.succeed()
        else:
            self._getters.append(event)
        return event

    def peek_all(self):
        """Snapshot of queued items (for schedulers that inspect queues)."""
        return list(self._items)


class Container:
    """A continuous level of "stuff" (bytes, credits) with blocking get/put.

    Unlike :class:`Store` this tracks an amount rather than discrete items.
    Used for credit counters and buffer occupancy.  ``get(amount)`` blocks
    until the level is at least ``amount``; ``put(amount)`` blocks while the
    container would exceed ``capacity``.
    """

    def __init__(self, engine, capacity=float("inf"), init=0):
        if init < 0 or init > capacity:
            raise SimulationError("initial level outside [0, capacity]")
        self.engine = engine
        self.capacity = capacity
        self.level = init
        self._getters = deque()  # (event, amount)
        self._putters = deque()  # (event, amount)

    def put(self, amount):
        if amount < 0:
            raise SimulationError("cannot put a negative amount")
        event = Event(self.engine)
        self._putters.append((event, amount))
        self._settle()
        return event

    def get(self, amount):
        if amount < 0:
            raise SimulationError("cannot get a negative amount")
        event = Event(self.engine)
        self._getters.append((event, amount))
        self._settle()
        return event

    def try_get(self, amount):
        """Take ``amount`` now, without an event, if ``get`` would grant it
        at once (enough level, nobody queued ahead); returns whether it did.
        """
        if amount < 0:
            raise SimulationError("cannot get a negative amount")
        if self._getters or self.level < amount:
            return False
        self.level -= amount
        if self._putters:
            self._settle()
        return True

    def _settle(self):
        """Grant queued puts/gets in FIFO order while they fit."""
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                event, amount = self._putters[0]
                if self.level + amount <= self.capacity:
                    self._putters.popleft()
                    self.level += amount
                    event.succeed()
                    progressed = True
            if self._getters:
                event, amount = self._getters[0]
                if self.level >= amount:
                    self._getters.popleft()
                    self.level -= amount
                    event.succeed(amount)
                    progressed = True


class BandwidthPipe:
    """A serial transfer medium with fixed bandwidth and per-transfer latency.

    Transfers are serviced strictly in FIFO order; each occupies the pipe for
    ``size / bandwidth`` ns and completes ``latency`` ns after its last byte
    leaves.  This models a PCIe link direction, a memory port, or a flash
    channel bus — anything where concurrent transfers serialize.

    ``transfer(size)`` returns an event that fires at completion time with
    value ``size``.
    """

    def __init__(self, engine, bandwidth, latency=0.0, name=None):
        if bandwidth <= 0:
            raise SimulationError("bandwidth must be positive")
        self.engine = engine
        self.bandwidth = float(bandwidth)  # bytes per ns
        self.latency = float(latency)
        self.name = name
        self._busy_until = 0.0
        self.bytes_transferred = 0
        self.busy_time = 0.0

    def transfer(self, size, priority_delay=0.0):
        """Schedule a ``size``-byte transfer; returns its completion event.

        ``priority_delay`` adds an artificial wait before the transfer starts
        (used by schedulers to model deferral without re-queueing).
        """
        if size < 0:
            raise SimulationError("cannot transfer a negative size")
        start = max(self.engine.now + priority_delay, self._busy_until)
        duration = size / self.bandwidth
        self._busy_until = start + duration
        self.bytes_transferred += size
        self.busy_time += duration
        done_at = self._busy_until + self.latency
        return self.engine.timeout(done_at - self.engine.now, value=size)

    def time_to_transfer(self, size):
        """Pure service time for ``size`` bytes, ignoring queueing."""
        return size / self.bandwidth + self.latency

    @property
    def backlog_ns(self):
        """How far in the future the pipe is already committed."""
        return max(0.0, self._busy_until - self.engine.now)

    def utilization(self, elapsed_ns):
        """Fraction of ``elapsed_ns`` the pipe spent transferring bytes."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed_ns)
