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

    def try_put(self, amount):
        """Add ``amount`` now, without an event, if ``put`` would grant it
        at once (it fits, nobody queued ahead); returns whether it did.

        Queued gets the new level covers are granted in the same order
        ``put`` would grant them.  For returning space that was taken,
        where an event nobody waits on would only cost a queue entry.
        """
        if amount < 0:
            raise SimulationError("cannot put a negative amount")
        if self._putters or self.level + amount > self.capacity:
            return False
        self.level += amount
        if self._getters:
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
    value ``size``; ``transfer_train(payloads, overhead)`` queues several
    back to back and returns only the last one's event.
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

    def transfer(self, size):
        """Schedule a ``size``-byte transfer; returns its completion event."""
        if size < 0:
            raise SimulationError("cannot transfer a negative size")
        start = max(self.engine.now, self._busy_until)
        duration = size / self.bandwidth
        self._busy_until = start + duration
        self.bytes_transferred += size
        self.busy_time += duration
        done_at = self._busy_until + self.latency
        return self.engine.timeout(done_at - self.engine.now, value=size)

    def transfer_train(self, payloads, overhead=0):
        """Schedule back-to-back transfers of ``payload + overhead`` bytes
        each; returns the last one's event.

        The pipe's state moves exactly as a loop of :meth:`transfer` would
        move it, float step for float step, and the returned event fires
        at the instant that loop's last event would, with the last size
        as its value.  Only that event is armed: a burst whose earlier
        completions nobody waits on costs one timer, not one per
        transfer.  ``payloads`` must not be empty, and neither a payload
        nor ``overhead`` may be negative.
        """
        if not payloads:
            raise SimulationError("a transfer train needs at least one size")
        if min(payloads) < 0 or overhead < 0:
            raise SimulationError("cannot transfer a negative size")
        now = self.engine.now
        bandwidth = self.bandwidth
        busy_until = self._busy_until
        for payload in payloads:
            size = payload + overhead
            duration = size / bandwidth
            busy_until = max(now, busy_until) + duration
            self.bytes_transferred += size
            self.busy_time += duration
        self._busy_until = busy_until
        done_at = busy_until + self.latency
        return self.engine.timeout(done_at - now, value=size)

    def utilization(self, elapsed_ns):
        """Fraction of ``elapsed_ns`` the pipe spent transferring bytes."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed_ns)
