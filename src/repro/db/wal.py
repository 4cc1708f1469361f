"""The log manager: group commit with pipelined flushes.

Committing transactions append their records here and wait.  A dispatcher
carves the pending records into *batches* — one group commit each — and
hands them to up to ``max_inflight_flushes`` concurrent flush workers.
That mirrors ERMIA's logging system, which pins one log writer per core:
with eight workers, eight 16 KB flushes can be in flight against the
device at once, and the device's write latency bounds throughput at
roughly ``inflight x batch / latency`` — the ~200 ktxn/s ceiling the
paper observes on the conventional NVMe side.

Durability follows the WAL prefix rule: a transaction is releasable only
when its batch *and every earlier batch* has reached storage, so
out-of-order flush completions never expose a durability hole.

Group-commit discipline (the paper's setup): a batch closes when
``group_commit_bytes`` (16 KB there) of records accumulate — or when
``group_commit_timeout_ns`` expires with committers waiting, so a lone
transaction is not stranded.  With more workers the byte threshold fills
faster, which is why transaction latency *drops* as workers are added
(Fig. 9's latency plot).

Back-pressure: ``pending_bytes`` beyond ``pending_cap_bytes`` means the
flush pipeline has fallen behind; committers should ``wait_for_room()``
before generating more work (the engine's async workers do).
"""

from repro.sim.resources import Resource
from repro.sim.units import KIB


class LogBatch:
    """Records flushed together; the unit the storage layer carries.

    The payload object handed to ``x_pwrite`` is the batch itself, so the
    destaged stream lets recovery recover record boundaries (byte-accurate
    prefixes of a batch yield the records fully covered).
    """

    __slots__ = ("records", "nbytes", "first_lsn", "last_lsn", "sequence")

    def __init__(self, records, sequence=0):
        self.records = records
        self.nbytes = sum(record.nbytes for record in records)
        self.first_lsn = records[0].lsn
        self.last_lsn = records[-1].lsn
        self.sequence = sequence

    def records_covered_by(self, nbytes):
        """The prefix of records whose bytes fit entirely in ``nbytes``."""
        covered = []
        total = 0
        for record in self.records:
            total += record.nbytes
            if total > nbytes:
                break
            covered.append(record)
        return covered


class LogManager:
    """Group-commit WAL writer over any x_pwrite/x_fsync log file."""

    def __init__(self, engine, log_file, group_commit_bytes=16 * KIB,
                 group_commit_timeout_ns=100_000.0, max_inflight_flushes=1,
                 pending_cap_bytes=None):
        if group_commit_bytes <= 0:
            raise ValueError("group commit threshold must be positive")
        if max_inflight_flushes < 1:
            raise ValueError("need at least one flush slot")
        self.engine = engine
        self.log_file = log_file
        # Pre-resolved tracing guard: one flush span per group commit,
        # zero attribute chains when tracing is off.
        self._tracer = engine.tracer
        self._tracing = engine.tracer.enabled
        self.group_commit_bytes = group_commit_bytes
        self.group_commit_timeout_ns = group_commit_timeout_ns
        self.max_inflight_flushes = max_inflight_flushes
        self.pending_cap_bytes = (
            pending_cap_bytes
            if pending_cap_bytes is not None
            else 4 * group_commit_bytes * max_inflight_flushes
        )
        self._pending = []  # records waiting to be batched
        self._pending_bytes = 0
        self._waiters = []  # (commit_lsn, event)
        self._room_waiters = []
        self.durable_lsn = 0
        self.flushes = 0
        self.bytes_flushed = 0
        self.batches = []  # every flushed batch, oldest first
        # Pipelined flush state.
        self._flush_slots = Resource(engine, capacity=max_inflight_flushes)
        self._next_batch_sequence = 0
        self._completed_sequences = set()
        self._durable_sequence = 0  # batches below this are durable
        self._batch_last_lsn = {}  # sequence -> last lsn of that batch
        self._dispatcher_running = False
        self._kick = engine.event()
        self._running = True

    # -- the commit-side interface ----------------------------------------------------

    @property
    def pending_bytes(self):
        return self._pending_bytes

    @property
    def pending_records(self):
        """Records queued but not yet batched into a flush."""
        return len(self._pending)

    @property
    def waiter_count(self):
        """Commits waiting for their records to become durable."""
        return len(self._waiters)

    @property
    def waiting_lsns(self):
        """Commit LSNs of the waiting commits, in arrival order."""
        return tuple(lsn for lsn, _ in self._waiters)

    @property
    def has_room(self):
        return self._pending_bytes < self.pending_cap_bytes

    def wait_for_room(self):
        """Event firing once the pending backlog is under the cap."""
        event = self.engine.event()
        if self.has_room:
            event.succeed()
        else:
            self._room_waiters.append(event)
        return event

    def append_and_wait(self, records):
        """Queue ``records`` and return an event firing when durable."""
        if not records:
            raise ValueError("a commit needs at least one record")
        self._pending.extend(records)
        self._pending_bytes += sum(record.nbytes for record in records)
        done = self.engine.event()
        self._waiters.append((records[-1].lsn, done))
        if not self._dispatcher_running:
            self._dispatcher_running = True
            self.engine.process(self._dispatcher(), name="wal-dispatcher")
        else:
            # Ring the dispatcher on every append: it decides whether the
            # group is full or the timer should arm.
            self._wake()
        return done

    def _wake(self):
        if not self._kick.triggered:
            self._kick.succeed()

    def set_group_commit(self, group_commit_bytes=None,
                         group_commit_timeout_ns=None):
        """Retune the group-commit thresholds at runtime.

        The dispatcher re-reads both knobs on every carve and every timer
        arm, so new values take effect from the next batch boundary
        without touching records already pending, batches already in
        flight, or the durable prefix — this is the SLO controller's
        WAL actuator, and it is safe by construction: nothing here can
        skip or reorder acked durability work.  Returns
        ``((old_bytes, new_bytes), (old_timeout, new_timeout))``.
        """
        old_bytes = self.group_commit_bytes
        old_timeout = self.group_commit_timeout_ns
        if group_commit_bytes is not None:
            if group_commit_bytes <= 0:
                raise ValueError("group commit threshold must be positive")
            self.group_commit_bytes = int(group_commit_bytes)
        if group_commit_timeout_ns is not None:
            if group_commit_timeout_ns <= 0:
                raise ValueError("group commit timeout must be positive")
            self.group_commit_timeout_ns = float(group_commit_timeout_ns)
        # A waiting dispatcher may be holding out for the *old* byte
        # threshold; ring it so a lowered threshold applies promptly.
        self._wake()
        return ((old_bytes, self.group_commit_bytes),
                (old_timeout, self.group_commit_timeout_ns))

    # -- the dispatcher ------------------------------------------------------------------

    def _dispatcher(self):
        while self._running and (self._pending or self._waiters):
            if not self._pending:
                yield self._next_kick()
                continue
            if self._pending_bytes < self.group_commit_bytes:
                # Wait for the group to fill or the timer to expire; the
                # losing timer is cancelled so it leaves the heap lazily
                # instead of firing into a dead callback.
                expiry = self.engine.timeout(self.group_commit_timeout_ns)
                yield self.engine.any_of([self._next_kick(), expiry])
                expiry.cancel()
                if not self._pending:
                    continue
            batch_records, remainder = self._carve_group()
            batch = LogBatch(batch_records, self._next_batch_sequence)
            self._next_batch_sequence += 1
            self._batch_last_lsn[batch.sequence] = batch.last_lsn
            self._pending = remainder
            self._pending_bytes -= batch.nbytes
            self._release_room_waiters()
            # Block here while all flush slots are busy: this is the
            # back-pressure point that bounds throughput by the device.
            yield self._flush_slots.request()
            self.engine.process(self._flush(batch), name="wal-flush")
        self._dispatcher_running = False

    def _next_kick(self):
        if self._kick.triggered:
            self._kick = self.engine.event()
        return self._kick

    def _carve_group(self):
        """Split pending records into one group-sized batch and the rest.

        A batch takes whole records up to ``group_commit_bytes`` (always
        at least one, so oversized records still flush); the remainder
        feeds the next batch — which can dispatch to another flush slot
        immediately, giving the pipeline its depth.
        """
        taken = []
        taken_bytes = 0
        index = 0
        for record in self._pending:
            if taken and taken_bytes + record.nbytes > self.group_commit_bytes:
                break
            taken.append(record)
            taken_bytes += record.nbytes
            index += 1
            if taken_bytes >= self.group_commit_bytes:
                break
        return taken, self._pending[index:]

    def _flush(self, batch):
        tracer = self._tracer
        token = None
        if self._tracing:
            token = tracer.begin("wal", "flush", sequence=batch.sequence,
                                 nbytes=batch.nbytes,
                                 records=len(batch.records))
        try:
            yield self.log_file.x_pwrite(batch, batch.nbytes)
            yield self.log_file.x_fsync()
        finally:
            self._flush_slots.release()
            if token is not None:
                tracer.end(token)
        self.flushes += 1
        self.bytes_flushed += batch.nbytes
        self.batches.append(batch)
        self._completed_sequences.add(batch.sequence)
        self._advance_durable()

    def _advance_durable(self):
        """Prefix rule: durability only advances over contiguous batches."""
        moved = False
        while self._durable_sequence in self._completed_sequences:
            self._completed_sequences.discard(self._durable_sequence)
            self.durable_lsn = max(
                self.durable_lsn,
                self._batch_last_lsn.pop(self._durable_sequence),
            )
            self._durable_sequence += 1
            moved = True
        if moved:
            self._release_waiters()

    def _release_waiters(self):
        still_waiting = []
        for commit_lsn, event in self._waiters:
            if commit_lsn <= self.durable_lsn:
                event.succeed(commit_lsn)
            else:
                still_waiting.append((commit_lsn, event))
        self._waiters = still_waiting

    def _release_room_waiters(self):
        if self.has_room and self._room_waiters:
            waiters, self._room_waiters = self._room_waiters, []
            for event in waiters:
                event.succeed()

    def stop(self):
        self._running = False
        self._wake()
