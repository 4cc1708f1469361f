"""The sequenced ring buffer: ordered byte stream over a bounded window.

Both sides of a Villars device are rings over the same logical stream
(Section 3.1, Fig. 3): the fast side's PM ring takes writes at the tail,
the conventional side's (much larger) LBA ring receives the destaged data.

The ring works in *absolute stream offsets* — every byte ever appended has
a unique, monotonically increasing position.  Three pointers partition the
stream:

    released <= frontier <= highest pending write end
        |           |
        |           +-- contiguous frontier: every byte below is present
        +-------------- bytes below are destaged/freed (ring space reclaimed)

The paper's two subtleties both live here:

* **mostly sequential arrival** — writes may land out of order within the
  window (Section 4.1); out-of-order chunks park in ``pending`` until the
  hole before them fills;
* **the gap rule** — the credit counter only advances when contiguous
  chunks form; destaging stops at the first gap (Section 4.1, "Crash
  Consistency Behavior").  ``frontier`` *is* that rule.
"""

from collections import deque


class RingOverflowError(Exception):
    """A write landed beyond the ring's free window.

    Flow control is advisory (Section 4.1): a host that ignores its credit
    budget can overrun the ring, and the device rejects the write.  Seeing
    this exception in a simulation means the client violated the protocol.
    """


class SequencedRing:
    """A bounded window over an append-only byte stream.

    Payloads ride with their chunks so downstream consumers (destage,
    recovery, secondary apply) can reconstruct the exact data stream.
    """

    def __init__(self, capacity):
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self.released = 0  # all bytes below: freed
        self.frontier = 0  # all bytes below: received contiguously
        self._consumed = 0  # all bytes below: handed to the consumer
        # Contiguous chunks awaiting consumption: a FIFO of
        # (offset, nbytes, payload), sorted, covering [consumed, frontier).
        self._ready = deque()
        # Out-of-order chunks keyed by start offset.
        self._pending = {}

    # -- write side -------------------------------------------------------------

    def write(self, offset, nbytes, payload=None):
        """Accept ``nbytes`` at stream ``offset``; returns newly contiguous bytes.

        Raises :class:`RingOverflowError` when the write does not fit in the
        window ``[released, released + capacity)``.  Overlapping rewrites of
        already-received bytes are rejected as protocol violations too.
        """
        if nbytes < 0:
            raise ValueError("negative write size")
        if nbytes == 0:
            return 0
        end = offset + nbytes
        if end > self.released + self.capacity:
            raise RingOverflowError(
                f"write [{offset}, {end}) exceeds window "
                f"[{self.released}, {self.released + self.capacity})"
            )
        if offset < self.frontier:
            raise RingOverflowError(
                f"write at {offset} overlaps received data "
                f"(frontier {self.frontier})"
            )
        if offset in self._pending:
            raise RingOverflowError(f"duplicate write at offset {offset}")
        self._pending[offset] = (nbytes, payload)
        return self._advance_frontier()

    def _advance_frontier(self):
        """Absorb pending chunks that now touch the frontier."""
        advanced = 0
        while self.frontier in self._pending:
            nbytes, payload = self._pending.pop(self.frontier)
            self._ready.append((self.frontier, nbytes, payload))
            self.frontier += nbytes
            advanced += nbytes
        return advanced

    # -- read / consume side -------------------------------------------------------

    def consumable_bytes(self):
        """Bytes that are contiguous but not yet consumed."""
        return self.frontier - self._consumed

    def consume(self, max_bytes):
        """Take up to ``max_bytes`` of contiguous chunks, in stream order.

        A chunk is never split: the last chunk may push the total slightly
        over ``max_bytes`` only if it is the *first* chunk taken (so a
        consumer asking for at least one page's worth always makes
        progress).

        Returns a list of ``(offset, nbytes, payload)`` entries, each a
        contiguous payload slice: adjacent taken chunks whose payloads
        are ``(src, cursor, step)`` slices of one ``src`` object, with
        contiguous cursors and ``nbytes == step`` on both, come back as
        one entry ``(offset, total, (src, first_cursor, total))``.  A torn
        chunk (``nbytes != step``), a ``None`` or any other payload stays
        an entry of its own.  Merging changes no byte count or offset.
        The ``(src, cursor, step)`` chunk format is the one
        :meth:`repro.host.api.XssdLogFile.x_pwrite` writes and
        :meth:`repro.db.recovery.LogReader.feed` decodes.
        """
        if max_bytes <= 0:
            return []
        taken = []
        total = 0
        ready = self._ready
        # The last entry's source and the cursor a slice must start at to
        # extend it (the stream offsets of ready chunks are contiguous).
        run_src = run_end = None
        while ready:
            chunk = ready[0]
            _offset, nbytes, payload = chunk
            if taken and total + nbytes > max_bytes:
                break
            ready.popleft()
            total += nbytes
            self._consumed += nbytes
            if (type(payload) is tuple and len(payload) == 3
                    and payload[2] == nbytes):
                src, cursor, _step = payload
                if cursor == run_end and src is run_src:
                    first, run_bytes, (_src, first_cursor, _run) = taken[-1]
                    run_bytes += nbytes
                    taken[-1] = (first, run_bytes,
                                 (src, first_cursor, run_bytes))
                else:
                    taken.append(chunk)
                    run_src = src
                run_end = cursor + nbytes
            else:
                taken.append(chunk)
                run_src = run_end = None
            if total >= max_bytes:
                break
        return taken

    def peek_ready(self):
        """Non-destructive view of the consumable chunks."""
        return list(self._ready)

    # -- space management -------------------------------------------------------------

    def release(self, up_to):
        """Free ring space below stream offset ``up_to`` (post-destage)."""
        if up_to > self._consumed:
            raise ValueError(
                f"cannot release beyond consumed point "
                f"({up_to} > {self._consumed})"
            )
        if up_to > self.released:
            self.released = up_to

    @property
    def used_bytes(self):
        """Window bytes not yet released (includes pending gaps)."""
        highest = max(
            [self.frontier]
            + [offset + nbytes for offset, (nbytes, _p) in self._pending.items()]
        )
        return highest - self.released

    @property
    def free_bytes(self):
        return self.capacity - self.used_bytes

    @property
    def has_gap(self):
        """True when out-of-order chunks wait behind a hole."""
        return bool(self._pending)

    def drop_pending(self):
        """Discard out-of-order chunks (crash: data beyond the gap is lost)."""
        dropped = len(self._pending)
        self._pending.clear()
        return dropped
