"""Synthetic append streams for the microbenchmarks.

The Figs. 10-13 experiments do not need a database: they drive the fast
side (or the conventional side) with controlled byte streams — fixed
write sizes, fixed offered rates, optional group-commit-style batching.
These helpers produce such streams as simulation processes.
"""

from repro.sim.rng import derive


class AppendStream:
    """A writer pushing fixed-size appends through an x_pwrite-style file.

    Closed loop at full speed: each write starts when the previous one
    (and its fsync, every ``fsync_every`` writes) completes.  Statistics:
    per-write latency samples and total bytes pushed.
    """

    def __init__(self, engine, log_file, write_bytes, count=None,
                 fsync_every=1):
        if write_bytes <= 0:
            raise ValueError("write size must be positive")
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        self.engine = engine
        self.log_file = log_file
        self.write_bytes = write_bytes
        self.count = count
        self.fsync_every = fsync_every
        self.latencies = []
        self.bytes_written = 0
        self.writes_done = 0
        self._stop = False

    def stop(self):
        self._stop = True

    def run(self):
        """Start the writer; returns its completion event."""
        return self.engine.process(self._run(), name="append-stream")

    def _run(self):
        index = 0
        while not self._stop and (self.count is None or index < self.count):
            start = self.engine.now
            yield self.log_file.x_pwrite(f"append-{index}", self.write_bytes)
            if (index + 1) % self.fsync_every == 0:
                yield self.log_file.x_fsync()
            self.latencies.append(self.engine.now - start)
            self.bytes_written += self.write_bytes
            self.writes_done += 1
            index += 1
        return self.writes_done


def paced_append_stream(engine, submit, target_bytes_per_ns, write_bytes,
                        duration_ns, seed=0):
    """Offer load at a fixed rate through an arbitrary ``submit`` callable.

    ``submit(nbytes)`` must return a completion event (it is *not* waited
    on before the next submission — this is an open-loop generator, which
    is what saturation experiments like Fig. 12 need).  Returns a process
    whose value is a dict of offered/completed counters.
    """
    if target_bytes_per_ns <= 0:
        raise ValueError("target rate must be positive")
    rng = derive(seed, "paced-stream")
    stats = {"offered_bytes": 0, "completed_bytes": 0, "inflight_peak": 0}
    inflight = {"now": 0}

    def _proc():
        interval = write_bytes / target_bytes_per_ns
        deadline = engine.now + duration_ns
        while engine.now < deadline:
            stats["offered_bytes"] += write_bytes
            inflight["now"] += 1
            stats["inflight_peak"] = max(stats["inflight_peak"],
                                         inflight["now"])
            done = submit(write_bytes)

            def _completed(_event):
                stats["completed_bytes"] += write_bytes
                inflight["now"] -= 1

            done.then(_completed)
            # Jitter +/-10% keeps pathological phase-locking away.
            jitter = interval * (0.9 + 0.2 * rng.random())
            yield engine.timeout(jitter)
        return stats

    return engine.process(_proc(), name="paced-stream")
