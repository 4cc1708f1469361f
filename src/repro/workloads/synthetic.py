"""A synthetic append stream for the microbenchmarks.

The Figs. 10-13 experiments do not need a database: they drive the fast
side (or the conventional side) with controlled byte streams — fixed
write sizes at a fixed offered rate.  :func:`paced_append_stream`
produces such a stream as a simulation process.
"""

from repro.sim.rng import derive


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
