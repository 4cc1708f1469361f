"""Pipeline transitions: mining the tracer for crash-point candidates.

A probe run (no faults, tracing on) emits the full event stream of the
write pipeline.  Each stage's boundary shows up as a specific tracer
emission, which this module maps back to a symbolic stage name:

==================  ==============================================
stage               tracer evidence
==================  ==============================================
host-submit         ``x_pwrite`` span begin on a ``host:*`` track
cmb-ack             ``credit`` counter sample (CMB persisted bytes)
destage-dispatch    ``page-program`` span begin
nand-program        ``page-program`` span end
destage-ack         ``destage-ack`` instant (prefix publication)
replica-ack         ``shadow:*`` counter sample on the transport
wal-commit          ``flush`` span end on the ``wal`` track
==================  ==============================================

Crashing *at* each transition time and *between* each adjacent pair
(midpoints) covers every interleaving of one crash against the pipeline
— the "no crash point between CMB ack and NAND program loses a committed
record" style of claim the checker discharges.
"""

from repro.obs.trace import CounterSample, Instant, Span

STAGES = (
    "host-submit",
    "cmb-ack",
    "destage-dispatch",
    "nand-program",
    "destage-ack",
    "replica-ack",
    "wal-commit",
)


def extract_transitions(tracers):
    """Sorted, deduplicated ``(time_ns, stage)`` pairs from a probe trace."""
    seen = set()
    for tracer in tracers:
        for event in tracer.events:
            if isinstance(event, Span):
                if event.name == "x_pwrite" and event.track.startswith("host:"):
                    seen.add((event.start_ns, "host-submit"))
                elif event.name == "page-program":
                    seen.add((event.start_ns, "destage-dispatch"))
                    if event.end_ns is not None:
                        seen.add((event.end_ns, "nand-program"))
                elif event.name == "flush" and event.track == "wal":
                    if event.end_ns is not None:
                        seen.add((event.end_ns, "wal-commit"))
            elif isinstance(event, CounterSample):
                if event.name == "credit":
                    seen.add((event.ts_ns, "cmb-ack"))
                elif event.name.startswith("shadow:"):
                    seen.add((event.ts_ns, "replica-ack"))
            elif isinstance(event, Instant):
                if event.name == "destage-ack":
                    seen.add((event.ts_ns, "destage-ack"))
    return sorted(seen)


def crash_candidates(transitions):
    """Candidate crash instants: every transition plus every midpoint.

    Returns ``(time_ns, label)`` pairs, time-sorted.  The simulation
    clock is inclusive at ``run(until=t)``, so a crash at a transition's
    exact time lands *after* that transition's events — and the midpoint
    between two distinct instants lands strictly between them.  Same-time
    transitions share one candidate labelled with every stage involved.
    """
    by_time = {}
    for time_ns, stage in transitions:
        by_time.setdefault(time_ns, []).append(stage)
    times = sorted(by_time)
    candidates = []
    for index, time_ns in enumerate(times):
        label = "+".join(sorted(set(by_time[time_ns])))
        candidates.append((time_ns, label))
        if index + 1 < len(times):
            midpoint = (time_ns + times[index + 1]) / 2.0
            if time_ns < midpoint < times[index + 1]:
                candidates.append((midpoint, f"after-{label}"))
    return candidates


def stage_coverage(transitions):
    """Which of the seven pipeline stages the probe actually exercised."""
    present = {stage for _time, stage in transitions}
    return [stage for stage in STAGES if stage in present]


def bracket_events(first, events, horizon, tail_ns=150_000.0, extra=()):
    """Crash candidates bracketing a fault-free run's event log.

    ``first`` (a pre-activity point), every event, the midpoint after
    each (up to the next event, or at most ``tail_ns`` past the last),
    any ``extra`` points and the horizon — deduplicated to 1e-3 ns and
    time-sorted, so power loss lands exactly at, and between, steps.
    """
    candidates = [first]
    for index, (time_ns, label) in enumerate(events):
        candidates.append((time_ns, label))
        next_ns = (events[index + 1][0] if index + 1 < len(events)
                   else min(time_ns + tail_ns, horizon))
        if next_ns > time_ns:
            candidates.append(((time_ns + next_ns) / 2, f"{label}-mid"))
    candidates.extend(extra)
    candidates.append((horizon, "end"))
    deduped = {}
    for time_ns, label in candidates:
        deduped.setdefault(round(time_ns, 3), (time_ns, label))
    return [deduped[key] for key in sorted(deduped)]
