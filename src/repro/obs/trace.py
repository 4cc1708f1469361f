"""The Tracer: spans, instants, and counter samples over sim time.

One :class:`Tracer` is attached to one :class:`~repro.sim.Engine`
(``engine.tracer``); model code emits through it:

* **spans** — ``token = tracer.begin(track, name, flow=..., **args)``
  then ``tracer.end(token, **args)``; timestamps come from the engine
  clock, so a span is "where sim time went" for one stage;
* **instant events** — ``tracer.instant(track, name, ...)`` for points
  with no duration (credit updates, retries, injected faults);
* **counter samples** — ``tracer.counter(track, name, value)`` for
  gauges (queue levels, outstanding pages), rendered as counter tracks.

A *track* is a string naming the resource the event belongs to (the
module's own ``name``: ``"villars.cmb"``, ``"nand.ch3"``,
``"ntb->secondary-1"``); the exporter turns each distinct track into one
timeline row.  A *flow* is an integer causality id — the log-stream byte
offset of a chunk — shared by every span that touches that chunk, which
is what lets one chunk be followed host → CMB → destage → NAND program →
replica intake across tracks.

Everything is recorded in emission order into plain lists, and the
engine clock is the only time source, so a fixed seed produces a
byte-identical trace.  The disabled path is
:data:`repro.sim.engine.NULL_TRACER`; hot hook points guard with
``tracer.enabled`` so a quiet simulation pays only attribute loads.
"""

from contextlib import contextmanager

from repro.obs.histogram import LogHistogram
from repro.sim.engine import set_tracer_factory

SPAN = "span"
INSTANT = "instant"
COUNTER = "counter"


class Span:
    """One begin/end pair on a track; ``end_ns`` is None while open."""

    __slots__ = ("track", "name", "start_ns", "end_ns", "flow", "args")

    def __init__(self, track, name, start_ns, flow=None, args=None):
        self.track = track
        self.name = name
        self.start_ns = start_ns
        self.end_ns = None
        self.flow = flow
        self.args = args

    @property
    def duration_ns(self):
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    def __repr__(self):
        state = "open" if self.end_ns is None else f"{self.duration_ns:.0f}ns"
        return f"Span({self.track}/{self.name} @{self.start_ns:.0f} {state})"


class Instant:
    """A zero-duration point event on a track."""

    __slots__ = ("track", "name", "ts_ns", "flow", "args")

    def __init__(self, track, name, ts_ns, flow=None, args=None):
        self.track = track
        self.name = name
        self.ts_ns = ts_ns
        self.flow = flow
        self.args = args

    def __repr__(self):
        return f"Instant({self.track}/{self.name} @{self.ts_ns:.0f})"


class CounterSample:
    """One gauge observation on a counter track."""

    __slots__ = ("track", "name", "ts_ns", "value")

    def __init__(self, track, name, ts_ns, value):
        self.track = track
        self.name = name
        self.ts_ns = ts_ns
        self.value = value

    def __repr__(self):
        return f"Counter({self.track}/{self.name}={self.value} @{self.ts_ns:.0f})"


class Tracer:
    """Records spans/instants/counters against one engine's clock.

    ``events`` holds every record in emission order (spans appear at
    their *begin* time).  ``histograms`` accumulates finished span
    durations per ``(track, name)`` — the stage-latency summary's raw
    material — so the summary needs no second pass over the event list.
    """

    enabled = True

    def __init__(self, engine, label=None):
        self.engine = engine
        self.label = label
        self.events = []
        self.histograms = {}  # (track, name) -> LogHistogram
        self.open_spans = 0

    # -- spans ---------------------------------------------------------------

    def begin(self, track, name, flow=None, **args):
        """Open a span; returns the token to pass to :meth:`end`."""
        span = Span(track, name, self.engine.now, flow=flow,
                    args=args or None)
        self.events.append(span)
        self.open_spans += 1
        return span

    def end(self, token, **args):
        """Close a span returned by :meth:`begin` (None is a no-op)."""
        if token is None:
            return
        if token.end_ns is not None:
            raise ValueError(f"span ended twice: {token!r}")
        token.end_ns = self.engine.now
        self.open_spans -= 1
        if args:
            if token.args is None:
                token.args = args
            else:
                token.args.update(args)
        key = (token.track, token.name)
        histogram = self.histograms.get(key)
        if histogram is None:
            histogram = self.histograms[key] = LogHistogram()
        histogram.record(token.end_ns - token.start_ns)

    def set_flow(self, token, flow):
        """Attach a causality id to an already-open span (None token ok)."""
        if token is not None:
            token.flow = flow

    # -- points --------------------------------------------------------------

    def instant(self, track, name, flow=None, **args):
        self.events.append(
            Instant(track, name, self.engine.now, flow=flow,
                    args=args or None)
        )

    def counter(self, track, name, value):
        self.events.append(CounterSample(track, name, self.engine.now, value))

    # -- introspection -------------------------------------------------------

    def tracks(self):
        """Distinct track names in first-emission order."""
        seen = {}
        for event in self.events:
            seen.setdefault(event.track, None)
        return list(seen)

    def spans(self, track=None, name=None):
        """Spans, optionally filtered by track and/or name."""
        return [
            event for event in self.events
            if isinstance(event, Span)
            and (track is None or event.track == track)
            and (name is None or event.name == name)
        ]

    def instants(self, track=None, name=None):
        """Instant events, optionally filtered by track and/or name."""
        return [
            event for event in self.events
            if isinstance(event, Instant)
            and (track is None or event.track == track)
            and (name is None or event.name == name)
        ]

    def tail(self, limit=20):
        """The last ``limit`` events, rendered as text lines (debug dumps)."""
        return [repr(event) for event in self.events[-limit:]]


class TraceSession:
    """All tracers created while a capture was installed.

    One per :func:`capture`; each engine constructed during the capture
    window appends its tracer here, in construction order — which is what
    gives multi-engine runs (a figure sweep, chaos recovery) stable
    process ids in the exported trace.
    """

    def __init__(self):
        self.tracers = []

    def make_tracer(self, engine):
        tracer = Tracer(engine, label=f"engine-{len(self.tracers)}")
        self.tracers.append(tracer)
        return tracer

    @property
    def events_recorded(self):
        return sum(len(tracer.events) for tracer in self.tracers)

    def tail(self, limit=20):
        """Last events across the session (the newest engine last)."""
        lines = []
        for tracer in self.tracers:
            lines.extend(
                f"[{tracer.label}] {line}" for line in tracer.tail(limit)
            )
        return lines[-limit:]


_current_session = None


def current_session():
    """The active :class:`TraceSession`, or None when not capturing."""
    return _current_session


@contextmanager
def capture():
    """Install a process-wide capture: every new Engine gets a Tracer.

    Yields the :class:`TraceSession`; on exit the factory is removed (and
    already-created engines keep their recording tracers, so results can
    still be exported).  Captures do not nest.
    """
    global _current_session
    if _current_session is not None:
        raise RuntimeError("a trace capture is already active")
    session = TraceSession()
    _current_session = session
    set_tracer_factory(session.make_tracer)
    try:
        yield session
    finally:
        _current_session = None
        set_tracer_factory(None)
