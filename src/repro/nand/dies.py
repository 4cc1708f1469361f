"""Per-die resource management: suspend/resume, cache registers, planes.

Real NAND dies are richer than a one-operation lock.  Following the
SimpleSSD/Amber line of work (model *all* the resources — dies, planes,
cache registers — or tail latency is fiction), this module adds:

* **Erase suspend/resume** — a host read arriving at a die mid-erase can
  suspend the erase (``t_erase_suspend`` to park it), be served, and let
  the erase resume (``t_erase_resume`` penalty, bounded number of
  suspensions per erase).  Which operation *classes* may be suspended is
  a QoS decision (:class:`DieQos`), because suspending GC erases helps
  read tails while suspending destage erases can hurt log durability
  latency.
* **Cache-program pipelining** — each die has one cache register per
  plane group; the next page's data phase (bus transfer into the
  register) overlaps the cell array's current program, so a sequential
  stream pays ``max(t_transfer, t_program)`` per page instead of the sum.
* **Multi-plane accounting** — per-die plane occupancy plus validation
  that a multi-plane operation addresses one aligned block per plane at
  the same page offset (the constraint real parts impose).

The manager owns *policy-free mechanism*: the channel drives the
protocol, the FTL/scheduler pick operation classes, and :class:`DieQos`
(shared between the scheduler and every channel) decides what is allowed.
"""

from collections import deque
from dataclasses import dataclass

from repro.sim.resources import Resource


@dataclass
class DieQos:
    """Shared QoS policy for die-level operation sequencing.

    One instance, set once through ``SsdConfig.qos`` when the device is
    built, is shared by every channel's resource manager and the write
    scheduler, so the policy is device-wide.  The defaults
    are all *off*: an untouched device behaves exactly like the idealized
    backend (one op per die, no preemption), which keeps the existing
    figures and replay determinism intact.
    """

    #: Master switch: host reads may suspend in-flight erases.
    suspend_for_reads: bool = False
    #: Erase classes that may be suspended ("gc", "destage", "host").
    suspendable_classes: tuple = ("gc",)
    #: Real parts bound how often one erase may be interrupted.
    max_suspends_per_erase: int = 4
    #: Scheduler batches same-source writes into multi-plane programs.
    multi_plane_writes: bool = False
    #: Programs pipeline through the die cache register.
    cache_program: bool = False

    def allows_suspension(self, op_class):
        return (self.suspend_for_reads
                and op_class in self.suspendable_classes)


@dataclass
class _ActiveErase:
    """Bookkeeping for one in-flight (possibly suspended) erase."""

    op_class: str
    suspends_left: int
    #: Armed while the erase is interruptible; firing it starts suspension.
    interrupt: object = None
    #: True between the interrupt firing and the read window opening
    #: (reads arriving in that span still join the window).
    opening: bool = False


class _DieState:
    """Per-die mutable state the manager arbitrates over."""

    __slots__ = ("busy", "cache_slot", "erase", "read_queue", "window",
                 "resume", "adopted")

    def __init__(self, busy, engine):
        self.busy = busy  # the FlashDie's one-op Resource (shared view)
        self.cache_slot = Resource(engine, capacity=1)
        self.erase = None  # _ActiveErase while an erase holds the die
        self.read_queue = deque()  # grant events for preempting reads
        self.window = False  # True while suspended-erase reads are served
        self.resume = None  # event the draining window fires for the erase
        # Grant events converted to plain busy holders when their erase
        # ended before a window could serve them (see run_erase finally).
        self.adopted = set()


class _ReadGrant:
    """Handle returned by :meth:`DieResourceManager.read_grant`."""

    __slots__ = ("event", "preempted")

    def __init__(self, event, preempted):
        self.event = event
        self.preempted = preempted


class DieResourceManager:
    """Tracks busy state, cache registers, and suspension per die.

    One manager serves one channel's ways.  All grant paths reduce to the
    die's FIFO :class:`Resource` when the corresponding QoS feature is
    off, so an all-defaults :class:`DieQos` reproduces the idealized
    backend event-for-event.
    """

    def __init__(self, engine, geometry, timing, dies, qos=None):
        self.engine = engine
        self.geometry = geometry
        self.timing = timing
        self.qos = qos if qos is not None else DieQos()
        self._states = [_DieState(die.busy, engine) for die in dies]
        # Introspection counters (the nand bench reads these).
        self.suspends = 0
        self.resumes = 0
        self.reads_preempting = 0
        self.cache_programs = 0
        self.multi_plane_programs = 0
        self.multi_plane_erases = 0

    # -- plain acquisition (programs, non-preempting ops) --------------------

    def acquire(self, way):
        """FIFO die grant, exactly the semantics of ``die.busy.request()``."""
        return self._states[way].busy.request()

    def release(self, way):
        self._states[way].busy.release()

    # -- read path (may preempt a suspendable erase) -------------------------

    def read_grant(self, way):
        """Grant for a read; preempts a suspendable in-flight erase.

        Returns a :class:`_ReadGrant`; yield its ``event``, do the read,
        then call :meth:`end_read` with the grant.  When no suspendable
        erase is in flight this is exactly ``die.busy.request()``.
        """
        state = self._states[way]
        erase = state.erase
        if erase is not None:
            joinable = (
                state.window
                or erase.opening
                or (erase.interrupt is not None
                    and not erase.interrupt.triggered
                    and erase.suspends_left > 0)
            )
            if joinable:
                event = self.engine.event()
                state.read_queue.append(event)
                self.reads_preempting += 1
                if state.window:
                    pass  # served when the current reader finishes
                elif not erase.opening:
                    erase.opening = True
                    erase.interrupt.succeed()
                return _ReadGrant(event, preempted=True)
        return _ReadGrant(state.busy.request(), preempted=False)

    def end_read(self, way, grant):
        state = self._states[way]
        if grant.preempted:
            if grant.event in state.adopted:
                # Served via the normal FIFO after its erase ended.
                state.adopted.discard(grant.event)
                state.busy.release()
            else:
                self._grant_next(state)
        else:
            state.busy.release()

    def _open_window(self, state):
        state.window = True
        if state.erase is not None:
            state.erase.opening = False
        self._grant_next(state)

    def _grant_next(self, state):
        if state.read_queue:
            state.read_queue.popleft().succeed()
        else:
            state.window = False
            state.resume.succeed()

    # -- erase protocol (driven by the channel via ``yield from``) -----------

    def run_erase(self, way, duration, op_class, erase_blocks):
        """Generator implementing the (suspendable) erase cell phase.

        The caller must hold the die (via :meth:`acquire`).  ``erase_blocks``
        is a thunk applying the state change; it runs up front, as the
        idealized backend did.  When the QoS forbids suspension for
        ``op_class`` this is exactly the old one-shot cell timer.
        """
        engine = self.engine
        if not self.qos.allows_suspension(op_class):
            erase_blocks()
            yield engine.at(engine.now + duration)
            return
        state = self._states[way]
        erase = _ActiveErase(
            op_class=op_class,
            suspends_left=self.qos.max_suspends_per_erase,
        )
        state.erase = erase
        erase_blocks()
        remaining = duration
        try:
            while remaining > 0:
                interrupt = engine.event()
                erase.interrupt = interrupt
                if state.read_queue and erase.suspends_left > 0:
                    # Readers queued while we were resuming: re-suspend
                    # immediately rather than making them wait out the
                    # remaining cell time.
                    erase.opening = True
                    interrupt.succeed()
                timer = engine.timeout(remaining)
                started = engine.now
                yield engine.any_of([timer, interrupt])
                erase.interrupt = None
                if not interrupt.triggered:
                    break
                timer.cancel()
                remaining -= engine.now - started
                erase.suspends_left -= 1
                self.suspends += 1
                if self.timing.t_erase_suspend > 0:
                    yield engine.timeout(self.timing.t_erase_suspend)
                state.resume = resume = engine.event()
                self._open_window(state)
                yield resume
                state.resume = None
                self.resumes += 1
                if self.timing.t_erase_resume > 0:
                    yield engine.timeout(self.timing.t_erase_resume)
        finally:
            state.erase = None
            # Readers that queued but never saw a window (erase finished
            # or budget exhausted at the same instant) fall back to
            # normal FIFO acquisition so nobody deadlocks.
            while state.read_queue:
                event = state.read_queue.popleft()
                state.adopted.add(event)
                state.busy.request().then(
                    lambda _grant, e=event: e.succeed()
                )

    # -- cache register ------------------------------------------------------

    def cache_slot(self, way):
        """The die's one-deep cache-register pipeline slot."""
        return self._states[way].cache_slot

    # -- multi-plane validation ----------------------------------------------

    def validate_multi_plane(self, ops):
        """Check a multi-plane op list: one aligned block per plane,
        identical page offset.  ``ops`` is ``[(block, page), ...]``."""
        geometry = self.geometry
        if not 2 <= len(ops) <= geometry.planes_per_die:
            raise ValueError(
                f"multi-plane op needs 2..{geometry.planes_per_die} "
                f"planes, got {len(ops)}"
            )
        blocks = [block for block, _page in ops]
        planes = {geometry.plane_of(block) for block in blocks}
        if len(planes) != len(blocks):
            raise ValueError(
                f"multi-plane blocks {blocks} collide on a plane"
            )
        bases = {geometry.stripe_base(block) for block in blocks}
        if len(bases) != 1:
            raise ValueError(
                f"multi-plane blocks {blocks} are not stripe-aligned"
            )
        pages = {page for _block, page in ops}
        if len(pages) != 1:
            raise ValueError(
                f"multi-plane pages must share one offset, got {pages}"
            )

    # -- introspection -------------------------------------------------------

    def snapshot(self):
        """Counter snapshot for benches and gauges."""
        return {
            "suspends": self.suspends,
            "resumes": self.resumes,
            "reads_preempting": self.reads_preempting,
            "cache_programs": self.cache_programs,
            "multi_plane_programs": self.multi_plane_programs,
            "multi_plane_erases": self.multi_plane_erases,
        }
