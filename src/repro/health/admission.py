"""Admission control: bounded outstanding bytes with explicit rejection.

The base flow-control protocol (Fig. 8) is advisory — a host that keeps
claiming stream ranges faster than destage retires them just grows the
device's intake backlog without bound.  :class:`AdmissionController`
sits in front of :meth:`XssdLogFile.x_pwrite` and turns that unbounded
queueing into an explicit :class:`~repro.health.errors.DeviceBusy`
*before* any stream bytes are claimed, so a rejected write leaves no gap
in the log.

Two checks, both cheap:

* **global saturation** — bytes claimed but not yet persisted
  (``stream_claimed - credit``) must stay under the configured ceiling;
* **per-writer fair share** — with several registered writers, no single
  writer may hold more than its share of the ceiling in active calls, so
  a greedy writer is throttled before it can crowd out the others
  (layered on the multiwriter per-lane counters, which track the same
  notion per lane).  Shares are *weighted*: every lane defaults to
  weight 1.0 (uniform shares, the original behavior), and the SLO
  controller may deprioritize a lane by lowering its weight — a bounded,
  reversible actuation that changes only future admission decisions.

Both the ceiling and the lane weights are runtime actuators
(:meth:`set_ceiling`, :meth:`set_lane_weight`): they take effect on the
*next* ``admit`` call and never touch bytes already claimed — shrinking
the ceiling below the current outstanding level sheds new work, it does
not abandon admitted work.
"""

from repro.health.errors import DeviceBusy


class AdmissionController:
    """Admission decisions for every writer sharing one device."""

    def __init__(self, device, max_outstanding_bytes=None, name=None):
        self.device = device
        self.engine = device.engine
        if max_outstanding_bytes is None:
            max_outstanding_bytes = 2 * device.config.cmb_queue_bytes
        if max_outstanding_bytes <= 0:
            raise ValueError("outstanding ceiling must be positive")
        self.max_outstanding_bytes = max_outstanding_bytes
        self.baseline_max_outstanding_bytes = max_outstanding_bytes
        self.name = name or f"{device.name}.admission"
        self._inflight = {}  # writer id -> bytes in active pwrite calls
        self.lane_weights = {}  # writer id -> fair-share weight (default 1.0)
        self.admitted_chunks = 0
        self.admitted_bytes = 0
        self.rejections = 0
        self.rejected_bytes = 0
        self.rejections_by_writer = {}
        self.rejections_by_reason = {}

    # -- accounting ---------------------------------------------------------------

    def register_writer(self, writer_id):
        self._inflight.setdefault(writer_id, 0)
        self.lane_weights.setdefault(writer_id, 1.0)

    def unregister_writer(self, writer_id):
        """Drop a writer's fair-share lane (e.g. a shard migrated away).

        A departed writer must not keep shrinking the survivors' fair
        shares — ``admit`` divides the ceiling by the number of
        registered lanes.  Unknown writers are ignored so teardown paths
        can call this unconditionally.
        """
        self._inflight.pop(writer_id, None)
        self.lane_weights.pop(writer_id, None)

    # -- runtime actuators (the SLO controller's knobs) ----------------------------

    def set_ceiling(self, nbytes):
        """Move the outstanding-bytes ceiling; returns ``(old, new)``.

        Affects only future ``admit`` decisions — bytes already admitted
        stay admitted, so no acknowledged or in-flight durability work is
        ever shed retroactively.
        """
        nbytes = int(nbytes)
        if nbytes <= 0:
            raise ValueError("outstanding ceiling must be positive")
        old = self.max_outstanding_bytes
        self.max_outstanding_bytes = nbytes
        return old, nbytes

    def set_lane_weight(self, writer_id, weight):
        """Set one lane's fair-share weight; returns ``(old, new)``.

        Weights scale the lane's slice of the ceiling relative to the
        other registered lanes; 1.0 is the uniform default.  A weight
        must stay positive — a zero weight would starve the lane's
        guaranteed single in-flight call, which ``admit`` still honors.
        """
        weight = float(weight)
        if weight <= 0:
            raise ValueError("lane weight must be positive")
        self.register_writer(writer_id)
        old = self.lane_weights.get(writer_id, 1.0)
        self.lane_weights[writer_id] = weight
        return old, weight

    def lane_share(self, writer_id):
        """The lane's current byte share of the ceiling under its weight."""
        self.register_writer(writer_id)
        total = sum(self.lane_weights.get(w, 1.0) for w in self._inflight)
        if total <= 0:
            return self.max_outstanding_bytes
        weight = self.lane_weights.get(writer_id, 1.0)
        return int(self.max_outstanding_bytes * weight / total)

    def outstanding_bytes(self):
        """Bytes claimed from the stream but not yet locally persistent."""
        return max(
            0, self.device.stream_claimed - self.device.cmb.credit.value
        )

    def pressure(self):
        """Saturation in [0, ...]: 1.0 means the ceiling is fully used.

        The supervisor's brownout logic reads this; the CMB's own intake
        backlog is folded in so pressure rises even when the claimants
        bypass admission (e.g. mirror traffic on a secondary).
        """
        ratio = self.outstanding_bytes() / self.max_outstanding_bytes
        cmb = self.device.cmb
        if cmb.intake_bound_bytes:
            ratio = max(ratio, cmb.intake_backlog_bytes
                        / cmb.intake_bound_bytes)
        return ratio

    # -- the decision -------------------------------------------------------------

    def admit(self, writer_id, nbytes):
        """Admit ``nbytes`` for ``writer_id`` or raise :class:`DeviceBusy`.

        Synchronous (no simulation time passes): the check happens before
        the write claims any stream range.
        """
        if nbytes <= 0:
            raise ValueError("admission needs a positive byte count")
        self.register_writer(writer_id)
        outstanding = self.outstanding_bytes()
        if outstanding + nbytes > self.max_outstanding_bytes:
            self._reject(writer_id, nbytes, "device-saturated",
                         outstanding=outstanding)
        if len(self._inflight) > 1:
            share = self.lane_share(writer_id)
            held = self._inflight[writer_id]
            # A writer always gets at least one call in flight; beyond
            # that it must stay inside its share of the ceiling.
            if held > 0 and held + nbytes > share:
                self._reject(writer_id, nbytes, "fair-throttle", held=held,
                             share=share)
        self._inflight[writer_id] += nbytes
        self.admitted_chunks += 1
        self.admitted_bytes += nbytes
        return nbytes

    def release(self, writer_id, nbytes):
        """A pwrite call finished issuing; free its fair-share slot."""
        held = self._inflight.get(writer_id, 0)
        self._inflight[writer_id] = max(0, held - nbytes)

    def _reject(self, writer_id, nbytes, reason, **detail):
        self.rejections += 1
        self.rejected_bytes += nbytes
        self.rejections_by_writer[writer_id] = (
            self.rejections_by_writer.get(writer_id, 0) + 1
        )
        self.rejections_by_reason[reason] = (
            self.rejections_by_reason.get(reason, 0) + 1
        )
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(self.name, "device-busy", writer=str(writer_id),
                           reason=reason, nbytes=nbytes, **detail)
        raise DeviceBusy(
            f"{self.name}: {writer_id} rejected ({reason}) for {nbytes} "
            f"bytes: {detail}",
            writer_id=writer_id, reason=reason,
            retry_after_ns=self.device.config.transport_update_period_ns * 4,
        )
