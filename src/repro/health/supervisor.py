"""The supervisor: closing the loop from detection to recovery.

:class:`ChainSupervisor` is the management plane the paper assumes but
never builds (Section 7.1 sketches the reconfiguration steps and leaves
"who pushes the buttons" to the database).  One supervisor owns one
cluster and runs a single polling process that

1. **probes** every chain member with the status admin command and feeds
   the answers (or their absence) into per-server
   :class:`~repro.health.detector.HeartbeatDetector` instances;
2. **evicts** a secondary judged DEAD: ``Cluster.reconfigure_around``
   splices it out, cables the survivors together and resyncs the
   successor — the visible counter can move again;
3. **reattaches** the evicted server after it reboots (optional):
   ``Server.rejoin`` + ``Cluster.reattach`` put it back at the tail of
   the chain and re-ship the range it missed;
4. **resyncs** links that are merely stalled (SUSPECT with live probes):
   lost mirror chunks are re-offered from retained history, with a
   cooldown so a slow link is not hammered;
5. **browns out** under sustained overload: when admission pressure
   stays above the enter threshold for a dwell period, the replication
   policy downgrades (eager -> lazy) so commits stop waiting
   on remote acks; sustained recovery upgrades it back.  Both directions
   are dwell-gated — classic hysteresis, no flapping at the boundary.

Every transition lands in ``events`` (plain dicts, byte-comparable
across runs) and, when tracing is active, as trace instants and gauge
samples — the convergence oracles in :mod:`repro.faults.oracles` consume
the event timeline.
"""

import enum

from repro.health.detector import (
    HeartbeatDetector,
    SuspicionLevel,
    link_stalled,
)
from repro.ssd.nvme import AdminOpcode


# One supervisor round: probe every member, wait out the probe deadline
# (which must fit inside the poll period), then judge the answers.
POLL_NS = 100_000.0
PROBE_TIMEOUT_NS = 50_000.0
SUSPECT_MISSES = 1  # consecutive missed probes before SUSPECT
DEAD_MISSES = 3  # ... and before DEAD (eviction)
LINK_QUIET_AFTER_NS = 300_000.0  # a silent mirror link is stalled after this
RESYNC_COOLDOWN_NS = 500_000.0  # minimum gap between resyncs of one link
REBOOT_DELAY_NS = 400_000.0  # eviction -> rejoin when auto_reboot is on
# Brownout hysteresis: admission pressure at or above ENTER for
# ENTER_AFTER_NS downgrades the policy to BROWNOUT_POLICY; pressure at or
# below EXIT for EXIT_AFTER_NS restores it.
BROWNOUT_POLICY = "lazy"
BROWNOUT_ENTER_PRESSURE = 0.85
BROWNOUT_EXIT_PRESSURE = 0.4
BROWNOUT_ENTER_AFTER_NS = 250_000.0
BROWNOUT_EXIT_AFTER_NS = 400_000.0


class BrownoutState(enum.Enum):
    NORMAL = "normal"
    BROWNOUT = "brownout"


class ChainSupervisor:
    """Watches one cluster and drives its recovery primitives."""

    def __init__(self, engine, cluster, auto_reboot=True, admission=None,
                 name="supervisor"):
        self.engine = engine
        self.cluster = cluster
        self.auto_reboot = auto_reboot
        self.admission = admission
        self.name = name
        self.detectors = {}  # site -> HeartbeatDetector
        self.events = []  # chronological health transitions (plain dicts)
        self.brownout_state = BrownoutState.NORMAL
        self.brownout_enters = 0
        self.brownout_exits = 0
        self._mirror_brownout()
        self.probes_answered = 0
        self.probes_timed_out = 0
        self._evicting = set()
        self._last_resync = {}  # peer -> time of the last link resync
        self._overloaded_since = None
        self._healthy_since = None
        self._original_policy = None
        self._running = False
        self._process = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self):
        if self._running:
            raise RuntimeError("supervisor already running")
        self._running = True
        self._process = self.engine.process(self._loop(), name=self.name)
        return self._process

    def stop(self):
        self._running = False

    # -- event log ----------------------------------------------------------------

    def _record(self, action, site, detail=""):
        entry = {
            "time_ns": self.engine.now,
            "action": action,
            "site": site,
            "detail": detail,
        }
        self.events.append(entry)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(self.name, action, site=site, detail=detail)
        return entry

    def events_for(self, site, action=None):
        return [
            entry for entry in self.events
            if entry["site"] == site
            and (action is None or entry["action"] == action)
        ]

    # -- the poll loop ------------------------------------------------------------

    def _loop(self):
        while self._running:
            yield self.engine.timeout(POLL_NS)
            if not self._running:
                return
            yield from self._probe_round()
            self._link_round()
            self._brownout_round()

    def _detector_for(self, site):
        detector = self.detectors.get(site)
        if detector is None:
            detector = HeartbeatDetector(site, suspect_misses=SUSPECT_MISSES,
                                         dead_misses=DEAD_MISSES)
            self.detectors[site] = detector
        return detector

    def _probe_round(self):
        """One heartbeat round: probe every chain member concurrently.

        A halted device's admin command never completes (its front-end
        pumps are stopped), so the shared deadline converts power loss
        into missed heartbeats — the detector never peeks at simulator
        ground truth like ``device.halted``.
        """
        members = [name for name in self.cluster.order
                   if name not in self._evicting]
        probes = {
            name: self.cluster.servers[name].device.admin(
                AdminOpcode.XSSD_QUERY_STATUS)
            for name in members
        }
        yield self.engine.timeout(PROBE_TIMEOUT_NS)
        for name, probe in probes.items():
            answered = probe.triggered
            if answered:
                self.probes_answered += 1
            else:
                self.probes_timed_out += 1
            detector = self._detector_for(name)
            before = detector.last_level
            level = detector.record_probe(answered)
            self._note_level(detector, before, level)
            if (level is SuspicionLevel.DEAD
                    and name != self.cluster.primary_name
                    and name not in self._evicting):
                self._evict(name)

    def _note_level(self, detector, before, level):
        if level is before:
            return
        detector.last_level = level
        self._record("suspicion", detector.site,
                     f"{before.name.lower()}->{level.name.lower()} after "
                     f"{detector.consecutive_misses} missed probe(s)")
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.counter(self.name, f"suspicion:{detector.site}",
                           int(level))

    # -- link staleness & resync healing -------------------------------------------

    def _link_round(self):
        now = self.engine.now
        order = self.cluster.order
        for upstream_name, peer_name in zip(order, order[1:]):
            if peer_name in self._evicting:
                continue
            upstream = self.cluster.servers[upstream_name]
            stalled = link_stalled(upstream.device, peer_name, now,
                                   LINK_QUIET_AFTER_NS)
            detector = self._detector_for(peer_name)
            before = detector.last_level
            detector.note_link(stalled)
            self._note_level(detector, before, detector.level())
            if not stalled or detector.consecutive_misses:
                continue  # dead/dying servers are the probe path's job
            last = self._last_resync.get(peer_name)
            if last is not None and now - last < RESYNC_COOLDOWN_NS:
                continue
            self._last_resync[peer_name] = now
            offered = self.cluster.resync(peer_name)
            self._record("link-resync", peer_name,
                         f"re-offered {offered} bytes from "
                         f"{upstream_name}'s history")

    # -- eviction and reattachment ---------------------------------------------------

    def _evict(self, site):
        self._evicting.add(site)
        self._record("dead-detected", site,
                     f"{self.detectors[site].consecutive_misses} consecutive "
                     f"probes unanswered")
        self.cluster.reconfigure_around(site)
        self._record(
            "evict", site,
            f"spliced out; order now {'->'.join(self.cluster.order)}",
        )
        if self.auto_reboot:
            self.engine.process(self._reboot_later(site),
                                name=f"{self.name}-reboot-{site}")

    def _reboot_later(self, site):
        yield self.engine.timeout(REBOOT_DELAY_NS)
        server = self.cluster.servers[site]
        if not server.device.halted or not self._running:
            self._evicting.discard(site)
            return
        server.rejoin()
        offered = self.cluster.reattach(site)
        self.detectors[site].reset()
        self._evicting.discard(site)
        self._record(
            "rejoin", site,
            f"reattached at tail of {'->'.join(self.cluster.order)}; "
            f"resynced {offered} bytes",
        )

    # -- brownout (overload hysteresis) ----------------------------------------------

    def _brownout_round(self):
        if self.admission is None:
            return
        now = self.engine.now
        pressure = self.admission.pressure()
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.counter(self.name, "admission_pressure_pct",
                           int(pressure * 100))
        if pressure >= BROWNOUT_ENTER_PRESSURE:
            self._healthy_since = None
            if self._overloaded_since is None:
                self._overloaded_since = now
            dwell = now - self._overloaded_since
            if (self.brownout_state is BrownoutState.NORMAL
                    and dwell >= BROWNOUT_ENTER_AFTER_NS):
                self._enter_brownout(pressure)
        elif pressure <= BROWNOUT_EXIT_PRESSURE:
            self._overloaded_since = None
            if self._healthy_since is None:
                self._healthy_since = now
            dwell = now - self._healthy_since
            if (self.brownout_state is BrownoutState.BROWNOUT
                    and dwell >= BROWNOUT_EXIT_AFTER_NS):
                self._exit_brownout(pressure)
        else:
            # Inside the hysteresis band: neither dwell clock runs.
            self._overloaded_since = None
            self._healthy_since = None

    def _enter_brownout(self, pressure):
        transport = self.cluster.primary.device.transport
        self._original_policy = transport.policy.name
        if self._original_policy == BROWNOUT_POLICY:
            return
        self.brownout_state = BrownoutState.BROWNOUT
        self.brownout_enters += 1
        self._mirror_brownout()
        self.cluster.set_replication_policy(BROWNOUT_POLICY)
        self._record(
            "brownout-enter", self.cluster.primary_name,
            f"pressure {pressure:.2f}; policy {self._original_policy} -> "
            f"{BROWNOUT_POLICY}",
        )
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.counter(self.name, "brownout", 1)

    def _exit_brownout(self, pressure):
        self.brownout_state = BrownoutState.NORMAL
        self.brownout_exits += 1
        self._mirror_brownout()
        self.cluster.set_replication_policy(self._original_policy)
        self._record(
            "brownout-exit", self.cluster.primary_name,
            f"pressure {pressure:.2f}; policy restored to "
            f"{self._original_policy}",
        )
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.counter(self.name, "brownout", 0)

    def _mirror_brownout(self):
        """Copy the counters into the primary device's brownout fields.

        ``device_snapshot`` reports them under ``health`` so gauges (and
        the SLO controller) can read brownout history without parsing the
        supervisor's event log or the trace.
        """
        device = self.cluster.primary.device
        device.brownout_enters = self.brownout_enters
        device.brownout_exits = self.brownout_exits
        device.brownout_active = int(
            self.brownout_state is BrownoutState.BROWNOUT
        )
