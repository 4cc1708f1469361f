"""Signal extraction: one node's health, one plain dict per poll.

The controller never reaches into device internals mid-decision; a
:class:`SignalReader` condenses everything it may react to into a flat
dict of numbers once per poll:

* **p99 commit latency** over the window — the freshest samples from the
  node database's :class:`~repro.sim.stats.LatencyRecorder`, windowed by
  a per-reader seen-index so each poll judges only what happened since
  the last one;
* **CMB occupancy and destage backlog** — from
  :func:`~repro.core.metrics.device_snapshot` (via the node's
  :class:`~repro.obs.gauges.GaugeSampler` when tracing, so every signal
  the controller acted on is also on the counter tracks);
* **admission shed rate** — the rejection-count delta over the window;
* **brownout counters** — the ``health`` snapshot section stamped by the
  chain supervisor;
* **rebalance stalls** — the fleet supervisor's typed hot-but-stuck
  records, counted for this node.

Readers are pure observers: taking a reading never advances simulation
time and never mutates the observed structures.
"""

from repro.core.metrics import device_snapshot
from repro.sim.stats import percentile


class SignalReader:
    """Windowed health signals for one :class:`~repro.cluster.fleet.FleetNode`."""

    def __init__(self, node, sampler=None, fleet_supervisor=None):
        self.node = node
        self.sampler = sampler  # GaugeSampler when tracing is on
        self.fleet_supervisor = fleet_supervisor
        self._seen_samples = 0
        self._last_rejections = 0
        self.readings = 0

    def read(self):
        """One poll's worth of signals as a flat dict (no time passes)."""
        node = self.node
        if self.sampler is not None:
            snapshot = self.sampler.sample()
        else:
            snapshot = device_snapshot(node.device)

        recorder = node.database.stats.latency
        samples = recorder.samples
        window = samples[self._seen_samples:]
        self._seen_samples = len(samples)
        p99 = percentile(window, 0.99) if window else None

        rejections = node.admission.rejections
        shed = rejections - self._last_rejections
        self._last_rejections = rejections

        ring = snapshot["fast_side"]["ring"]
        log_manager = node.database.log_manager
        stalls = 0
        if self.fleet_supervisor is not None:
            stalls = len(self.fleet_supervisor.stalls_for(node.name))

        self.readings += 1
        return {
            "time_ns": snapshot["time_ns"],
            "p99_commit_ns": p99,
            "commits_in_window": len(window),
            "cmb_used_fraction": (ring["used_bytes"] / ring["capacity"]
                                  if ring["capacity"] else 0.0),
            "destage_backlog_pages": snapshot["destage"]["outstanding_pages"],
            "shed_in_window": shed,
            "wal_waiters": log_manager.waiter_count,
            "wal_pending_bytes": log_manager.pending_bytes,
            "pressure": node.admission.pressure(),
            "brownout_active": snapshot["health"]["brownout_active"],
            "brownout_enters": snapshot["health"]["brownout_enters"],
            "rebalance_stalls": stalls,
        }
