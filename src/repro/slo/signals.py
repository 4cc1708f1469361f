"""Signal extraction: one node's health, one plain dict per poll.

The controller never reaches into device internals mid-decision; a
:class:`SignalReader` condenses everything it may react to into a flat
dict of numbers once per poll:

* **p99 commit latency** over the window — exact, over every commit
  latency since the last poll: the reader registers its own window in
  the node database's
  :attr:`~repro.db.engine.DatabaseStats.latency_windows` and swaps it
  for an empty list on each read, so memory is bounded by one poll's
  commits and each poll judges only what happened since the last one;
* **CMB occupancy and destage backlog** — from
  :func:`~repro.core.metrics.device_snapshot` (via the node's
  :class:`~repro.obs.gauges.GaugeSampler` when tracing, so every signal
  the controller acted on is also on the counter tracks);
* **admission shed rate** — the rejection-count delta over the window;
* **brownout counters** — the ``health`` snapshot section, read from the
  device's brownout fields the chain supervisor keeps current.

Readers are pure observers: taking a reading never advances simulation
time and never mutates the observed structures (a reader's latency
window is its own).
"""

from repro.core.metrics import device_snapshot
from repro.sim.stats import percentile


class SignalReader:
    """Windowed health signals for one :class:`~repro.cluster.fleet.FleetNode`."""

    def __init__(self, node, sampler=None):
        self.node = node
        self.sampler = sampler  # GaugeSampler when tracing is on
        self._windows = node.database.stats.latency_windows
        self._windows[self] = []
        self._last_rejections = 0
        self.readings = 0

    def read(self):
        """One poll's worth of signals as a flat dict (no time passes)."""
        node = self.node
        if self.sampler is not None:
            snapshot = self.sampler.sample()
        else:
            snapshot = device_snapshot(node.device)

        window = self._windows[self]
        self._windows[self] = []
        p99 = percentile(window, 0.99) if window else None

        rejections = node.admission.rejections
        shed = rejections - self._last_rejections
        self._last_rejections = rejections

        ring = snapshot["fast_side"]["ring"]
        log_manager = node.database.log_manager

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
        }
