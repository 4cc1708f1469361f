"""The SLO control plane: signals -> bounded actuators -> proof.

ROADMAP item 4's closed loop.  The pieces:

* :mod:`repro.slo.signals` — :class:`SignalReader`, condensing one
  node's gauge snapshot, windowed commit-latency p99, shed rate, and
  supervisor counters into a flat dict per poll;
* :mod:`repro.slo.controller` — :class:`SloController`, walking each
  fleet node up and down a four-rung escalation ladder (group-commit
  thresholds, destage priority, admission shedding, replication policy)
  with hysteresis, typed audit events, and a durability fence proving no
  actuation touches acked work.

Driven by the diurnal traffic model in :mod:`repro.workloads.diurnal`,
benchmarked by ``python -m repro.bench slo``, and checked by
``python -m repro.check --scenario slo``.  See SLO.md for the full tour.
"""

from repro.slo.controller import MAX_LEVEL, SloController
from repro.slo.signals import SignalReader

__all__ = [
    "MAX_LEVEL",
    "SloController",
    "SignalReader",
]
