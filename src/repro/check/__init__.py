"""Crash-consistency model checking: enumerate, replay, diff, shrink.

The chaos suite (``repro.faults``) samples random fault plans; this
package *enumerates* crash schedules — one power loss plus optional
perturbations at every transition a fault-free probe run observes — and
diffs each schedule's post-crash recovery against
:class:`~repro.check.model.ReferenceModel`, a ~150-line executable spec
of the paper's durability and prefix-replication guarantees.  Failing
schedules are greedily shrunk to a minimal re-runnable reproducer.

Entry point: ``python -m repro.check --scenario
{local,chain,multiwriter,fleet,dr,slo} --budget N [--exhaustive]``; one
driver (:mod:`repro.check.runner`) serves every tier.  See CHECKING.md.
"""

from repro.check.chain import CheckConfig, probe_transitions
from repro.check.dr import (
    DR_FAMILIES,
    DrCheckConfig,
    enumerate_dr_schedules,
    probe_dr_candidates,
)
from repro.check.fleet import (
    FLEET_FAMILIES,
    FleetCheckConfig,
    enumerate_fleet_schedules,
    probe_fleet_candidates,
)
from repro.check.model import ReferenceModel, chain_frontier_violations
from repro.check.points import STAGES, crash_candidates, extract_transitions
from repro.check.runner import (
    CheckReport,
    Outcome,
    config_from_dict,
    enumerate_schedules,
    run_check,
    run_schedule,
)
from repro.check.schedules import CrashSchedule
from repro.check.shrink import (
    replay_reproducer,
    shrink_schedule,
    write_reproducer,
)
from repro.check.slo import (
    SLO_FAMILIES,
    SloCheckConfig,
    enumerate_slo_schedules,
    probe_slo_candidates,
)

__all__ = [
    "ReferenceModel",
    "chain_frontier_violations",
    "STAGES",
    "extract_transitions",
    "crash_candidates",
    "CheckConfig",
    "CheckReport",
    "Outcome",
    "config_from_dict",
    "probe_transitions",
    "enumerate_schedules",
    "run_check",
    "run_schedule",
    "DR_FAMILIES",
    "DrCheckConfig",
    "enumerate_dr_schedules",
    "probe_dr_candidates",
    "FLEET_FAMILIES",
    "FleetCheckConfig",
    "enumerate_fleet_schedules",
    "probe_fleet_candidates",
    "SLO_FAMILIES",
    "SloCheckConfig",
    "enumerate_slo_schedules",
    "probe_slo_candidates",
    "CrashSchedule",
    "shrink_schedule",
    "write_reproducer",
    "replay_reproducer",
]
