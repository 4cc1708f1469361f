"""The one checker driver: probe → enumerate → run → shrink → dump.

:data:`TIERS` maps each ``scenario`` name — carried by every config and
so by every reproducer — to its tier: config class, probe, family
enumerator, executor and the config field arming its seeded mutation.
"""

from collections import Counter, namedtuple
from dataclasses import dataclass

from repro.check import chain, dr, fleet, slo
from repro.check.schedules import CrashSchedule
from repro.check.shrink import shrink_schedule, write_reproducer

TRACE_TAIL_LINES = 80

Tier = namedtuple("Tier", "config probe enumerate execute seeded_bug")

_CHAIN = Tier(chain.CheckConfig, chain.probe_chain_candidates,
              chain.enumerate_chain_schedules, chain.execute_chain_schedule,
              None)
TIERS = {
    "local": _CHAIN,
    "chain": _CHAIN,
    "multiwriter": _CHAIN,
    "fleet": Tier(fleet.FleetCheckConfig, fleet.probe_fleet_candidates,
                  fleet.enumerate_fleet_schedules,
                  fleet.execute_fleet_schedule, "early_cutover"),
    "dr": Tier(dr.DrCheckConfig, dr.probe_dr_candidates,
               dr.enumerate_dr_schedules, dr.execute_dr_schedule,
               "drop_segment"),
    "slo": Tier(slo.SloCheckConfig, slo.probe_slo_candidates,
                slo.enumerate_slo_schedules, slo.execute_slo_schedule,
                "seed_shed_acked_bug"),
}


def config_from_dict(data):
    """Rebuild any tier's config from its ``as_dict()`` form."""
    return TIERS[data["scenario"]].config(**data)


def enumerate_schedules(config, candidates):
    """Every schedule of ``config``'s tier over the probed candidates."""
    if not candidates:
        return []
    return TIERS[config.scenario].enumerate(config, candidates)


@dataclass
class Outcome:
    """One schedule's verdict: violations per oracle plus run stats."""

    schedule: CrashSchedule
    violations: dict
    stats: dict
    trace_tail: list = None

    @property
    def ok(self):
        return all(not entries for entries in self.violations.values())

    def flat_violations(self):
        return [
            entry for _name, entries in sorted(self.violations.items())
            for entry in entries
        ]

    def failed_oracles(self):
        """Oracle name -> violations, for the oracles that fired."""
        return {
            name: list(entries)
            for name, entries in sorted(self.violations.items()) if entries
        }

    def as_dict(self):
        payload = {
            "schedule": self.schedule.as_dict(),
            "violations": self.failed_oracles(),
            "stats": self.stats,
            "ok": self.ok,
        }
        if self.trace_tail is not None:
            payload["trace_tail"] = list(self.trace_tail)
        return payload


def run_schedule(config, schedule, with_trace=False):
    """Execute one schedule; optionally capture a trace tail for dumps."""
    if with_trace:
        from repro.obs import capture

        with capture() as session:
            outcome = run_schedule(config, schedule)
        outcome.trace_tail = session.tail(TRACE_TAIL_LINES)
        return outcome
    execute = TIERS[config.scenario].execute
    violations = {}
    stats = {"family": schedule.family, "end_time_ns": schedule.end_time_ns}
    try:
        execute(config, schedule, violations, stats)
    except Exception as error:  # noqa: BLE001 — a harness crash IS a finding
        violations.setdefault("harness", []).append(
            f"harness: {config.scenario} schedule execution raised {error!r}"
        )
    return Outcome(schedule, violations, stats)


@dataclass
class CheckReport:
    """The checker's aggregate result over one budget of schedules."""

    config: object
    schedules: list
    outcomes: list
    failures: list
    reproducers: list
    enumerated: int

    @property
    def ok(self):
        return not self.failures

    @property
    def distinct_schedules(self):
        return len({schedule.key() for schedule in self.schedules})

    def family_histogram(self):
        counts = Counter(schedule.family for schedule in self.schedules)
        return dict(sorted(counts.items()))

    def as_dict(self):
        return {
            "config": self.config.as_dict(),
            "schedules_enumerated": self.enumerated,
            "schedules_run": len(self.schedules),
            "distinct_schedules": self.distinct_schedules,
            "families": self.family_histogram(),
            "failures": len(self.failures),
            "failing": [outcome.as_dict() for outcome in self.failures[:10]],
            "reproducers": self.reproducers,
            "ok": self.ok,
        }


def run_check(config, budget=200, exhaustive=False, out_dir=None,
              max_reproducers=3, log=None):
    """Probe, enumerate, run, and (on failure) shrink + dump reproducers."""
    emit = log or (lambda message: None)
    candidates = TIERS[config.scenario].probe(config)
    schedules = enumerate_schedules(config, candidates)
    selected = schedules if exhaustive else schedules[:budget]
    emit(f"probed {len(candidates)} crash points; enumerated "
         f"{len(schedules)} schedules; running {len(selected)}")
    outcomes = []
    failures = []
    for index, schedule in enumerate(selected):
        outcome = run_schedule(config, schedule)
        outcomes.append(outcome)
        if not outcome.ok:
            failures.append(outcome)
        if (index + 1) % 25 == 0:
            emit(f"  {index + 1}/{len(selected)} schedules run "
                 f"({len(failures)} failing)")
    reproducers = []
    for outcome in failures[:max_reproducers]:
        minimal, trials = shrink_schedule(
            outcome.schedule,
            lambda trial: not run_schedule(config, trial).ok,
        )
        final = run_schedule(config, minimal, with_trace=True)
        entry = {
            "family": minimal.family,
            "fault_events": len(minimal.plan),
            "shrink_trials": trials,
            "violations": (final.flat_violations()
                           or outcome.flat_violations()),
        }
        if out_dir is not None:
            path = write_reproducer(out_dir, config, final)
            entry["path"] = str(path)
            emit(f"reproducer written: {path}")
        reproducers.append(entry)
    return CheckReport(config, selected, outcomes, failures, reproducers,
                       enumerated=len(schedules))
