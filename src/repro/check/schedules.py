"""Crash schedules: the checker's unit of work, shared by every tier.

A :class:`CrashSchedule` is one experiment: run the scenario with a
:class:`~repro.faults.plan.FaultPlan` of perturbations, then cut the
primary's power at ``end_time_ns``.  The primary crash is implicit — it
is the one fault every schedule shares, so the shrinker can never remove
it — and ``end_time_ns`` is chosen from the probe's transition points so
the crash lands exactly at (or exactly between) pipeline stages.
"""

from repro.faults.plan import FaultPlan, FaultSpec


class CrashSchedule:
    """One enumerated experiment: perturbations + a primary crash time."""

    __slots__ = ("family", "stage", "site", "end_time_ns", "plan")

    def __init__(self, family, stage, site, end_time_ns, plan=None):
        self.family = family
        self.stage = stage
        self.site = site
        self.end_time_ns = float(end_time_ns)
        self.plan = plan if plan is not None else FaultPlan()

    def key(self):
        """Hashable identity: two schedules with equal keys run identically."""
        return (
            self.family,
            self.site,
            round(self.end_time_ns, 3),
            tuple(
                (spec.kind.value, spec.site, round(spec.time_ns, 3))
                for spec in self.plan
            ),
        )

    def with_plan(self, plan):
        return CrashSchedule(self.family, self.stage, self.site,
                             self.end_time_ns, plan)

    def as_dict(self):
        payload = {
            "family": self.family,
            "stage": self.stage,
            "site": self.site,
            "end_time_ns": self.end_time_ns,
            "faults": self.plan.as_dicts(),
        }
        if self.plan.excluded:
            payload["excluded"] = [
                spec.as_dict() for spec in self.plan.excluded
            ]
        return payload

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["family"], data["stage"], data["site"], data["end_time_ns"],
            FaultPlan.from_dicts(data["faults"], data.get("excluded", ())),
        )

    def __repr__(self):
        return (f"CrashSchedule({self.family} @ {self.end_time_ns:.0f}ns, "
                f"{len(self.plan)} faults)")




def family(name, points, site, end_ns=None, steps=()):
    """One schedule per ``(time_ns, label)`` point of ``points``.

    ``steps`` are ``(delay_ns, kind[, params])`` faults at ``site``,
    timed relative to the point; the terminal crash lands at ``end_ns``,
    or at the point itself when ``end_ns`` is None.
    """
    return [
        CrashSchedule(
            name, label, site, time_ns if end_ns is None else end_ns,
            FaultPlan([
                FaultSpec(time_ns + delay_ns, site, kind, *params)
                for delay_ns, kind, *params in steps
            ]),
        )
        for time_ns, label in points
    ]


def interleave(families):
    """Round-robin merge of per-family schedule lists, deduplicated by key.

    A small ``--budget`` thus still samples every family, while
    bounded-exhaustive mode runs the whole list.
    """
    interleaved = []
    seen = set()
    cursor = 0
    while any(cursor < len(family) for family in families):
        for family in families:
            if cursor < len(family):
                schedule = family[cursor]
                key = schedule.key()
                if key not in seen:
                    seen.add(key)
                    interleaved.append(schedule)
        cursor += 1
    return interleaved
