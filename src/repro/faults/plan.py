"""Fault schedules: what goes wrong, where, and when.

A :class:`FaultPlan` is a time-ordered list of :class:`FaultSpec`
entries.  Plans are plain data — JSON round-trippable so a chaos run can
be replayed from a file (``python -m repro.bench chaos --faults
plan.json``) and diffed across runs for the determinism regression.

Sites are symbolic names resolved by the injector at apply time:

* server faults (``replica-crash``, ``supercap-fail``, ``cmb-torn-write``,
  ``nand-program-fail``, ``nand-read-uncorrectable``) name a server
  (``"primary"``, ``"secondary-1"``, ...);
* link faults (``link-down``, ``link-up``, ``link-corrupt``,
  ``link-latency-spike``) name a bridge by index (``"bridge-0"`` joins the
  first adjacent pair in the chain);
* grid faults (``grid-down``, ``grid-up``, ``grid-torn-upload``) name the
  remote archive grid (``"grid"``) and are resolved by the DR harness's
  :class:`~repro.dr.grid.GridFaultDriver` rather than the chain injector.
"""

import enum
import json
import os

from repro.sim.rng import derive


class FaultKind(enum.Enum):
    """Every injectable fault, one per hook point in the device layers."""

    NAND_PROGRAM_FAIL = "nand-program-fail"
    NAND_READ_UNCORRECTABLE = "nand-read-uncorrectable"
    LINK_DOWN = "link-down"
    LINK_UP = "link-up"
    LINK_CORRUPT = "link-corrupt"
    LINK_LATENCY_SPIKE = "link-latency-spike"
    REPLICA_CRASH = "replica-crash"
    REPLICA_REJOIN = "replica-rejoin"
    SUPERCAP_FAIL = "supercap-fail"
    CMB_TORN_WRITE = "cmb-torn-write"
    GRID_DOWN = "grid-down"
    GRID_UP = "grid-up"
    GRID_TORN_UPLOAD = "grid-torn-upload"


# Kinds whose site is a server name (the rest target a bridge).
SERVER_SITED_KINDS = frozenset({
    FaultKind.NAND_PROGRAM_FAIL,
    FaultKind.NAND_READ_UNCORRECTABLE,
    FaultKind.REPLICA_CRASH,
    FaultKind.REPLICA_REJOIN,
    FaultKind.SUPERCAP_FAIL,
    FaultKind.CMB_TORN_WRITE,
})

# Kinds whose site is the remote archive grid ("grid").  The chain
# injector never sees these: the DR checker splits its plan and routes
# them to a GridFaultDriver (see repro/dr/grid.py).
GRID_SITED_KINDS = frozenset({
    FaultKind.GRID_DOWN,
    FaultKind.GRID_UP,
    FaultKind.GRID_TORN_UPLOAD,
})


class FaultSpec:
    """One scheduled fault: ``(time_ns, site, kind, params)``."""

    __slots__ = ("time_ns", "site", "kind", "params")

    def __init__(self, time_ns, site, kind, params=None):
        if time_ns < 0:
            raise ValueError(f"fault time must be >= 0, got {time_ns}")
        if not isinstance(kind, FaultKind):
            kind = FaultKind(kind)
        self.time_ns = float(time_ns)
        self.site = site
        self.kind = kind
        self.params = dict(params or {})

    def as_dict(self):
        payload = {
            "time_ns": self.time_ns,
            "site": self.site,
            "kind": self.kind.value,
        }
        if self.params:
            payload["params"] = self.params
        return payload

    @classmethod
    def from_dict(cls, data):
        return cls(data["time_ns"], data["site"], FaultKind(data["kind"]),
                   data.get("params"))

    def __repr__(self):
        return (f"FaultSpec(t={self.time_ns:.0f}ns, site={self.site!r}, "
                f"kind={self.kind.value})")


def _canonical_key(spec):
    """Total order over specs: time, then site, then kind, then params.

    Sorting by time alone leaves same-instant entries in insertion order,
    so two plans with identical content could serialize differently
    depending on construction history.  The full key makes the ordering —
    and therefore the JSON text — a function of the plan's *content*.
    """
    return (
        spec.time_ns,
        str(spec.site),
        spec.kind.value,
        sorted((str(k), str(v)) for k, v in spec.params.items()),
    )


class FaultPlan:
    """A deterministic, time-ordered fault schedule.

    ``excluded`` carries specs a shrinking pass removed from the active
    schedule: a minimal reproducer stays self-describing (what was tried
    and found irrelevant) without those faults ever being injected.
    Both lists are kept in canonical order so equal plans serialize to
    identical bytes.
    """

    def __init__(self, specs=(), excluded=()):
        self.specs = sorted(
            (spec if isinstance(spec, FaultSpec) else FaultSpec(**spec)
             for spec in specs),
            key=_canonical_key,
        )
        self.excluded = sorted(
            (spec if isinstance(spec, FaultSpec) else FaultSpec(**spec)
             for spec in excluded),
            key=_canonical_key,
        )

    def __iter__(self):
        return iter(self.specs)

    def __len__(self):
        return len(self.specs)

    def add(self, time_ns, site, kind, **params):
        """Append one fault, keeping the schedule canonically sorted."""
        self.specs.append(FaultSpec(time_ns, site, kind, params))
        self.specs.sort(key=_canonical_key)
        return self

    def without(self, index):
        """A new plan with spec ``index`` moved to the excluded list.

        The shrinker's primitive: the dropped fault is remembered, not
        forgotten, so a shrunk reproducer records what was ruled out.
        """
        specs = list(self.specs)
        dropped = specs.pop(index)
        return FaultPlan(specs, excluded=list(self.excluded) + [dropped])

    def kinds(self):
        """The distinct fault kinds this plan injects."""
        return {spec.kind for spec in self.specs}

    def later_specs(self, after_time_ns, kind=None, site=None):
        """Entries strictly after ``after_time_ns``, optionally filtered."""
        return [
            spec for spec in self.specs
            if spec.time_ns > after_time_ns
            and (kind is None or spec.kind is kind)
            and (site is None or spec.site == site)
        ]

    # -- serialization ------------------------------------------------------------

    def as_dicts(self):
        return [spec.as_dict() for spec in self.specs]

    def to_json(self, path=None):
        """Canonical JSON: sorted keys, canonical spec order, trailing \\n.

        Byte-stable: two plans with the same content produce identical
        text regardless of how they were built, so shrunk reproducers can
        be diffed (and deduplicated) across runs.
        """
        payload = {"faults": self.as_dicts()}
        if self.excluded:
            payload["excluded"] = [spec.as_dict() for spec in self.excluded]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text

    @classmethod
    def from_dicts(cls, dicts, excluded=()):
        return cls(
            (FaultSpec.from_dict(entry) for entry in dicts),
            excluded=(FaultSpec.from_dict(entry) for entry in excluded),
        )

    @classmethod
    def load(cls, source):
        """Load a plan from a JSON string or the path of a JSON file.

        Accepts what :meth:`to_json` writes (``{"faults": [...]}`` with an
        optional ``"excluded"`` list), ``{"plan": [...]}``, or a bare list
        of hand-written ``{"time_ns", "site", "kind"}`` dicts.  The
        ``--faults`` flag of ``python -m repro.bench chaos`` reads its
        file through here.
        """
        text = os.fspath(source)
        if not text.lstrip().startswith(("{", "[")):
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        data = json.loads(text)
        if isinstance(data, list):
            return cls.from_dicts(data)
        if "faults" in data:
            return cls.from_dicts(data["faults"], data.get("excluded", ()))
        return cls.from_dicts(data["plan"])

    # -- seeded generation ----------------------------------------------------------

    @classmethod
    def random(cls, seed, duration_ns, secondary_names, bridge_count,
               events=6, include_kinds=None):
        """Draw a deterministic plan from ``seed``.

        Faults land inside ``[0.05, 0.75] * duration_ns`` so the tail of
        the run always has room for healing (link restore, rejoin,
        resync).  Server-sited faults target secondaries (crashing the
        primary mid-run would end the workload, which the scenario
        handles as its own final step).  ``LINK_DOWN`` always schedules a
        matching ``LINK_UP``; ``REPLICA_CRASH`` is followed by a
        ``REPLICA_REJOIN`` with probability 1/2 (otherwise the chain must
        reconfigure around the dead server).
        """
        rng = derive(seed, "fault-plan")
        kinds = list(include_kinds or (
            FaultKind.NAND_PROGRAM_FAIL,
            FaultKind.NAND_READ_UNCORRECTABLE,
            FaultKind.LINK_DOWN,
            FaultKind.LINK_CORRUPT,
            FaultKind.LINK_LATENCY_SPIKE,
            FaultKind.REPLICA_CRASH,
            FaultKind.SUPERCAP_FAIL,
            FaultKind.CMB_TORN_WRITE,
        ))
        plan = cls()
        crashed = set()
        for _ in range(events):
            kind = rng.choice(kinds)
            at = rng.uniform(0.05, 0.75) * duration_ns
            if kind in SERVER_SITED_KINDS:
                if not secondary_names:
                    continue
                site = rng.choice(secondary_names)
            else:
                site = f"bridge-{rng.randrange(bridge_count)}"
            if kind is FaultKind.LINK_DOWN:
                plan.add(at, site, kind)
                up_at = at + rng.uniform(0.02, 0.10) * duration_ns
                plan.add(up_at, site, FaultKind.LINK_UP)
            elif kind is FaultKind.LINK_CORRUPT:
                plan.add(at, site, kind, count=rng.randint(1, 3))
            elif kind is FaultKind.LINK_LATENCY_SPIKE:
                plan.add(at, site, kind,
                         extra_ns=rng.uniform(5_000.0, 50_000.0),
                         duration_ns=rng.uniform(0.02, 0.10) * duration_ns)
            elif kind is FaultKind.REPLICA_CRASH:
                if site in crashed:
                    continue
                crashed.add(site)
                plan.add(at, site, kind)
                if rng.random() < 0.5:
                    rejoin_at = at + rng.uniform(0.05, 0.15) * duration_ns
                    plan.add(rejoin_at, site, FaultKind.REPLICA_REJOIN)
            elif kind is FaultKind.SUPERCAP_FAIL:
                plan.add(at, site, kind)
            elif kind is FaultKind.NAND_PROGRAM_FAIL:
                plan.add(at, site, kind, count=rng.randint(1, 2))
            elif kind is FaultKind.NAND_READ_UNCORRECTABLE:
                plan.add(at, site, kind, count=1)
            elif kind is FaultKind.CMB_TORN_WRITE:
                plan.add(at, site, kind)
        return plan

    def __repr__(self):
        return f"FaultPlan({len(self.specs)} faults, kinds={sorted(k.value for k in self.kinds())})"
