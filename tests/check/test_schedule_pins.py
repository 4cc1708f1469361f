"""Pins every tier's enumerated schedule list: count and content hash.

Schedules are the checker's unit of coverage, so a refactor of the
probe/enumerate path must reproduce them exactly — same families, same
crash points, same fault plans, same round-robin order.  Each case
probes a default config, enumerates, and hashes the canonical JSON of
the whole list.
"""

import hashlib
import json

import pytest

from repro.check import (
    CheckConfig,
    DrCheckConfig,
    FleetCheckConfig,
    SloCheckConfig,
    crash_candidates,
    enumerate_dr_schedules,
    enumerate_fleet_schedules,
    enumerate_schedules,
    enumerate_slo_schedules,
    probe_dr_candidates,
    probe_fleet_candidates,
    probe_slo_candidates,
    probe_transitions,
)


def _chain_schedules(config):
    return enumerate_schedules(
        config, crash_candidates(probe_transitions(config))
    )


def _tier_schedules(probe, enumerate_):
    def schedules(config):
        return enumerate_(config, probe(config))
    return schedules


PINS = [
    ("local", lambda: CheckConfig(scenario="local"), _chain_schedules,
     313, "ab9b0b1c420b91d0"),
    ("chain", lambda: CheckConfig(scenario="chain"), _chain_schedules,
     2275, "2369bd416d483363"),
    ("multiwriter", lambda: CheckConfig(scenario="multiwriter"),
     _chain_schedules, 157, "e81c1db979cf4b66"),
    ("chain-supervised",
     lambda: CheckConfig(scenario="chain", supervised=True),
     _chain_schedules, 2599, "119d126245eab40c"),
    ("fleet", FleetCheckConfig,
     _tier_schedules(probe_fleet_candidates, enumerate_fleet_schedules),
     19, "1325ad5cbeebb03d"),
    ("dr", DrCheckConfig,
     _tier_schedules(probe_dr_candidates, enumerate_dr_schedules),
     24, "e6f70e8d751bd796"),
    ("slo", SloCheckConfig,
     _tier_schedules(probe_slo_candidates, enumerate_slo_schedules),
     36, "b08c86380e95f2b5"),
]


@pytest.mark.parametrize(
    "make_config, schedules_of, count, digest",
    [pin[1:] for pin in PINS],
    ids=[pin[0] for pin in PINS],
)
def test_enumerated_schedules_are_pinned(make_config, schedules_of, count,
                                         digest):
    schedules = schedules_of(make_config())
    canonical = json.dumps([s.as_dict() for s in schedules],
                           sort_keys=True, separators=(",", ":"))
    assert len(schedules) == count
    assert hashlib.sha256(canonical.encode()).hexdigest()[:16] == digest
