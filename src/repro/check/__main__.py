"""CLI for the crash-consistency checker.

Examples::

    python -m repro.check --scenario chain --budget 500
    python -m repro.check --scenario multiwriter --budget 200 --seed 7
    python -m repro.check --scenario local --exhaustive
    python -m repro.check --scenario fleet --budget 30
    python -m repro.check --scenario slo --seeded-bug --budget 8
    python -m repro.check --replay reproducers/chain-combo-2500000ns-seed0.json

Exit status 0 when every schedule passes (or a replayed reproducer no
longer fails), 1 on violations, 2 on a usage error — including a flag
the selected scenario's config does not take.
"""

import argparse
import json
import sys
from dataclasses import fields

from repro.check.runner import TIERS, run_check
from repro.check.shrink import replay_reproducer

# Flags that set the config field of the same name.  They default to
# None so that an unset flag leaves the tier's own default in force.
CONFIG_FLAGS = ("seed", "secondaries", "supervised", "nodes", "transactions")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Crash-consistency model checker for the X-SSD stack.",
    )
    parser.add_argument("--scenario", choices=tuple(TIERS), default="chain",
                        help="tier to check (default: chain; the tiers "
                             "are described in CHECKING.md)")
    parser.add_argument("--budget", type=int, default=200,
                        help="max schedules to run (default: 200)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed for workload and combo faults")
    parser.add_argument("--exhaustive", action="store_true",
                        help="run every enumerated schedule, ignoring "
                             "--budget (bounded-exhaustive mode)")
    parser.add_argument("--secondaries", type=int, default=None,
                        help="chain length behind the primary (chain)")
    parser.add_argument("--supervised", action="store_true", default=None,
                        help="attach chain supervisors and disable the "
                             "injector's auto-splice: every reconfiguration "
                             "is the control plane's (chain, fleet; adds "
                             "the supervised-failover family on chain)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="fleet size (fleet, dr, slo)")
    parser.add_argument("--seeded-bug", action="store_true", default=None,
                        help="arm the tier's seeded mutation (fleet: early "
                             "cutover; dr: dropped segment; slo: shed acked "
                             "commits) and expect failures")
    parser.add_argument("--transactions", type=int, default=None,
                        help="workload transactions (per shard on the "
                             "fleet tiers)")
    parser.add_argument("--out-dir", default="reproducers",
                        help="directory for shrunk reproducer dumps "
                             "(default: reproducers/)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full report as JSON")
    parser.add_argument("--replay", metavar="PATH", default=None,
                        help="re-run a dumped reproducer instead of checking")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    return parser


def build_config(parser, args):
    """The selected tier's config from the flags the user actually set."""
    tier = TIERS[args.scenario]
    known = {field.name for field in fields(tier.config)}
    values = {"scenario": args.scenario}
    for name in CONFIG_FLAGS:
        value = vars(args)[name]
        if value is None:
            continue
        if name not in known:
            parser.error(f"--{name} does not apply to --scenario "
                         f"{args.scenario}")
        values[name] = value
    if args.seeded_bug:
        if tier.seeded_bug is None:
            parser.error(f"--scenario {args.scenario} has no seeded "
                         f"mutation for --seeded-bug")
        values[tier.seeded_bug] = True
    try:
        return tier.config(**values)
    except ValueError as error:
        parser.error(str(error))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    emit = (lambda message: None) if args.quiet else print

    if args.replay is not None:
        outcome = replay_reproducer(args.replay)
        if outcome.ok:
            emit(f"reproducer {args.replay}: no longer fails")
            return 0
        emit(f"reproducer {args.replay}: still failing")
        for violation in outcome.flat_violations():
            emit(f"  {violation}")
        return 1

    config = build_config(parser, args)
    report = run_check(config, budget=args.budget, exhaustive=args.exhaustive,
                       out_dir=args.out_dir, log=emit)

    families = ", ".join(
        f"{family}:{count}"
        for family, count in report.family_histogram().items()
    )
    emit(f"scenario={config.scenario} seed={config.seed}: "
         f"{len(report.schedules)} schedules run "
         f"({report.distinct_schedules} distinct; {families})")
    if report.ok:
        emit("all schedules passed: recovered state matched the reference "
             "model everywhere")
    else:
        emit(f"{len(report.failures)} schedules FAILED")
        for entry in report.reproducers:
            where = entry.get("path", "<no dump>")
            emit(f"  minimal reproducer ({entry['fault_events']} fault "
                 f"events after {entry['shrink_trials']} shrink trials): "
                 f"{where}")
            for violation in entry["violations"][:5]:
                emit(f"    {violation}")
    if args.json is not None:
        with open(args.json, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        emit(f"report written to {args.json}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
