"""Fleet-tier crash schedules: migration under crash, partition, failover.

The single-chain checker asks "does one node keep its durability
promise?".  This family asks the fleet-tier question: **does a shard
migration ever lose an acknowledged transaction?**  Every schedule runs
a small multi-node fleet (one replication chain per node, multiple
shards per node) with one shard migrating mid-run, then cuts power to
*every* node's primary and audits the wreckage:

* ``fleet-cutover-crash`` — no perturbations; the terminal crash lands
  at candidate times spanning the migration's phases (probed from a
  fault-free run's :meth:`~repro.cluster.rebalance.ShardMigration.events`):
  before the copy, mid-copy, during drain and catchup, right at
  cutover, and after.
* ``fleet-partition`` — the destination node's NTB bridge severs and
  heals while the migration's replay traffic crosses it.
* ``fleet-failover`` — the destination chain loses a secondary
  mid-migration; the chain reconfigures (injector splice, or the node's
  :class:`~repro.health.supervisor.ChainSupervisor` when ``supervised``)
  while replayed transactions keep committing.

Every shard is judged on its *owner at crash time* (the fleet directory
— after cutover that is the destination chain) by
:func:`~repro.check.harness.judge_shards`; the acked-durability oracle
is the one that catches the seeded ``early_cutover`` bug even when later
overwrites happen to make the folded *state* look like a full prefix.
"""

from dataclasses import asdict, dataclass

from repro.check.harness import (
    FLEET_HEAVY_STRIDE,
    crash_fleet,
    inject_node_faults,
    judge_shards,
    start_fleet,
    start_writers,
)
from repro.check.points import bracket_events
from repro.check.schedules import family, interleave
from repro.faults.plan import FaultKind

FLEET_FAMILIES = ("fleet-cutover-crash", "fleet-partition", "fleet-failover")


@dataclass
class FleetCheckConfig:
    """The fleet checker scenario's knobs (``scenario`` is always "fleet").

    A deliberately tiny fleet — two nodes, two shards each, a dozen
    transactions per shard — so one schedule runs in tens of
    milliseconds.  ``early_cutover`` seeds the ack-ordering bug in
    :class:`~repro.cluster.rebalance.ShardMigration`; it exists so the
    mutation tests (and ``--scenario fleet --seeded-bug``) can prove the
    family actually catches what it claims to.
    """

    scenario: str = "fleet"
    seed: int = 0
    nodes: int = 2
    replicas: int = 1
    shards_per_node: int = 2
    transactions: int = 12
    key_space: int = 5
    group_commit_bytes: int = 384
    group_commit_timeout_ns: float = 5_000.0
    think_ns: float = 12_000.0
    migrate_at_ns: float = 250_000.0
    duration_ns: float = 2_500_000.0
    copy_rounds: int = 1
    round_wait_ns: float = 100_000.0
    heal_delay_ns: float = 300_000.0
    grace_ns: float = 400_000.0
    supervised: bool = False
    early_cutover: bool = False

    as_dict = asdict

    def __post_init__(self):
        if self.scenario != "fleet":
            raise ValueError(f"not a fleet config: scenario={self.scenario!r}")
        if self.nodes < 2:
            raise ValueError("the fleet scenario needs at least two nodes")
        if self.shards_per_node < 1:
            raise ValueError("need at least one shard per node")
        for name in ("think_ns", "migrate_at_ns", "duration_ns",
                     "round_wait_ns", "heal_delay_ns", "grace_ns"):
            setattr(self, name, float(getattr(self, name)))

    migrate_shard = "s0"  # placed on node0 by the round-robin layout
    dest = "node1"


def _build(config):
    run = start_fleet(config, supervise=config.supervised)
    start_writers(config, run, think_ns=config.think_ns)
    run.migration = None
    run.engine.process(_migrate_later(config, run), name="fleet-migrate")
    return run


def _migrate_later(config, run):
    yield run.engine.timeout(config.migrate_at_ns)
    run.migration = run.fleet.migrate(
        config.migrate_shard, config.dest,
        copy_rounds=config.copy_rounds,
        round_wait_ns=config.round_wait_ns,
        early_cutover=config.early_cutover,
    )
    try:
        yield run.migration.process
    except BaseException:  # noqa: BLE001 — the autopsy judges the aftermath
        pass


def probe_fleet_candidates(config):
    """Fault-free run → candidates bracketing the migration's phases."""
    run = _build(config)
    run.engine.run(until=run.horizon)
    migration = run.migration
    events = []
    extra = []
    if migration is not None:
        events = [(event["time_ns"], event["phase"])
                  for event in migration.events]
        if migration.done:
            done_ns = events[-1][0]
            extra.append((min(done_ns + 300_000.0, run.horizon),
                          "post-cutover"))
    return bracket_events(
        (run.start_ns + config.migrate_at_ns / 2, "pre-copy"),
        events, run.horizon, extra=extra,
    )


def enumerate_fleet_schedules(config, candidates):
    """Every fleet schedule over the probed candidates, round-robin mixed."""
    horizon = max(time_ns for time_ns, _label in candidates)
    heavy = candidates[::FLEET_HEAVY_STRIDE] or candidates[:1]
    bridge = f"{config.dest}.bridge-0"
    secondary = f"{config.dest}.secondary-1"
    return interleave([
        family("fleet-cutover-crash", candidates, "fleet"),
        family("fleet-partition", heavy, bridge, horizon,
               [(0, FaultKind.LINK_DOWN),
                (config.heal_delay_ns, FaultKind.LINK_UP)]),
        family("fleet-failover", heavy, secondary, horizon,
               [(0, FaultKind.REPLICA_CRASH)]),
    ])


def execute_fleet_schedule(config, schedule, violations, stats):
    run = _build(config)
    inject_node_faults(run, schedule.plan, config.grace_ns,
                       auto_reconfigure=not config.supervised)
    run.engine.run(until=max(schedule.end_time_ns, run.engine.now + 1.0))

    # Freeze the control plane before the terminal crash: no supervisor
    # may react to the power loss we inject for the autopsy.
    for node in run.fleet.nodes.values():
        if node.supervisor is not None:
            node.supervisor.stop()
    crash = crash_fleet(run)
    migration = run.migration
    judge_shards(
        run, crash, violations, stats, migrated=config.migrate_shard,
        topped_up=migration is not None and migration.topped_up_keys > 0,
    )
    if migration is None:
        stats.update(migration_phase=None, migration_replayed=0,
                     migration_topped_up=0)
    else:
        stats.update(migration_phase=migration.phase,
                     migration_replayed=migration.replayed_txns,
                     migration_topped_up=migration.topped_up_keys)
