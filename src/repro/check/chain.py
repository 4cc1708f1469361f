"""The single-chain tiers: ``local``, ``chain`` and ``multiwriter``.

Each schedule gets a fresh engine and cluster (deterministic: same seed →
same build), the scenario's workload, and a
:class:`~repro.faults.injector.ChaosInjector` walking the schedule's
perturbations.  At ``end_time_ns`` the primary suffers power loss; the
destaged log is read back (tolerantly — an unreadable page is itself
evidence), recovery replays it into a fresh database, and every oracle
runs: the reference model's state and commit-prefix diffs, the durable
prefix / FTL / visible-counter oracles from ``repro.faults``, and the
chain-prefix check across the surviving replica order.

Crash points come from a traced probe run (:mod:`repro.check.points`).
Schedule families:

* ``primary-crash`` — plain power loss at each candidate point;
* ``dirty-crash`` — supercap failure then power loss at the same point;
* ``replica-crash`` / ``replica-flap`` — a secondary dies (and maybe
  rejoins/resyncs) mid-run, primary crashes at the end;
* ``supervised-failover`` — with ``supervised``, a secondary dies and
  the :class:`~repro.health.supervisor.ChainSupervisor` alone heals it;
* ``partition`` — an NTB bridge severs and heals, primary crashes at
  the end;
* ``torn-write`` — a torn CMB chunk at the candidate point;
* ``combo`` — seeded bundles of several perturbations, the shrinker's
  natural prey.
"""

import copy
from dataclasses import asdict, dataclass
from types import SimpleNamespace

from repro.check.harness import collect_pages_tolerant, recover_pages
from repro.check.model import ReferenceModel, chain_frontier_violations
from repro.check.points import crash_candidates, extract_transitions
from repro.check.schedules import CrashSchedule, family, interleave
from repro.cluster.server import Server
from repro.cluster.topology import Cluster, replicated_chain
from repro.db.recovery import durable_commit_ids
from repro.db.txn import TransactionAborted
from repro.faults.injector import ChaosInjector
from repro.faults.oracles import (
    StreamRecorder,
    check_durable_prefix,
    check_ftl_integrity,
    check_replica_prefix,
    check_visible_counter_bound,
)
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.scenario import chaos_config_factory
from repro.sim import Engine
from repro.sim.rng import derive

# Heavier families (full-duration runs) take every STRIDE-th candidate so
# primary-crash coverage stays dense without quadratic schedule counts.
HEAVY_STRIDE = 4
COMBO_COUNT = 8
COMBO_EVENTS = 4


@dataclass
class CheckConfig:
    """One single-chain scenario's knobs.

    The devices are deliberately tiny (the chaos geometry) and the
    workload short: a schedule must run in tens of milliseconds of wall
    time for a 500-schedule budget to be routine.  ``max_inflight_flushes``
    stays 1 — with a pipelined flusher, recovered state need not be a
    per-writer commit prefix even when nothing is wrong, and the model's
    prefix oracle would be unsound (see CHECKING.md).
    """

    SCENARIOS = ("local", "chain", "multiwriter")

    scenario: str = "chain"
    seed: int = 0
    secondaries: int = 2
    transactions: int = 24
    duration_ns: float = 2_500_000.0
    key_space: int = 6
    writers: int = 3
    group_commit_bytes: int = 384
    group_commit_timeout_ns: float = 5_000.0
    grace_ns: float = 400_000.0
    heal_delay_ns: float = 300_000.0
    # With a supervisor attached, the injector's own auto-splice is
    # disabled: every reconfiguration in a supervised schedule is the
    # control plane's doing, so the model checks *its* recovery.
    supervised: bool = False

    as_dict = asdict

    def __post_init__(self):
        if self.scenario not in self.SCENARIOS:
            raise ValueError(
                f"scenario must be one of {self.SCENARIOS}, "
                f"got {self.scenario!r}"
            )
        if self.scenario == "chain" and self.secondaries < 1:
            raise ValueError("a chain scenario needs at least one secondary")
        if self.supervised and self.scenario != "chain":
            raise ValueError("supervised checking needs the chain scenario")
        self.secondaries = self.secondaries if self.scenario == "chain" else 0
        self.writers = self.writers if self.scenario == "multiwriter" else 1
        self.duration_ns = float(self.duration_ns)


def _build(config, plan=()):
    """A fresh cluster with ``plan``'s injector and the writers started."""
    engine = Engine()
    factory = chaos_config_factory(config.seed)
    if config.scenario == "chain":
        cluster = replicated_chain(engine, factory,
                                   secondaries=config.secondaries)
    else:
        server = Server(engine, "primary", factory()).start()
        server.become_standalone()
        cluster = Cluster(engine, [server], [], primary_name="primary")
        engine.run(until=engine.now + 100_000.0)  # let the admin land
    recorders = {
        name: StreamRecorder(server.device, name=name)
        for name, server in cluster.servers.items()
    }
    supervisor = None
    if config.supervised:
        from repro.health.supervisor import ChainSupervisor

        supervisor = ChainSupervisor(engine, cluster)
        supervisor.start()
    database = cluster.primary.with_database(
        group_commit_bytes=config.group_commit_bytes,
        group_commit_timeout_ns=config.group_commit_timeout_ns,
    )
    database.create_table("kv")
    model = ReferenceModel()

    def writer_proc(writer, key_prefix, count, rng):
        for index in range(count):
            txn = database.begin()
            key = f"{key_prefix}{rng.randrange(config.key_space)}"
            value = f"{writer}-v{index}"
            txn.write("kv", key, value)
            model.committed(writer, txn.txn_id, [(key, value)])
            try:
                yield txn.commit()
            except TransactionAborted:
                # Disjoint per-writer key sets make this unreachable in
                # practice, but the model must never count a commit that
                # the database refused.
                model.aborted(writer)
                continue
            model.acknowledged(writer)

    injector = None
    if len(plan):
        injector = ChaosInjector(engine, cluster, plan,
                                 grace_ns=config.grace_ns,
                                 auto_reconfigure=not config.supervised)
        injector.start()
    per_writer = max(1, config.transactions // config.writers)
    for index in range(config.writers):
        writer = f"w{index}"
        prefix = f"{writer}k" if config.writers > 1 else "k"
        rng = derive(config.seed, f"check-writer-{index}")
        engine.process(writer_proc(writer, prefix, per_writer, rng),
                       name=f"check-writer-{index}")
    return SimpleNamespace(engine=engine, cluster=cluster, model=model,
                           recorders=recorders, injector=injector,
                           supervisor=supervisor)


def probe_transitions(config):
    """Fault-free instrumented run → the pipeline's transition points."""
    from repro.obs import capture

    with capture() as session:
        run = _build(config)
        run.engine.run(until=config.duration_ns)
    return extract_transitions(session.tracers)


def probe_chain_candidates(config):
    """Every pipeline transition plus every midpoint between two."""
    return crash_candidates(probe_transitions(config))


def execute_chain_schedule(config, schedule, violations, stats):
    run = _build(config, schedule.plan)
    engine = run.engine
    cluster = run.cluster
    injector = run.injector
    engine.run(until=max(schedule.end_time_ns, engine.now + 1.0))

    if run.supervisor is not None:
        # Freeze the control plane before the terminal crash: the
        # supervisor must not react to the power loss we are about
        # to inject for the autopsy.
        run.supervisor.stop()
    violations["visible-counter"] = check_visible_counter_bound(cluster)
    dirty_sites = {
        spec.site for spec in schedule.plan
        if spec.kind is FaultKind.SUPERCAP_FAIL
    }
    report = cluster.primary.crash()
    if not report.reserve_energy_ok:
        dirty_sites.add("primary")

    # Freeze the model at crash time: page collection steps the engine
    # forward, and surviving writer processes may observe the crash
    # salvage's credit advance and record post-crash acks that the
    # pre-crash client never saw.
    model = copy.deepcopy(run.model)

    pages, page_errors = collect_pages_tolerant(
        engine, cluster.primary.device
    )
    violations["page-read"] = page_errors
    violations["durable-prefix"] = check_durable_prefix(report, pages)

    recovered = dict(recover_pages(pages, ["kv"]).table("kv").scan())
    durable_ids = durable_commit_ids(pages)

    require_acked = report.reserve_energy_ok
    violations["model-state"] = model.diff_recovered(
        recovered, require_acked=require_acked
    )
    violations["model-commit-prefix"] = model.diff_commit_prefix(
        durable_ids, require_acked=require_acked
    )

    if config.scenario == "chain":
        violations["chain-prefix"] = _chain_violations(
            cluster, run.recorders, injector, report, dirty_sites
        )
        for name in (s.name for s in cluster.secondaries()):
            violations[f"replica-prefix:{name}"] = check_replica_prefix(
                run.recorders["primary"], run.recorders[name],
                secondary_credit=_frontier(cluster, injector, name),
            )
    for name, server in cluster.servers.items():
        violations[f"ftl-integrity:{name}"] = check_ftl_integrity(
            server.device
        )

    stats.update({
        "commits_submitted": model.total_committed(),
        "commits_acked": model.total_acked(),
        "durable_commits": len(durable_ids),
        "recovered_keys": len(recovered),
        "pages": len(pages),
        "credit_at_crash": report.credit_at_crash,
        "durable_offset": report.durable_offset,
        "reserve_energy_ok": report.reserve_energy_ok,
    })
    if run.supervisor is not None:
        stats["supervisor_events"] = [
            f"{entry['action']}@{entry['site']}"
            for entry in run.supervisor.events
        ]


def _frontier(cluster, injector, name):
    """A server's contiguous persisted frontier, dead or alive."""
    server = cluster.servers[name]
    if server.device.halted and injector is not None:
        report = injector.crash_reports.get(name)
        if report is not None:
            return report.durable_offset
    return server.device.cmb.credit.value


def _chain_violations(cluster, recorders, injector, primary_report,
                      dirty_sites):
    order = list(cluster.order)
    frontiers = {"primary": primary_report.durable_offset}
    received = {}
    for name in order:
        if name != "primary":
            frontiers[name] = _frontier(cluster, injector, name)
        coverage = recorders[name].coverage()
        received[name] = (
            coverage[0][1] if coverage and coverage[0][0] == 0 else 0
        )
    return chain_frontier_violations(order, frontiers, received, dirty_sites)


def enumerate_chain_schedules(config, candidates):
    """Every chain-tier schedule over the candidates, round-robin mixed."""
    duration = config.duration_ns
    secondaries = [f"secondary-{i}" for i in range(1, config.secondaries + 1)]
    chain = config.scenario == "chain"
    servers = ["primary"] + (secondaries if chain else [])
    heavy = candidates[::HEAVY_STRIDE] or candidates[:1]

    families = [
        family("primary-crash", candidates, "primary"),
        family("dirty-crash", heavy, "primary",
               steps=[(0, FaultKind.SUPERCAP_FAIL)]),
    ]
    if chain:
        for name in secondaries:
            families.append(family("replica-crash", heavy, name, duration,
                                   [(0, FaultKind.REPLICA_CRASH)]))
            families.append(family(
                "replica-flap", heavy, name, duration,
                [(0, FaultKind.REPLICA_CRASH),
                 (config.heal_delay_ns, FaultKind.REPLICA_REJOIN)],
            ))
        if config.supervised:
            # Supervised failover: kill a replica with NO rejoin in the
            # plan and NO injector auto-splice — detection, eviction,
            # reattach and resync are all the supervisor's.  The end
            # time is pushed past the full heal window so the terminal
            # crash lands on a *reconfigured* chain, and the usual
            # prefix/chain oracles judge the state it left behind.
            heal_window = 1_500_000.0
            for name in secondaries:
                families.append([
                    CrashSchedule(
                        "supervised-failover", label, name,
                        max(duration, time_ns + heal_window),
                        FaultPlan([FaultSpec(time_ns, name,
                                             FaultKind.REPLICA_CRASH)]),
                    )
                    for time_ns, label in heavy
                ])
        for index in range(len(secondaries)):
            families.append(family(
                "partition", heavy, f"bridge-{index}", duration,
                [(0, FaultKind.LINK_DOWN),
                 (config.heal_delay_ns, FaultKind.LINK_UP)],
            ))
    for name in servers:
        families.append(family("torn-write", heavy, name, duration,
                               [(0, FaultKind.CMB_TORN_WRITE)]))
    families.append(_combo_family(config, candidates, secondaries))
    return interleave(families)


def _combo_family(config, candidates, secondaries):
    """Seeded multi-fault bundles: several perturbations, one crash."""
    rng = derive(config.seed, "check-combos")
    pool = [("primary", FaultKind.CMB_TORN_WRITE),
            ("primary", FaultKind.NAND_PROGRAM_FAIL)]
    for name in secondaries:
        pool.extend([
            (name, FaultKind.REPLICA_CRASH),
            (name, FaultKind.CMB_TORN_WRITE),
            (name, FaultKind.SUPERCAP_FAIL),
        ])
    for index in range(len(secondaries)):
        pool.append((f"bridge-{index}", FaultKind.LINK_CORRUPT))
        pool.append((f"bridge-{index}", FaultKind.LINK_LATENCY_SPIKE))
    schedules = []
    for combo in range(COMBO_COUNT):
        specs = []
        crashed = set()
        for _ in range(COMBO_EVENTS):
            site, kind = rng.choice(pool)
            time_ns = rng.choice(candidates)[0]
            if kind is FaultKind.REPLICA_CRASH:
                if site in crashed:
                    continue
                crashed.add(site)
            params = {}
            if kind in (FaultKind.NAND_PROGRAM_FAIL, FaultKind.LINK_CORRUPT):
                params["count"] = rng.randint(1, 2)
            if kind is FaultKind.LINK_LATENCY_SPIKE:
                params["extra_ns"] = rng.uniform(5_000.0, 20_000.0)
                params["duration_ns"] = rng.uniform(50_000.0, 200_000.0)
            specs.append(FaultSpec(time_ns, site, kind, params))
        schedules.append(
            CrashSchedule("combo", f"combo-{combo}", "mixed",
                          config.duration_ns, FaultPlan(specs))
        )
    return schedules
