"""One reproducible chaos run: workload + fault plan + oracles.

:func:`run_chaos` builds a replicated chain of small Villars devices,
runs a seeded transactional workload on the primary while a
:class:`~repro.faults.injector.ChaosInjector` walks a fault plan, then
power-fails the primary, recovers from its destaged log, and evaluates
every oracle.  Everything — workload, plan, device fault models — draws
from independent streams of one seed (:func:`repro.sim.rng.derive`), so
the same seed reproduces the same fault sequence, the same crash report,
and the same recovered state, byte for byte.

Used by ``python -m repro.bench chaos``, the determinism regression
test, and the hypothesis chaos properties.
"""

from repro.cluster.topology import replicated_chain
from repro.core.config import villars_sram
from repro.core.crash import read_durable_pages
from repro.db.recovery import recover_pages
from repro.faults.injector import ChaosInjector
from repro.faults.oracles import (
    StreamRecorder,
    check_durable_prefix,
    check_ftl_integrity,
    check_no_lost_acks,
    check_replica_prefix,
    check_visible_counter_bound,
)
from repro.faults.plan import FaultPlan
from repro.nand.ecc import EccFaultModel, ProgramFaultModel
from repro.nand.geometry import Geometry
from repro.nand.timing import NandTiming
from repro.sim import Engine
from repro.sim.rng import derive
from repro.ssd.device import SsdConfig

# The chaos workload writes keys k0..k7, so most keys are overwritten
# several times across a run.
CHAOS_KEY_SPACE = 8


def chaos_config_factory(seed):
    """Per-server Villars configs with armed (but quiet) fault models.

    Each call returns a *fresh* config — fault models must not be shared
    between servers, or forcing a failure on one would fire on another.
    """
    counter = [0]

    def factory():
        index = counter[0]
        counter[0] += 1
        return villars_sram(
            ssd=SsdConfig(
                geometry=Geometry(channels=2, ways_per_channel=2,
                                  blocks_per_die=64, pages_per_block=16,
                                  page_bytes=4096),
                timing=NandTiming(t_program=50_000.0, t_read=5_000.0,
                                  t_erase=200_000.0, bus_bandwidth=1.0),
                program_fault_model=ProgramFaultModel(),
                read_fault_model=EccFaultModel(
                    seed=(seed * 1000003 + 2 * index + 1) & 0x7FFFFFFF),
            ),
            cmb_capacity=64 * 1024,
            cmb_queue_bytes=8 * 1024,
            # Seeds the per-peer mirror-retry backoff jitter: chaos runs
            # with link faults retry on deterministic schedules, so two
            # runs of one seed stay byte-identical.
            transport_seed=(seed * 1000003 + 7919 + index) & 0x7FFFFFFF,
        )

    return factory


def chaos_realistic_nand_config_factory(seed):
    """Like :func:`chaos_config_factory` with the NAND realism pack on.

    Two planes per die plus a fully enabled :class:`DieQos` (erase
    suspend/resume, cache program, multi-plane batching) — used by the
    determinism tests to show chaos replays stay byte-identical with the
    die resource manager exercising every feature.
    """
    from repro.nand.dies import DieQos

    inner = chaos_config_factory(seed)

    def factory():
        config = inner()
        ssd = config.ssd
        ssd.geometry = Geometry(
            channels=ssd.geometry.channels,
            ways_per_channel=ssd.geometry.ways_per_channel,
            blocks_per_die=ssd.geometry.blocks_per_die,
            pages_per_block=ssd.geometry.pages_per_block,
            page_bytes=ssd.geometry.page_bytes,
            planes_per_die=2,
        )
        ssd.qos = DieQos(suspend_for_reads=True,
                         suspendable_classes=("gc", "host"),
                         multi_plane_writes=True, cache_program=True)
        return config

    return factory


def run_chaos(seed, secondaries=2, duration_ns=8_000_000.0, plan=None,
              fault_events=6, transactions=160, group_commit_bytes=2048,
              collect_snapshots=False, config_factory=None):
    """Run one seeded chaos scenario; returns a JSON-able result dict.

    ``plan`` overrides the seed-derived schedule (e.g. loaded from a
    ``--faults`` file); otherwise :meth:`FaultPlan.random` draws one.
    ``config_factory`` overrides the default per-server config factory
    (e.g. :func:`chaos_realistic_nand_config_factory`).  The returned
    dict carries the plan, the injector's fault log, the primary's crash
    report, per-oracle violation lists, and an ``ok`` flag — identical
    across runs with identical inputs.
    """
    engine = Engine()
    if config_factory is None:
        config_factory = chaos_config_factory(seed)
    cluster = replicated_chain(
        engine, config_factory, secondaries=secondaries,
    )
    secondary_names = [s.name for s in cluster.secondaries()]
    recorders = {
        name: StreamRecorder(server.device, name=name)
        for name, server in cluster.servers.items()
    }
    if plan is None:
        plan = FaultPlan.random(
            seed, duration_ns, secondary_names,
            bridge_count=len(cluster.bridges), events=fault_events,
        )

    database = cluster.primary.with_database(
        group_commit_bytes=group_commit_bytes,
        group_commit_timeout_ns=15_000.0,
    )
    database.create_table("kv")

    acknowledged = {}  # key -> last value whose commit was acknowledged
    written = {}  # key -> set of every value ever written
    workload_rng = derive(seed, "workload")

    def workload():
        for index in range(transactions):
            txn = database.begin()
            key = f"k{workload_rng.randrange(CHAOS_KEY_SPACE)}"
            value = f"v{index}"
            txn.write("kv", key, value)
            written.setdefault(key, set()).add(value)
            yield txn.commit()
            acknowledged[key] = value
            recorders["primary"].note_visible(
                cluster.primary.device.transport.visible_counter()
            )

    injector = ChaosInjector(engine, cluster, plan)
    injector.start()
    engine.process(workload(), name="chaos-workload")
    engine.run(until=duration_ns)

    # Pre-crash checks: the policy counter must never have overpromised.
    visible_violations = check_visible_counter_bound(cluster)

    # The final, always-injected fault: primary power loss.
    report = cluster.primary.crash()

    pages, page_errors = read_durable_pages(engine, cluster.primary.device)
    if page_errors:
        raise RuntimeError("; ".join(page_errors))

    recovered, transactions_recovered = recover_pages(pages, ["kv"])
    recovered_values = dict(recovered.table("kv").scan())

    oracles = {
        "durable-prefix": check_durable_prefix(report, pages),
        "no-lost-ack": check_no_lost_acks(
            recovered_values, acknowledged, written),
        "visible-counter": visible_violations,
    }
    for name in secondary_names:
        server = cluster.servers[name]
        oracles[f"replica-prefix:{name}"] = check_replica_prefix(
            recorders["primary"], recorders[name],
            secondary_credit=server.device.cmb.credit.value,
        )
    for name, server in cluster.servers.items():
        oracles[f"ftl-integrity:{name}"] = check_ftl_integrity(server.device)

    result = {
        "seed": seed,
        "secondaries": secondaries,
        "duration_ns": duration_ns,
        "plan": plan.as_dicts(),
        "fault_kinds": sorted(kind.value for kind in plan.kinds()),
        "fault_log": injector.fault_log,
        "chain_order": list(cluster.order),
        "crash_report": report.as_dict(),
        "secondary_crash_reports": {
            site: crash.as_dict()
            for site, crash in sorted(injector.crash_reports.items())
        },
        "commits_acknowledged": database.stats.commits,
        "transactions_recovered": transactions_recovered,
        "recovered_keys": len(recovered_values),
        "oracles": oracles,
        "ok": all(not violations for violations in oracles.values()),
    }
    if collect_snapshots:
        from repro.core.metrics import device_snapshot

        result["snapshots"] = {
            name: device_snapshot(server.device)
            for name, server in sorted(cluster.servers.items())
        }
    return result
