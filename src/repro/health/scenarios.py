"""End-to-end self-healing scenarios: the closed loop under fire.

Two seeded, fully deterministic runs back ``python -m repro.bench
health`` and the convergence tests:

* :func:`run_failover_scenario` — a chain replica is power-failed
  mid-stream with the injector's own healing *disabled*
  (``auto_reconfigure=False``): every recovery step must come from the
  :class:`~repro.health.supervisor.ChainSupervisor`.  The
  :func:`~repro.faults.oracles.check_failover_convergence` oracle holds
  the supervisor to bounded detection, eviction and resync windows, and
  the replica-prefix oracle holds the healed chain to content fidelity.

* :func:`run_overload_scenario` — several writers hammer an
  admission-controlled primary past its destage bandwidth.  Overload
  must surface as typed :class:`~repro.health.errors.DeviceBusy`
  rejections and a brownout policy downgrade — never as an unbounded
  CMB backlog or a deadlocked writer — and the policy must be restored
  once the load drops.
"""

from repro.cluster.topology import replicated_pair
from repro.faults.injector import ChaosInjector
from repro.faults.oracles import (
    StreamRecorder,
    check_bounded_backlog,
    check_failover_convergence,
    check_replica_prefix,
    check_visible_counter_bound,
)
from repro.faults.plan import FaultKind, FaultPlan
from repro.health.admission import AdmissionController
from repro.health.errors import DeviceBusy
from repro.health.supervisor import (
    DEAD_MISSES,
    POLL_NS,
    PROBE_TIMEOUT_NS,
    REBOOT_DELAY_NS,
    ChainSupervisor,
)
from repro.host.api import XssdLogFile
from repro.sim import Engine
from repro.sim.rng import derive

# Failover: a two-secondary chain loses its middle replica 0.6 ms in,
# while one committer writes 24 transactions 50 us apart over 12 ms.
FAILOVER_VICTIM = "secondary-1"
FAILOVER_KILL_AT_NS = 600_000.0
FAILOVER_TRANSACTIONS = 24
FAILOVER_DURATION_NS = 12_000_000.0

# Overload: four writers offer 2 KiB chunks for 3 ms into a pair whose
# admission ceiling (6 KiB outstanding) and CMB intake bound (16 KiB)
# sit far below the offered load; the run lasts 10 ms.
OVERLOAD_WRITERS = 4
OVERLOAD_CHUNK_BYTES = 2048
OVERLOAD_LOAD_UNTIL_NS = 3_000_000.0
OVERLOAD_DURATION_NS = 10_000_000.0
OVERLOAD_MAX_OUTSTANDING_BYTES = 6 * 1024
OVERLOAD_INTAKE_BOUND_BYTES = 16 * 1024


def build_supervised_chain(engine, seed, **supervisor_kw):
    """A replicated chain plus a started supervisor and stream recorders.

    Shared by the failover scenario and the health tests (the checker's
    supervised chain schedules build their own cluster in
    :mod:`repro.check.chain`); the chaos config factory keeps the
    device fault models and transport jitter on the same seed streams
    as the plain chaos runs.
    """
    from repro.faults.scenario import chaos_config_factory
    from repro.cluster.topology import replicated_chain

    cluster = replicated_chain(engine, chaos_config_factory(seed))
    recorders = {
        name: StreamRecorder(server.device, name=name)
        for name, server in cluster.servers.items()
    }
    supervisor = ChainSupervisor(engine, cluster, **supervisor_kw)
    supervisor.start()
    return cluster, supervisor, recorders


def run_failover_scenario(seed=7):
    """Kill a chain replica; the supervisor alone must heal everything.

    Returns a JSON-able dict: the supervisor's event timeline, the
    measured detection / eviction / rejoin windows, per-oracle violation
    lists and an ``ok`` flag.  No manual ``reconfigure_around`` /
    ``rejoin`` / ``resync`` call appears anywhere in this function — if
    the run converges, the control plane did it.
    """
    engine = Engine()
    cluster, supervisor, recorders = build_supervised_chain(engine, seed)
    database = cluster.primary.with_database(
        group_commit_bytes=384, group_commit_timeout_ns=5_000.0,
    )
    database.create_table("kv")

    committed = []

    def committer():
        for index in range(FAILOVER_TRANSACTIONS):
            txn = database.begin()
            txn.write("kv", f"k{index % 4}", f"v{index}")
            yield txn.commit()
            committed.append(index)
            yield engine.timeout(50_000.0)

    done = engine.process(committer(), name="health-committer")

    plan = FaultPlan().add(FAILOVER_KILL_AT_NS, FAILOVER_VICTIM,
                           FaultKind.REPLICA_CRASH)
    injector = ChaosInjector(engine, cluster, plan, auto_reconfigure=False)
    injector.start()
    engine.run(until=FAILOVER_DURATION_NS)
    supervisor.stop()

    # Bounds: one supervisor round is the poll period plus the probe
    # timeout (the loop waits out the probes before judging them).
    # Detection must land within (DEAD_MISSES + 1) rounds of the kill;
    # the full kill -> rejoin+resync loop within that plus the reboot
    # delay and two more rounds of slack.
    round_ns = POLL_NS + PROBE_TIMEOUT_NS
    detect_within_ns = (DEAD_MISSES + 1) * round_ns
    resync_within_ns = detect_within_ns + REBOOT_DELAY_NS + 2 * round_ns
    oracles = {
        "failover-convergence": check_failover_convergence(
            supervisor.events, FAILOVER_VICTIM, FAILOVER_KILL_AT_NS,
            detect_within_ns=detect_within_ns,
            resync_within_ns=resync_within_ns,
        ),
        "visible-counter": check_visible_counter_bound(cluster),
    }
    for server in cluster.secondaries():
        oracles[f"replica-prefix:{server.name}"] = check_replica_prefix(
            recorders["primary"], recorders[server.name],
            secondary_credit=server.device.cmb.credit.value,
        )
    if not done.triggered:
        oracles["commits-drained"] = [
            f"failover: only {len(committed)} of {FAILOVER_TRANSACTIONS} "
            f"commits completed — the healed chain never unparked the "
            f"committer"
        ]
    else:
        oracles["commits-drained"] = []

    detected = supervisor.events_for(FAILOVER_VICTIM, "dead-detected")
    rejoined = supervisor.events_for(FAILOVER_VICTIM, "rejoin")
    return {
        "seed": seed,
        "victim": FAILOVER_VICTIM,
        "kill_at_ns": FAILOVER_KILL_AT_NS,
        "events": supervisor.events,
        "fault_log": injector.fault_log,
        "chain_order": list(cluster.order),
        "commits_acknowledged": len(committed),
        "detection_ns": (detected[0]["time_ns"] - FAILOVER_KILL_AT_NS
                         if detected else None),
        "kill_to_resync_ns": (rejoined[0]["time_ns"] - FAILOVER_KILL_AT_NS
                              if rejoined else None),
        "detect_within_ns": detect_within_ns,
        "resync_within_ns": resync_within_ns,
        "probes_answered": supervisor.probes_answered,
        "probes_timed_out": supervisor.probes_timed_out,
        "oracles": oracles,
        "ok": all(not violations for violations in oracles.values()),
    }


def run_overload_scenario(seed=7):
    """Saturate an admission-controlled pair; shed load, brown out, recover.

    The writers offer far more than destage bandwidth.  The run is
    healthy iff overload shows up only in its *typed* forms: DeviceBusy
    rejections at admission, a brownout policy downgrade while pressure
    stays high, bounded CMB intake backlog throughout, the policy
    restored after the load stops, and every admitted byte persisted.
    """
    from repro.core.config import villars_sram
    from repro.nand.geometry import Geometry
    from repro.nand.timing import NandTiming
    from repro.ssd.device import SsdConfig

    engine = Engine()

    def factory():
        return villars_sram(
            ssd=SsdConfig(
                geometry=Geometry(channels=2, ways_per_channel=2,
                                  blocks_per_die=64, pages_per_block=16,
                                  page_bytes=4096),
                timing=NandTiming(t_program=50_000.0, t_read=5_000.0,
                                  t_erase=200_000.0, bus_bandwidth=1.0),
            ),
            cmb_capacity=64 * 1024,
            cmb_queue_bytes=8 * 1024,
            cmb_intake_bound_bytes=OVERLOAD_INTAKE_BOUND_BYTES,
            transport_seed=seed,
        )

    cluster = replicated_pair(engine, factory, policy="eager")
    primary = cluster.primary.device
    admission = AdmissionController(
        primary, max_outstanding_bytes=OVERLOAD_MAX_OUTSTANDING_BYTES,
    )
    supervisor = ChainSupervisor(engine, cluster, admission=admission)
    supervisor.start()

    rng = derive(seed, "overload-writers")
    stats = {
        "writes_completed": 0,
        "rejections_seen": 0,
        "writers_finished": 0,
    }

    def writer(writer_id):
        handle = XssdLogFile(primary, copy_chunk=1024, admission=admission,
                             writer_id=writer_id)
        while engine.now < OVERLOAD_LOAD_UNTIL_NS:
            try:
                yield handle.x_pwrite(f"{writer_id}", OVERLOAD_CHUNK_BYTES)
            except DeviceBusy as busy:
                stats["rejections_seen"] += 1
                backoff = busy.retry_after_ns or 2_000.0
                yield engine.timeout(backoff * (1 + rng.random()))
                continue
            stats["writes_completed"] += 1
        stats["writers_finished"] += 1

    for index in range(OVERLOAD_WRITERS):
        engine.process(writer(f"w{index}"), name=f"overload-w{index}")

    engine.run(until=OVERLOAD_DURATION_NS)
    supervisor.stop()

    entered = supervisor.events_for(cluster.primary_name, "brownout-enter")
    exited = supervisor.events_for(cluster.primary_name, "brownout-exit")
    final_policy = primary.transport.policy.name

    oracles = {}
    for name, server in cluster.servers.items():
        oracles[f"bounded-backlog:{name}"] = check_bounded_backlog(
            server.device.cmb, name=name,
        )
    oracles["load-shed"] = [] if admission.rejections else [
        "overload: sustained saturation produced zero DeviceBusy "
        "rejections — admission control never engaged"
    ]
    oracles["brownout-cycle"] = []
    if not entered:
        oracles["brownout-cycle"].append(
            "overload: pressure never tripped a brownout-enter"
        )
    elif not exited:
        oracles["brownout-cycle"].append(
            "overload: brownout never exited after the load stopped"
        )
    elif final_policy != "eager":
        oracles["brownout-cycle"].append(
            f"overload: policy ended as {final_policy!r}, not restored "
            f"to 'eager'"
        )
    oracles["no-deadlock"] = []
    if stats["writers_finished"] != OVERLOAD_WRITERS:
        unfinished = OVERLOAD_WRITERS - stats["writers_finished"]
        oracles["no-deadlock"].append(
            f"overload: {unfinished} writer(s) "
            f"never returned from the load loop"
        )
    unpersisted = primary.stream_claimed - primary.cmb.credit.value
    if unpersisted:
        oracles["no-deadlock"].append(
            f"overload: {unpersisted} admitted bytes never persisted "
            f"after the load stopped"
        )

    return {
        "seed": seed,
        "writers": OVERLOAD_WRITERS,
        "load_until_ns": OVERLOAD_LOAD_UNTIL_NS,
        "writes_completed": stats["writes_completed"],
        "rejections": admission.rejections,
        "rejections_by_reason": dict(admission.rejections_by_reason),
        "rejected_bytes": admission.rejected_bytes,
        "admitted_bytes": admission.admitted_bytes,
        "backlog_peaks": {
            name: server.device.cmb.intake_backlog_peak
            for name, server in cluster.servers.items()
        },
        "chunks_shed": {
            name: server.device.cmb.chunks_shed
            for name, server in cluster.servers.items()
        },
        "brownout_entered_at_ns": (entered[0]["time_ns"]
                                   if entered else None),
        "brownout_exited_at_ns": exited[0]["time_ns"] if exited else None,
        "final_policy": final_policy,
        "events": supervisor.events,
        "oracles": oracles,
        "ok": all(not violations for violations in oracles.values()),
    }
