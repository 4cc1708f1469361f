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
from repro.health.supervisor import ChainSupervisor
from repro.host.api import XssdLogFile
from repro.sim import Engine
from repro.sim.rng import derive


def build_supervised_chain(engine, seed, secondaries=2, **supervisor_kw):
    """A replicated chain plus a started supervisor and stream recorders.

    Shared by the failover scenario, the check layer's supervised
    schedules and the tests; the chaos config factory keeps the device
    fault models and transport jitter on the same seed streams as the
    plain chaos runs.
    """
    from repro.faults.scenario import chaos_config_factory
    from repro.cluster.topology import replicated_chain

    cluster = replicated_chain(engine, chaos_config_factory(seed),
                               secondaries=secondaries)
    recorders = {
        name: StreamRecorder(server.device, name=name)
        for name, server in cluster.servers.items()
    }
    supervisor = ChainSupervisor(engine, cluster, **supervisor_kw)
    supervisor.start()
    return cluster, supervisor, recorders


def run_failover_scenario(seed=7, secondaries=2, victim="secondary-1",
                          kill_at_ns=600_000.0, transactions=24,
                          duration_ns=12_000_000.0, poll_ns=100_000.0,
                          dead_misses=3, reboot_delay_ns=400_000.0):
    """Kill a chain replica; the supervisor alone must heal everything.

    Returns a JSON-able dict: the supervisor's event timeline, the
    measured detection / eviction / rejoin windows, per-oracle violation
    lists and an ``ok`` flag.  No manual ``reconfigure_around`` /
    ``rejoin`` / ``resync`` call appears anywhere in this function — if
    the run converges, the control plane did it.
    """
    engine = Engine()
    cluster, supervisor, recorders = build_supervised_chain(
        engine, seed, secondaries=secondaries, poll_ns=poll_ns,
        dead_misses=dead_misses, reboot_delay_ns=reboot_delay_ns,
    )
    database = cluster.primary.with_database(
        group_commit_bytes=384, group_commit_timeout_ns=5_000.0,
    )
    database.create_table("kv")

    committed = []

    def committer():
        for index in range(transactions):
            txn = database.begin()
            txn.write("kv", f"k{index % 4}", f"v{index}")
            yield txn.commit()
            committed.append(index)
            yield engine.timeout(50_000.0)

    done = engine.process(committer(), name="health-committer")

    plan = FaultPlan().add(kill_at_ns, victim, FaultKind.REPLICA_CRASH)
    injector = ChaosInjector(engine, cluster, plan, auto_reconfigure=False)
    injector.start()
    engine.run(until=duration_ns)
    supervisor.stop()

    # Bounds: one supervisor round is the poll period plus the probe
    # timeout (the loop waits out the probes before judging them).
    # Detection must land within (dead_misses + 1) rounds of the kill;
    # the full kill -> rejoin+resync loop within that plus the reboot
    # delay and two more rounds of slack.
    round_ns = poll_ns + supervisor.probe_timeout_ns
    detect_within_ns = (dead_misses + 1) * round_ns
    resync_within_ns = detect_within_ns + reboot_delay_ns + 2 * round_ns
    oracles = {
        "failover-convergence": check_failover_convergence(
            supervisor.events, victim, kill_at_ns,
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
            f"failover: only {len(committed)} of {transactions} commits "
            f"completed — the healed chain never unparked the committer"
        ]
    else:
        oracles["commits-drained"] = []

    detected = supervisor.events_for(victim, "dead-detected")
    rejoined = supervisor.events_for(victim, "rejoin")
    return {
        "seed": seed,
        "victim": victim,
        "kill_at_ns": kill_at_ns,
        "events": supervisor.events,
        "fault_log": injector.fault_log,
        "chain_order": list(cluster.order),
        "commits_acknowledged": len(committed),
        "detection_ns": (detected[0]["time_ns"] - kill_at_ns
                         if detected else None),
        "kill_to_resync_ns": (rejoined[0]["time_ns"] - kill_at_ns
                              if rejoined else None),
        "detect_within_ns": detect_within_ns,
        "resync_within_ns": resync_within_ns,
        "probes_answered": supervisor.probes_answered,
        "probes_timed_out": supervisor.probes_timed_out,
        "oracles": oracles,
        "ok": all(not violations for violations in oracles.values()),
    }


def run_overload_scenario(seed=7, writers=4, chunk_bytes=2048,
                          load_until_ns=3_000_000.0,
                          duration_ns=10_000_000.0,
                          max_outstanding_bytes=6 * 1024,
                          intake_bound_bytes=16 * 1024,
                          poll_ns=100_000.0):
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
            cmb_intake_bound_bytes=intake_bound_bytes,
            transport_seed=seed,
        )

    cluster = replicated_pair(engine, factory, policy="eager")
    primary = cluster.primary.device
    admission = AdmissionController(
        primary, max_outstanding_bytes=max_outstanding_bytes,
    )
    supervisor = ChainSupervisor(
        engine, cluster, poll_ns=poll_ns, admission=admission,
        brownout_policy="lazy",
    )
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
        while engine.now < load_until_ns:
            try:
                yield handle.x_pwrite(f"{writer_id}", chunk_bytes)
            except DeviceBusy as busy:
                stats["rejections_seen"] += 1
                backoff = busy.retry_after_ns or 2_000.0
                yield engine.timeout(backoff * (1 + rng.random()))
                continue
            stats["writes_completed"] += 1
        stats["writers_finished"] += 1

    for index in range(writers):
        engine.process(writer(f"w{index}"), name=f"overload-w{index}")

    # Sample both devices' intake backlogs on a fixed cadence; the
    # bounded-backlog oracle consumes the samples afterwards.
    samples = {name: [] for name in cluster.servers}

    def sampler():
        while engine.now < duration_ns - poll_ns:
            yield engine.timeout(poll_ns / 2)
            for name, server in cluster.servers.items():
                samples[name].append(
                    (engine.now, server.device.cmb.intake_backlog_bytes)
                )

    engine.process(sampler(), name="backlog-sampler")
    engine.run(until=duration_ns)
    supervisor.stop()

    entered = supervisor.events_for(cluster.primary_name, "brownout-enter")
    exited = supervisor.events_for(cluster.primary_name, "brownout-exit")
    final_policy = primary.transport.policy.name

    oracles = {}
    for name, server in cluster.servers.items():
        bound = server.device.cmb.intake_bound_bytes
        oracles[f"bounded-backlog:{name}"] = check_bounded_backlog(
            samples[name], bound, name=name,
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
    if stats["writers_finished"] != writers:
        oracles["no-deadlock"].append(
            f"overload: {writers - stats['writers_finished']} writer(s) "
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
        "writers": writers,
        "load_until_ns": load_until_ns,
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
