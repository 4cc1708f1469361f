"""DR-tier crash schedules: total fleet loss and archive lag.

The fleet checker asks "does a migration ever lose an ack?".  This tier
asks the disaster question: **when every node is lost, does the remote
archive restore exactly what it promised — at every committed
transaction boundary?**  Every schedule runs a small fleet with per-node
WAL archivers shipping to a fault-modeled grid, then destroys the whole
fleet and audits only what the grid holds:

* ``dr-total-loss`` — no grid perturbations; the terminal fleet-wide
  power loss lands at candidate times bracketing the archiver's own
  events (segment ships, snapshots, and the gaps between them), so the
  restore is audited at every archive-lag posture a crash can produce.
* ``dr-archive-lag`` — the grid partitions and heals, or a torn upload
  lands mid-stream, while the workload keeps committing; the run goes to
  the full horizon (the archiver must retry, detect the torn object by
  readback, and catch up) before the same total loss and audit.

Oracles, judged against each shard's :class:`ReferenceModel` and the
node's :class:`~repro.dr.restore.Archive`:

* **archive-verify** — every manifest entry has its object, landed
  checksums match intended ones, and consecutive segments are
  LSN-contiguous.  A silently dropped segment (the seeded
  ``drop_segment`` bug) fails here twice over: missing object and gap;
* **archived-prefix** — the archived COMMIT records, projected onto a
  writer, form a submission-order prefix
  (:meth:`~repro.check.model.ReferenceModel.diff_commit_prefix` with the
  ack floor waived — archive lag legitimately trails acks);
* **pitr** — the PITR oracle: for *every* committed transaction boundary
  ``k`` in the archived prefix, restoring to that commit's LSN yields
  exactly ``prefix_state(writer, k)``.  This is the "point-in-time
  recovery to any committed txn" promise, checked at every point;
* **restore-state** — the full restore (snapshots may extend past the
  segment frontier; that is what they are for) equals ``prefix_state(k)``
  for some ``k`` at or beyond the segment-archived prefix: prefix-ness,
  no fabricated rows, and nothing the archive covered may be lost.
"""

from dataclasses import asdict, dataclass

from repro.check.harness import (
    FLEET_HEAVY_STRIDE,
    crash_fleet,
    inject_node_faults,
    start_fleet,
    start_writers,
)
from repro.check.points import bracket_events
from repro.check.schedules import family, interleave
from repro.dr.grid import GridFaultDriver, RemoteGrid
from repro.dr.restore import Archive, restore_state
from repro.faults.plan import GRID_SITED_KINDS, FaultKind, FaultPlan

DR_FAMILIES = ("dr-total-loss", "dr-archive-lag")


@dataclass
class DrCheckConfig:
    """The DR checker scenario's knobs (``scenario`` is always "dr").

    A tiny archived fleet: two nodes, one shard each, ten transactions
    per shard, segments small enough that several seal mid-run.
    ``drop_segment`` seeds the silently-dropped-segment archiver bug
    (segment 0 is sealed, manifested, and counted — never uploaded) so
    the mutation tests can prove the family catches what it claims to.
    """

    scenario: str = "dr"
    seed: int = 0
    nodes: int = 2
    replicas: int = 1
    shards_per_node: int = 1
    transactions: int = 10
    key_space: int = 4
    group_commit_bytes: int = 384
    group_commit_timeout_ns: float = 5_000.0
    think_ns: float = 12_000.0
    duration_ns: float = 2_000_000.0
    poll_ns: float = 30_000.0
    segment_bytes: int = 512
    snapshot_every_ns: float = 700_000.0
    retry_ns: float = 60_000.0
    grid_latency_ns: float = 20_000.0
    grid_bandwidth: float = 1.0
    heal_delay_ns: float = 300_000.0
    grace_ns: float = 400_000.0
    drop_segment: bool = False

    as_dict = asdict

    def __post_init__(self):
        if self.scenario != "dr":
            raise ValueError(f"not a dr config: scenario={self.scenario!r}")
        if self.nodes < 1:
            raise ValueError("the dr scenario needs at least one node")
        self.segment_bytes = int(self.segment_bytes)
        for name in ("think_ns", "duration_ns", "poll_ns",
                     "snapshot_every_ns", "retry_ns", "grid_latency_ns",
                     "grid_bandwidth", "heal_delay_ns", "grace_ns"):
            setattr(self, name, float(getattr(self, name)))


def _build(config):
    run = start_fleet(config)
    run.grid = RemoteGrid(run.engine,
                          base_latency_ns=config.grid_latency_ns,
                          bandwidth_bytes_per_ns=config.grid_bandwidth)
    run.fleet.enable_dr(
        run.grid,
        poll_ns=config.poll_ns,
        segment_bytes=config.segment_bytes,
        snapshot_every_ns=config.snapshot_every_ns,
        retry_ns=config.retry_ns,
        drop_segment_seqs=(0,) if config.drop_segment else (),
    )
    start_writers(config, run, think_ns=config.think_ns)
    return run


def probe_dr_candidates(config):
    """Fault-free run → total-loss candidates around the archiver's events.

    ``early`` (nothing archived yet), every segment ship and snapshot
    (archive exactly at a frontier), mid-lag points between them, and the
    horizon (fully caught up, modulo the buffer).
    """
    run = _build(config)
    run.engine.run(until=run.horizon)
    events = sorted(
        (event["time_ns"], f"{event['action']}-{name}-{event['seq']}")
        for name, node in run.fleet.nodes.items()
        for event in node.archiver.events
    )
    # The last event's lag window runs all the way to the run.horizon.
    return bracket_events(
        (run.start_ns + config.duration_ns * 0.05, "early"),
        events, run.horizon, tail_ns=float("inf"),
    )


def enumerate_dr_schedules(config, candidates):
    """Every DR schedule over the probed candidates, round-robin mixed.

    Grid faults carry site ``"grid"``: the executor hands them to a
    :class:`~repro.dr.grid.GridFaultDriver`, not to a node's injector.
    """
    horizon = max(time_ns for time_ns, _label in candidates)
    heavy = candidates[::FLEET_HEAVY_STRIDE] or candidates[:1]
    return interleave([
        family("dr-total-loss", candidates, "fleet"),
        family("dr-archive-lag", heavy, "grid", horizon,
               [(0, FaultKind.GRID_DOWN),
                (config.heal_delay_ns, FaultKind.GRID_UP)]),
        family("dr-archive-lag",
               [(time_ns, f"torn-{label}") for time_ns, label in heavy],
               "grid", horizon,
               [(0, FaultKind.GRID_TORN_UPLOAD, {"count": 1})]),
    ])


def execute_dr_schedule(config, schedule, violations, stats):
    run = _build(config)
    grid_specs = [spec for spec in schedule.plan
                  if spec.kind in GRID_SITED_KINDS]
    node_specs = [spec for spec in schedule.plan
                  if spec.kind not in GRID_SITED_KINDS]
    if grid_specs:
        GridFaultDriver(run.engine, run.grid, FaultPlan(grid_specs)).start()
    inject_node_faults(run, node_specs, config.grace_ns)
    run.engine.run(until=max(schedule.end_time_ns, run.engine.now + 1.0))

    # Total loss: freeze the archivers, cut power everywhere.  From
    # here on, the grid is the only surviving copy of anything.
    for node in run.fleet.nodes.values():
        node.archiver.stop()
    crash = crash_fleet(run)

    archives = {}
    for name in run.fleet.nodes:
        archive = Archive.load_sync(run.grid, name)
        archives[name] = archive
        violations[f"archive-verify:{name}"] = archive.verify()

    archived_prefixes = {}
    for shard_id, model in crash.models.items():
        archive = archives[crash.owners[shard_id]]
        table = f"{shard_id}.kv"
        commit_lsn_of = {
            txn_id: lsn for lsn, txn_id in archive.commit_boundaries()
        }
        ids = model.sequence_ids(shard_id)

        violations[f"archived-prefix:{shard_id}"] = (
            model.diff_commit_prefix(commit_lsn_of, require_acked=False)
        )

        prefix = 0
        while prefix < len(ids) and ids[prefix] in commit_lsn_of:
            prefix += 1
        archived_prefixes[shard_id] = prefix

        violations[f"pitr:{shard_id}"] = _pitr_violations(
            shard_id, archive, model, ids[:prefix], commit_lsn_of, table,
        )
        violations[f"restore-state:{shard_id}"] = (
            _final_restore_violations(shard_id, archive, model, prefix,
                                      table)
        )

    stats.update(crash.stats)
    stats.update({
        "archived_prefixes": archived_prefixes,
        "reserve_energy_ok": all(
            report.reserve_energy_ok for report in crash.reports.values()
        ),
        "archiver": {
            name: node.archiver.stats()
            for name, node in sorted(run.fleet.nodes.items())
        },
        "grid": run.grid.stats(),
    })


def _pitr_violations(shard_id, archive, model, archived_ids, commit_lsn_of,
                     table):
    """Restore at every archived commit boundary; diff against the model.

    Boundary ``k`` (1-based over the writer's archived prefix) restores
    the archive to that commit's LSN; the shard's table slice must equal
    ``prefix_state(writer, k)`` exactly.  Boundary 0 (before the first
    commit) must restore the shard to empty.
    """
    violations = []
    boundaries = [(0, None)] + [
        (k + 1, commit_lsn_of[txn_id])
        for k, txn_id in enumerate(archived_ids)
    ]
    for k, upto_lsn in boundaries:
        if upto_lsn is None:
            # Restore strictly before the writer's first commit: any LSN
            # below it (0 = empty archive view) — but other shards'
            # earlier commits must not bleed into this shard's slice.
            upto_lsn = 0
        state, _versions = restore_state(archive, upto_lsn=upto_lsn)
        slice_ = state.get(table, {})
        expected = model.prefix_state(shard_id, k)
        if slice_ != expected:
            missing = sorted(
                key for key in expected if slice_.get(key) != expected[key]
            )
            extra = sorted(key for key in slice_ if key not in expected)
            violations.append(
                f"pitr: {shard_id} boundary {k} (lsn<={upto_lsn}) restored "
                f"{len(slice_)} rows != model prefix ({len(expected)} rows); "
                f"divergent={missing[:3]} extra={extra[:3]}"
            )
            break  # later boundaries diverge too; one witness suffices
    return violations


def _final_restore_violations(shard_id, archive, model, floor, table):
    """The full restore must be a commit prefix at/beyond the floor.

    Snapshots legitimately carry the state past the last archived
    segment (they are cut from the live database), so the final state
    may be a *longer* prefix than the segment-archived one — but it must
    still be exactly some prefix, and never shorter than the floor.
    """
    state, _versions = restore_state(archive)
    slice_ = state.get(table, {})
    total = len(model.sequence_ids(shard_id))
    matched = [
        k for k in range(total + 1)
        if model.prefix_state(shard_id, k) == slice_
    ]
    if any(k >= floor for k in matched):
        return []
    if matched:
        return [
            f"restore-state: {shard_id} restored only prefix "
            f"{max(matched)} but segments archived {floor} commits"
        ]
    return [
        f"restore-state: {shard_id} restored state matches no commit "
        f"prefix (segment-archived prefix {floor} of {total} submitted)"
    ]
