"""Building blocks the checker tiers share: build, perturb, crash, audit.

Every tier reads a crashed device back with
:func:`~repro.core.crash.read_durable_pages` and replays it with
:func:`~repro.db.recovery.recover_pages`; the fleet, dr and slo tiers
assemble their sharded runs from the helpers here.
Shard values are self-describing (``"<shard>-v<seq>"``) because
migration replay rewrites transaction ids; the acked-durability and
seq-order oracles recover the sequence number from the value itself.
"""

import copy
from types import SimpleNamespace

from repro.check.model import ReferenceModel
from repro.cluster.fleet import Fleet
from repro.core.crash import read_durable_pages
from repro.db.recovery import LogReader, durable_commit_ids, recover_pages
from repro.db.txn import TransactionAborted
from repro.faults.injector import ChaosInjector
from repro.faults.oracles import check_ftl_integrity
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.scenario import chaos_config_factory
from repro.health.errors import DeviceBusy
from repro.sim import Engine
from repro.sim.rng import derive


# Faulted fleet-tier families run to the full horizon, so density costs
# real wall time: they take every FLEET_HEAVY_STRIDE-th candidate.
FLEET_HEAVY_STRIDE = 2


def start_fleet(config, **node_kw):
    """A fresh engine and a ``config.nodes``-node fleet, not yet loaded.

    Fleet nodes run one WAL flush slot, which the prefix oracle needs for
    the same soundness reason as the single-chain checker.
    """
    engine = Engine()
    fleet = Fleet(
        engine, chaos_config_factory(config.seed),
        replicas=config.replicas,
        group_commit_bytes=config.group_commit_bytes,
        group_commit_timeout_ns=config.group_commit_timeout_ns,
        **node_kw,
    )
    fleet.add_nodes(config.nodes)
    return SimpleNamespace(engine=engine, fleet=fleet)


def start_writers(config, run, think_ns=0.0, value_pad=0):
    """Place shards ``s0``, ``s1``, ... round-robin; start one tenant each.

    Sets ``run.start_ns``, ``run.horizon`` (the probe's end) and
    ``run.models`` (shard_id -> ReferenceModel, writer == shard).
    """
    engine = run.engine
    run.start_ns = engine.now
    run.horizon = engine.now + config.duration_ns
    run.models = {}
    for index in range(config.nodes * config.shards_per_node):
        shard_id = f"s{index}"
        run.fleet.create_shard(shard_id, node=f"node{index % config.nodes}")
        run.models[shard_id] = ReferenceModel()
        name = f"{config.scenario}-writer-{shard_id}"
        engine.process(
            _shard_writer(config, run, shard_id, derive(config.seed, name),
                          think_ns, value_pad),
            name=name,
        )


def _shard_writer(config, run, shard_id, rng, think_ns, value_pad):
    """One shard's tenant: sequence-stamped single-key commits.

    Seq ``k`` is acknowledged before seq ``k + 1`` is submitted, so the
    model's ack count *is* the list of acked sequence numbers.
    """
    engine = run.engine
    shard = run.fleet.shards[shard_id]
    model = run.models[shard_id]
    # Padding sits *before* the "-v<seq>" marker so durable_seqs still
    # recovers the sequence number.
    pad = "x" * value_pad
    for seq in range(config.transactions):
        key = f"k{rng.randrange(config.key_space)}"
        body_id = f"{shard_id}-{pad}" if pad else shard_id
        value = f"{body_id}-v{seq}"

        def body(txn, key=key, value=value):
            txn.write("kv", key, value)
            model.committed(shard_id, txn.txn_id, [(key, value)])

        while True:
            try:
                yield from shard.run_body(body)
                break
            except DeviceBusy as busy:
                yield engine.timeout(busy.retry_after_ns or 20_000.0)
            except TransactionAborted:
                # Single-writer shards cannot conflict in practice, but
                # the model must never count a refused commit.
                model.aborted(shard_id)
        model.acknowledged(shard_id)
        if think_ns > 0:
            yield engine.timeout(think_ns)


def inject_node_faults(run, specs, grace_ns, auto_reconfigure=True):
    """Route fleet-scoped fault sites to one injector per node.

    Sites carry a node prefix (``"node1.bridge-0"``,
    ``"node1.secondary-1"``) that picks the node.  A node's
    :class:`~repro.cluster.topology.Cluster` keys its servers by their
    fleet-wide names but its bridges by position (``"bridge-0"``), so
    only bridge sites lose the prefix before the per-node
    :class:`ChaosInjector` resolves them.
    """
    by_node = {}
    for spec in specs:
        node, _dot, local = spec.site.partition(".")
        site = local if local.startswith("bridge-") else spec.site
        by_node.setdefault(node, []).append(
            FaultSpec(spec.time_ns, site, spec.kind, spec.params)
        )
    for node_name, local_specs in sorted(by_node.items()):
        ChaosInjector(
            run.engine, run.fleet.nodes[node_name].cluster,
            FaultPlan(local_specs), grace_ns=grace_ns,
            auto_reconfigure=auto_reconfigure,
        ).start()


def crash_fleet(run):
    """Cut power to every node's primary and freeze what clients saw.

    The tier stops its control plane first: nothing may react to the
    power loss.  Models are deep-copied at crash time because page
    collection steps the engine and surviving writers could record
    post-crash acks the pre-crash client never saw.  ``stats`` holds the
    commit counts and shard owners every fleet tier reports.
    """
    reports = {
        name: node.cluster.primary.crash()
        for name, node in run.fleet.nodes.items()
    }
    models = {
        shard_id: copy.deepcopy(model)
        for shard_id, model in run.models.items()
    }
    owners = {
        shard_id: shard.node.name
        for shard_id, shard in run.fleet.shards.items()
    }
    stats = {
        "commits_submitted": sum(
            model.total_committed() for model in models.values()
        ),
        "commits_acked": sum(
            model.total_acked() for model in models.values()
        ),
        "owners": owners,
    }
    return SimpleNamespace(reports=reports, models=models, owners=owners,
                           stats=stats)


def judge_shards(run, crash, violations, stats, migrated=None,
                 topped_up=False):
    """Recover every node; judge each shard on its owner at crash time.

    Per node: tolerant page read-back and FTL integrity.  Per shard:
    **model-state** (the recovered slice is a commit prefix covering every
    ack); **model-commit-prefix**, except on the ``migrated`` shard
    (replay issues fresh transaction ids, so raw-id comparison is only
    sound on unmigrated shards); **commit-seq-order** (replay must
    preserve source commit order on the destination chain) and
    **acked-durability** (every acked seq is a committed, durable record
    on the owner).  The last two read the self-describing values and are
    skipped after a state top-up (``topped_up``: a diff copy carries only
    each key's latest value, legitimately skipping seqs).  ``crash`` is
    :func:`crash_fleet`'s result; ``stats`` gains the shard counts.
    """
    recovered_dbs = {}
    durable_ids = {}
    pages_by_node = {}
    for name, node in run.fleet.nodes.items():
        pages, page_errors = read_durable_pages(run.engine, node.device)
        pages_by_node[name] = pages
        violations[f"page-read:{name}"] = page_errors
        recovered_dbs[name], _ = recover_pages(
            pages, [f"{shard_id}.kv" for shard_id in crash.models]
        )
        durable_ids[name] = durable_commit_ids(pages)
        violations[f"ftl-integrity:{name}"] = check_ftl_integrity(
            node.device
        )

    require_acked = all(
        report.reserve_energy_ok for report in crash.reports.values()
    )
    for shard_id, model in crash.models.items():
        owner = crash.owners[shard_id]
        table = f"{shard_id}.kv"
        slice_ = dict(recovered_dbs[owner].table(table).scan())
        violations[f"model-state:{shard_id}"] = model.diff_recovered(
            slice_, require_acked=require_acked
        )
        if shard_id != migrated:
            violations[f"model-commit-prefix:{shard_id}"] = (
                model.diff_commit_prefix(
                    durable_ids[owner], require_acked=require_acked
                )
            )
        if not topped_up:
            seqs = durable_seqs(pages_by_node[owner], table)
            violations[f"commit-seq-order:{shard_id}"] = (
                seq_order_violations(shard_id, seqs)
            )
            if require_acked:
                violations[f"acked-durability:{shard_id}"] = (
                    acked_durability_violations(
                        shard_id, owner, range(model.total_acked()), seqs
                    )
                )
    stats.update(crash.stats)
    stats["durable_commits"] = {
        name: len(ids) for name, ids in durable_ids.items()
    }


def durable_seqs(pages, table):
    """Sequence numbers of the table's committed data records, log order."""
    reader = LogReader()
    seqs = []
    for _commit, data in reader.committed(reader.feed(pages)):
        for record in data:
            value = record.value
            if (record.table == table and isinstance(value, str)
                    and "-v" in value):
                seqs.append(int(value.rsplit("-v", 1)[1]))
    return seqs


def seq_order_violations(shard_id, seqs):
    """Committed records must carry strictly increasing sequence numbers."""
    for earlier, later in zip(seqs, seqs[1:]):
        if later <= earlier:
            return [
                f"seq-order: {shard_id} committed v{later} after v{earlier} "
                f"in the owner's durable log (replay broke commit order)"
            ]
    return []


def acked_durability_violations(shard_id, owner, acked, seqs):
    """Every acked sequence number must be durable on the owner chain."""
    missing = sorted(set(acked) - set(seqs))
    if not missing:
        return []
    return [
        f"acked-durability: {shard_id} acked seqs "
        f"{missing[:5]}{'...' if len(missing) > 5 else ''} are not durable "
        f"on owner {owner} ({len(missing)} of {len(acked)} acked lost)"
    ]
