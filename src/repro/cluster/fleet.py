"""The fleet: N X-SSD replication chains under one sim engine.

One :class:`FleetNode` is what a single-chain experiment calls "the
cluster": a primary with a daisy-chained secondary set, one shared
:class:`~repro.db.engine.Database` on the primary (one WAL, one LSN
space, group commit across every shard on the node), a per-node
:class:`~repro.health.admission.AdmissionController`, and optionally a
:class:`~repro.health.supervisor.ChainSupervisor` healing the chain.

A :class:`Shard` is one tenant log stream placed onto a node.  Shards
namespace their tables inside the node database (``"<shard>.<table>"``
via :class:`ShardView`), so a node hosts many tenants in one WAL while
recovery, replication, and the checker keep working unchanged — a
shard's records are simply the node's records whose table name carries
the shard prefix.  Every shard commit passes through the node's
admission controller under the shard's own fair-throttle lane, which is
what keeps tenants isolated while a migration's replay traffic competes
on its own lane (see :mod:`repro.cluster.rebalance`).

:class:`Fleet` holds the nodes, a consistent-hash placement
(:mod:`repro.cluster.placement`), and the shard directory.  Placement
decides where a shard *starts*; the directory records where it actually
*is* (migrations move shards without consulting placement).
"""

from repro.cluster.placement import HashRingPlacement
from repro.cluster.topology import replicated_chain
from repro.db.txn import TransactionAborted
from repro.health.admission import AdmissionController
from repro.health.errors import DeviceBusy
from repro.sim.units import KIB


class _PrefixedTransaction:
    """A transaction whose table names are rewritten into a shard's space."""

    __slots__ = ("_txn", "_prefix")

    def __init__(self, txn, prefix):
        self._txn = txn
        self._prefix = prefix

    @property
    def txn_id(self):
        return self._txn.txn_id

    @property
    def state(self):
        return self._txn.state

    def read(self, table_name, key):
        return self._txn.read(self._prefix + table_name, key)

    def write(self, table_name, key, value):
        return self._txn.write(self._prefix + table_name, key, value)

    def commit(self):
        return self._txn.commit()

    def commit_async(self):
        return self._txn.commit_async()

    def abort(self):
        return self._txn.abort()


class ShardView:
    """A shard-scoped window onto a node's shared database.

    Presents the plain :class:`~repro.db.engine.Database` surface the
    workloads expect (``create_table`` / ``table`` / ``begin``) while
    rewriting every table name to ``"<shard>.<name>"``.  TPC-C and YCSB
    tenants run against views without knowing they share a node.
    """

    def __init__(self, database, prefix):
        self.database = database
        self.prefix = prefix

    @property
    def engine(self):
        return self.database.engine

    @property
    def stats(self):
        return self.database.stats

    @property
    def log_manager(self):
        return self.database.log_manager

    def create_table(self, name):
        return self.database.create_table(self.prefix + name)

    def table(self, name):
        return self.database.table(self.prefix + name)

    def tables(self):
        """The shard's tables, keyed by their *bare* (unprefixed) names."""
        return {
            name[len(self.prefix):]: table
            for name, table in self.database.tables().items()
            if name.startswith(self.prefix)
        }

    def begin(self):
        return _PrefixedTransaction(self.database.begin(), self.prefix)

    def state(self):
        """Canonical committed rows per table (for migration comparison)."""
        return {
            name: dict(table.scan())
            for name, table in sorted(self.tables().items())
        }

    def checksum(self):
        total = 0
        for table in self.tables().values():
            total ^= table.checksum()
        return total


class Shard:
    """One tenant log stream: a view plus its admission lane and gate."""

    def __init__(self, fleet, shard_id, bootstrap=None,
                 est_txn_bytes=2 * KIB):
        self.fleet = fleet
        self.shard_id = shard_id
        self.prefix = f"{shard_id}."
        self.writer_id = f"shard:{shard_id}"
        self.bootstrap = bootstrap  # callable(view): schema + base rows
        self.est_txn_bytes = est_txn_bytes
        self.node = None
        self.view = None
        self.inflight = 0
        self.commits = 0
        self.busy_rejections = 0
        self.bytes_admitted = 0
        self._gate = None  # event writers wait on while migration drains
        self._drained = None

    # -- placement / migration plumbing -------------------------------------------

    def attach(self, node):
        """Bind this shard to ``node`` (initial placement or cutover).

        A node that holds none of the shard's tables yet gets them from
        ``bootstrap``; one that does (a migration destination, a restored
        node) keeps its rows.
        """
        if self.node is not None:
            self.node.admission.unregister_writer(self.writer_id)
            self.node.shards.pop(self.shard_id, None)
        self.node = node
        self.view = ShardView(node.database, self.prefix)
        node.admission.register_writer(self.writer_id)
        node.shards[self.shard_id] = self
        if self.bootstrap is not None and not self.view.tables():
            self.bootstrap(self.view)
        return self

    def gate(self):
        """Hold new transactions at the door (migration drain/cutover)."""
        if self._gate is None:
            self._gate = self.fleet.engine.event()
        return self._gate

    def ungate(self):
        gate, self._gate = self._gate, None
        if gate is not None and not gate.triggered:
            gate.succeed()

    @property
    def gated(self):
        return self._gate is not None

    def wait_drained(self):
        """Event firing once no admitted transaction is in flight."""
        event = self.fleet.engine.event()
        if self.inflight == 0:
            event.succeed()
        else:
            self._drained = event
        return event

    def _note_done(self):
        if self.inflight == 0 and self._drained is not None:
            drained, self._drained = self._drained, None
            if not drained.triggered:
                drained.succeed()

    # -- the write path ------------------------------------------------------------

    def run_body(self, body):
        """Run one transaction body against this shard (a sim process).

        Waits out any migration gate, passes the node's admission
        controller on this shard's lane (:class:`DeviceBusy` propagates
        to the caller for backoff), executes ``body(txn)``, and commits.
        Returns the commit LSN.  ``TransactionAborted`` propagates after
        the admission slot is released.
        """
        while self._gate is not None:
            yield self._gate
        # Bind *after* the gate: a cutover may have moved us while we
        # waited, and the commit must land on the new owner.
        node = self.node
        est = self.est_txn_bytes
        try:
            node.admission.admit(self.writer_id, est)
        except DeviceBusy:
            self.busy_rejections += 1
            raise
        self.inflight += 1
        try:
            txn = self.view.begin()
            body(txn)
            lsn = yield txn.commit()
        finally:
            self.inflight -= 1
            node.admission.release(self.writer_id, est)
            self._note_done()
        self.commits += 1
        self.bytes_admitted += est
        return lsn


def kv_bootstrap(view):
    """The minimal shard schema: one ``kv`` table (checker + tests)."""
    view.create_table("kv")


class FleetNode:
    """One replication chain, its shared database, and its control plane."""

    def __init__(self, fleet, name, config_factory, replicas,
                 group_commit_bytes, group_commit_timeout_ns, admission_bytes,
                 supervise):
        if replicas < 1:
            raise ValueError("a fleet node needs at least one secondary")
        self.fleet = fleet
        self.engine = fleet.engine
        self.name = name
        chain_names = [f"{name}.primary"] + [
            f"{name}.secondary-{i}" for i in range(1, replicas + 1)
        ]
        self.cluster = replicated_chain(self.engine, config_factory,
                                        names=chain_names)
        self.database = self.cluster.primary.with_database(
            group_commit_bytes=group_commit_bytes,
            group_commit_timeout_ns=group_commit_timeout_ns,
        )
        primary_device = self.cluster.primary.device
        self.admission = AdmissionController(
            primary_device,
            max_outstanding_bytes=admission_bytes,
            name=f"{name}.admission",
        )
        self.supervisor = None
        if supervise:
            from repro.health.supervisor import ChainSupervisor

            self.supervisor = ChainSupervisor(
                self.engine, self.cluster, admission=self.admission,
                name=f"{name}.supervisor",
            )
            self.supervisor.start()
        self.shards = {}  # shard_id -> Shard currently owned here
        self.archiver = None  # set by Fleet.enable_dr
        self._last_admitted_bytes = 0

    @property
    def primary(self):
        return self.cluster.primary

    @property
    def device(self):
        return self.cluster.primary.device

    def load_delta(self):
        """Admitted bytes since the last call (the supervisor's signal)."""
        total = self.admission.admitted_bytes
        delta = total - self._last_admitted_bytes
        self._last_admitted_bytes = total
        return delta

    def stop(self):
        if self.supervisor is not None:
            self.supervisor.stop()
        if self.archiver is not None:
            self.archiver.stop()
        self.database.log_manager.stop()


class Fleet:
    """N nodes, a consistent-hash placement, and the shard directory."""

    def __init__(self, engine, config_factory, replicas=1,
                 name="fleet", group_commit_bytes=2 * KIB,
                 group_commit_timeout_ns=20_000.0, admission_bytes=None,
                 supervise=False):
        self.engine = engine
        self.config_factory = config_factory
        self.placement = HashRingPlacement()
        self.name = name
        # Every node is built with the same settings.
        self.node_kw = dict(
            replicas=replicas, group_commit_bytes=group_commit_bytes,
            group_commit_timeout_ns=group_commit_timeout_ns,
            admission_bytes=admission_bytes, supervise=supervise,
        )
        self.nodes = {}  # name -> FleetNode
        self.shards = {}  # shard_id -> Shard
        self.moves = []  # completed migrations: plain dict records
        self.grid = None  # remote archive grid, set by enable_dr
        self.slo = None  # SloController, set by enable_slo

    # -- membership ----------------------------------------------------------------

    def add_node(self, name):
        if name in self.nodes:
            raise ValueError(f"node {name!r} already in the fleet")
        node = FleetNode(self, name, self.config_factory, **self.node_kw)
        self.nodes[name] = node
        self.placement.add_device(name)
        self._instant("node-join", name)
        return node

    def add_nodes(self, count, prefix="node"):
        return [self.add_node(f"{prefix}{i}") for i in range(count)]

    # -- shards --------------------------------------------------------------------

    def create_shard(self, shard_id, node=None, bootstrap=kv_bootstrap,
                     est_txn_bytes=2 * KIB):
        """Place a new shard (explicit ``node`` overrides the policy)."""
        if shard_id in self.shards:
            raise ValueError(f"shard {shard_id!r} already exists")
        owner = node or self.placement.place(shard_id)
        shard = Shard(self, shard_id, bootstrap=bootstrap,
                      est_txn_bytes=est_txn_bytes)
        shard.attach(self.nodes[owner])
        self.shards[shard_id] = shard
        self._instant("shard-place", shard_id, node=owner)
        return shard

    def enable_dr(self, grid, **archiver_kw):
        """Attach one WAL archiver per node, shipping to ``grid``.

        Call after :meth:`add_nodes`: each existing node gets an
        :class:`~repro.dr.archive.Archiver` tailing its primary's
        destage ring (nodes added later are not auto-covered).
        ``archiver_kw`` passes through — ``segment_bytes``, ``poll_ns``,
        ``snapshot_every_ns``, ``drop_segment_seqs`` (the seeded bug).
        Returns the archivers, started, in node-name order.
        """
        from repro.dr.archive import Archiver

        self.grid = grid
        archivers = []
        for name, node in sorted(self.nodes.items()):
            if node.archiver is not None:
                raise RuntimeError(f"node {name!r} already has an archiver")
            node.archiver = Archiver(
                self.engine, name, node.device, node.database, grid,
                **archiver_kw,
            ).start()
            archivers.append(node.archiver)
            self._instant("dr-enable", name)
        return archivers

    def enable_slo(self, target_p99_ns, **controller_kw):
        """Attach and start one :class:`~repro.slo.SloController`.

        Call after :meth:`add_nodes`: the controller builds one signal
        reader per existing node (nodes added later are not
        auto-covered).  ``controller_kw`` passes through — ``poll_ns``,
        ``enter_polls``/``exit_polls``, ``name`` and
        ``seed_shed_acked_bug`` (the checker's mutation).  Returns the
        controller, started.
        """
        from repro.slo import SloController

        if self.slo is not None:
            raise RuntimeError("fleet already has an SLO controller")
        self.slo = SloController(self, target_p99_ns, **controller_kw)
        self.slo.start()
        return self.slo

    def node_of(self, shard_id):
        """The shard's *current* owner (directory, not placement policy)."""
        return self.shards[shard_id].node.name

    def migrate(self, shard_id, dest, **kw):
        """Start a shard migration; returns the ShardMigration handle."""
        from repro.cluster.rebalance import ShardMigration

        migration = ShardMigration(self, self.shards[shard_id], dest, **kw)
        migration.start()
        return migration

    def note_move(self, shard, source, dest, detail=None):
        record = {
            "time_ns": self.engine.now,
            "shard": shard.shard_id,
            "source": source,
            "dest": dest,
        }
        if detail:
            record.update(detail)
        self.moves.append(record)
        self._instant("shard-move", shard.shard_id, source=source, dest=dest)

    # -- aggregate accounting --------------------------------------------------------

    def total_commits(self):
        return sum(shard.commits for shard in self.shards.values())

    def stop(self):
        if self.slo is not None:
            self.slo.stop()
        for node in self.nodes.values():
            node.stop()

    def _instant(self, action, site, **detail):
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(self.name, action, site=str(site), **detail)


def run_shard_body(engine, shard, body):
    """Drive one body to commit with DeviceBusy backoff (a sim process).

    The standard tenant idiom: retry ``DeviceBusy`` after the device's
    suggested delay and aborted transactions immediately, as often as it
    takes.  Returns the commit LSN.
    """
    while True:
        try:
            lsn = yield from shard.run_body(body)
            return lsn
        except DeviceBusy as busy:
            yield engine.timeout(busy.retry_after_ns)
        except TransactionAborted:
            pass  # retry at once
