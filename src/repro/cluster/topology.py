"""Pre-wired cluster topologies and the secondary apply loop."""

from repro.cluster.server import Server
from repro.core.replication import policy_by_name
from repro.db.recovery import LogReader, apply_transactions
from repro.pcie.ntb import NtbBridge
from repro.ssd.nvme import AdminOpcode


class Cluster:
    """A set of servers with replication roles configured."""

    def __init__(self, engine, servers, bridges, primary_name, order=None):
        self.engine = engine
        self.servers = {server.name: server for server in servers}
        self.bridges = bridges
        self.primary_name = primary_name
        # Replication order: head first.  For a chain this is the relay
        # path; for a star it is just the wiring order.  Reconfiguration
        # edits it as servers die.
        self.order = list(order) if order else [s.name for s in servers]

    @property
    def primary(self):
        return self.servers[self.primary_name]

    def secondaries(self):
        return [
            server
            for name, server in self.servers.items()
            if name != self.primary_name
        ]

    def _membership(self, action, site, **detail):
        """Emit a supervisor-track instant for a membership change.

        Joins and evictions used to be invisible in Perfetto exports —
        the ChainSupervisor traces its *decisions*, but topology edits
        made directly (tests, fleet migrations, manual ops) left no
        mark.  Now the cluster itself records every order/role change.
        """
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("supervisor", "membership", action=action,
                           site=site, order=",".join(self.order), **detail)

    def predecessor_of(self, name):
        """Nearest *alive* server upstream of ``name`` in the chain order."""
        index = self.order.index(name)
        for candidate in reversed(self.order[:index]):
            server = self.servers[candidate]
            if not server.device.halted:
                return server
        return None

    def successor_of(self, name):
        """Nearest *alive* server downstream of ``name`` in the chain order."""
        index = self.order.index(name)
        for candidate in self.order[index + 1:]:
            server = self.servers[candidate]
            if not server.device.halted:
                return server
        return None

    def resync(self, secondary_name):
        """Re-ship the log range ``secondary_name`` is missing.

        The management plane queries the rejoining secondary for its
        contiguous frontier (what a real deployment reads back via the
        status admin command) and asks its upstream neighbor to re-offer
        retained history from that byte onward.  Duplicates the secondary
        already holds are discarded at its CMB, so over-shipping is safe.
        Returns the bytes offered, or 0 when there is no upstream flow.
        """
        upstream = self.predecessor_of(secondary_name)
        if upstream is None:
            return 0
        transport = upstream.device.transport
        if secondary_name not in transport.peers:
            return 0
        frontier = self.servers[secondary_name].device.cmb.credit.value
        return transport.resync_peer(secondary_name, from_offset=frontier)

    def reconfigure_around(self, dead_name):
        """Splice a dead server out of the chain (Section 7.1's step).

        The dead server's upstream neighbor drops its mirror flow toward
        it; if an alive successor exists further down the chain, a fresh
        NTB hop is cabled between the two survivors, the upstream opens a
        mirror flow over it, and the successor is resynced from retained
        history.  The chain order forgets the dead server either way.
        """
        from repro.pcie.ntb import NtbBridge, NtbPort

        if dead_name not in self.order:
            raise KeyError(f"{dead_name!r} is not part of this cluster")
        upstream = self.predecessor_of(dead_name)
        successor = self.successor_of(dead_name)
        if upstream is not None:
            transport = upstream.device.transport
            if dead_name in transport.peers:
                transport.remove_peer(dead_name)
        self.order.remove(dead_name)
        self._membership("evict", dead_name,
                         upstream=upstream.name if upstream else "",
                         successor=successor.name if successor else "")
        if upstream is None or successor is None:
            return None
        new_port = NtbPort(self.engine,
                           f"{upstream.name}.right@{successor.name}")
        upstream.device.transport.attach_extra_port(new_port)
        bridge = NtbBridge(self.engine, new_port,
                           successor.device.transport.ntb_port)
        self.bridges.append(bridge)
        upstream.right_port = new_port
        if successor.name not in upstream.device.transport.peers:
            upstream.device.transport.add_peer(successor.name, port=new_port)
        successor.device.transport.set_secondary(upstream.name)
        self.resync(successor.name)
        return bridge

    def reattach(self, name):
        """Re-admit a rebooted, spliced-out server at the tail of the chain.

        The complement of :meth:`reconfigure_around`: a server that was
        evicted (removed from ``order``) and has since rebooted is cabled
        to the current tail over a fresh NTB hop, given the secondary
        role under the tail, and resynced from the tail's history.  Any
        mirror flows the server remembers from its old chain position are
        dropped first — the tail of the chain mirrors to nobody, and a
        stale flow toward a server that is now *upstream* would echo the
        stream back into the chain.  Returns the bytes offered by the
        resync.
        """
        from repro.pcie.ntb import NtbBridge, NtbPort

        server = self.servers[name]
        if name in self.order:
            raise ValueError(f"{name!r} is still part of the chain")
        if server.device.halted:
            raise RuntimeError(f"{name!r} is down; rejoin it before "
                               f"reattaching")
        transport = server.device.transport
        for peer in list(transport.peers):
            transport.remove_peer(peer)
        tail = self.servers[self.order[-1]]
        new_port = NtbPort(self.engine, f"{tail.name}.right@{name}")
        tail.device.transport.attach_extra_port(new_port)
        bridge = NtbBridge(self.engine, new_port, server.ntb_port)
        self.bridges.append(bridge)
        tail.right_port = new_port
        if name not in tail.device.transport.peers:
            tail.device.transport.add_peer(name, port=new_port)
        transport.set_secondary(tail.name)
        self.order.append(name)
        self._membership("join", name, tail=tail.name)
        return self.resync(name)

    def set_replication_policy(self, policy_name):
        """Switch the primary's counter-combination policy at runtime."""
        policy_by_name(policy_name)  # validate early

        def proc():
            yield self.primary.device.admin(
                AdminOpcode.XSSD_CONFIGURE, replication_policy=policy_name
            )

        return self.engine.process(proc(), name="set-policy")

    def start_secondary_apply(self, server_name, database):
        """Run the hot-standby loop: x_pread shipped pages, apply records.

        This is step (3) of Fig. 1 (right): the remote database updates
        its own memory from the log stream the devices replicated.
        Returns the loop process; stop it with ``.stop()`` on the handle.
        """
        server = self.servers[server_name]
        loop = SecondaryApplyLoop(self.engine, server, database)
        loop.start()
        return loop

    def promote(self, new_primary_name):
        """Fail over: make ``new_primary_name`` the primary for the rest.

        The paper leaves data transfer during promotion to the database
        (Section 7.1); this helper only flips transport roles, which is
        exactly what the device offers.
        """
        def proc():
            new_primary = self.servers[new_primary_name]
            yield new_primary.device.admin(AdminOpcode.XSSD_SET_PRIMARY)
            for name, server in self.servers.items():
                if name == new_primary_name or server.device.halted:
                    continue
                yield new_primary.device.admin(
                    AdminOpcode.XSSD_ADD_PEER, peer=name
                )
                yield server.device.admin(
                    AdminOpcode.XSSD_SET_SECONDARY, primary=new_primary_name
                )
            old_primary = self.primary_name
            self.primary_name = new_primary_name
            self._membership("promote", new_primary_name,
                             demoted=old_primary)

        return self.engine.process(proc(), name="promote")


class SecondaryApplyLoop:
    """Continuously applies destaged log pages into a standby database."""

    def __init__(self, engine, server, database, poll_ns=50_000.0):
        self.engine = engine
        self.server = server
        self.database = database
        self.poll_ns = poll_ns
        self.transactions_applied = 0
        self._running = False
        self._process = None

    def start(self):
        if self._running:
            raise RuntimeError("apply loop already running")
        self._running = True
        self._process = self.engine.process(self._loop(),
                                            name="secondary-apply")
        return self._process

    def stop(self):
        self._running = False

    def _loop(self):
        log = self.server.log
        reader = LogReader()  # batches straddle x_pread rounds
        while self._running:
            destage = self.server.device.destage
            if destage.durable_tail > log.read_sequence:
                pages = yield log.x_pread(min_bytes=1)
                self.transactions_applied += apply_transactions(
                    self.database, reader.committed(reader.feed(pages))
                )
            else:
                yield self.engine.timeout(self.poll_ns)


def _wire(engine, names, config_factory):
    servers = [Server(engine, name, config_factory()) for name in names]
    bridges = [
        NtbBridge(engine, left.ntb_port, right.ntb_port)
        for left, right in zip(servers, servers[1:])
    ]
    for server in servers:
        server.start()
    return servers, bridges


def replicated_pair(engine, config_factory, policy="eager"):
    """Primary + one secondary over one NTB bridge (the Fig. 13 setup)."""
    servers, bridges = _wire(engine, ["primary", "secondary"], config_factory)
    cluster = Cluster(engine, servers, bridges, primary_name="primary",
                      order=["primary", "secondary"])
    primary, secondary = servers
    primary.right_port = primary.ntb_port
    primary.become_primary(["secondary"])
    secondary.become_secondary("primary")
    cluster.set_replication_policy(policy)
    engine.run(until=engine.now + 100_000.0)  # let the admin commands land
    return cluster


def replicated_chain(engine, config_factory, secondaries=2, names=None):
    """Primary + N daisy-chained secondaries (chain replication layout).

    Each server mirrors to its right-hand neighbor; acknowledgements (the
    credit counters) relay leftward, so the primary's single shadow
    converges to the *tail's* progress — exactly the counter the chain
    policy exposes.  Middle servers get a second NTB port, as a real
    daisy-chained adapter provides.

    ``names`` overrides the default ``primary``/``secondary-N`` server
    names (head of the list is the primary); the fleet layer uses this
    to run many chains under one engine without name collisions.
    """
    from repro.pcie.ntb import NtbPort

    if names is None:
        names = ["primary"] + [f"secondary-{i}"
                               for i in range(1, secondaries + 1)]
    names = list(names)
    if len(names) < 2:
        raise ValueError("a chain needs a primary and at least one secondary")
    servers = [Server(engine, name, config_factory()) for name in names]
    bridges = []
    for left, right in zip(servers, servers[1:]):
        if left.name == names[0]:
            left_port = left.ntb_port  # primary's main port faces right
        else:
            left_port = NtbPort(engine, f"{left.name}.right")
            left.device.transport.attach_extra_port(left_port)
        bridges.append(NtbBridge(engine, left_port, right.ntb_port))
        left.right_port = left_port
    for server in servers:
        server.start()
    cluster = Cluster(engine, servers, bridges, primary_name=names[0],
                      order=names)
    # Roles: head is primary, everyone else is secondary; every non-tail
    # server opens a mirror flow toward its right neighbor.
    transports = [server.device.transport for server in servers]
    transports[0].set_primary()
    for index in range(1, len(servers)):
        transports[index].set_secondary(servers[index - 1].name)
    for index, (left, right) in enumerate(zip(servers, servers[1:])):
        transports[index].add_peer(right.name, port=left.right_port)
    cluster.set_replication_policy("chain")
    engine.run(until=engine.now + 100_000.0)
    return cluster
