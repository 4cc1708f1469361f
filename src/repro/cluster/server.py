"""One server: a Villars device plus its host-side software."""

from repro.core.crash import PowerLossInjector
from repro.core.device import XssdDevice
from repro.db.engine import Database
from repro.host.api import XssdLogFile
from repro.pcie.ntb import NtbPort
from repro.sim.units import KIB


class Server:
    """A host with one X-SSD device and the drop-in log API.

    ``with_database()`` attaches an in-memory database whose WAL goes to
    the device's fast side.  Secondaries typically skip the database and
    run an apply loop over ``x_pread`` instead (see
    :mod:`repro.cluster.topology`).
    """

    def __init__(self, engine, name, villars_config):
        self.engine = engine
        self.name = name
        self.device = XssdDevice(engine, villars_config, name=f"{name}.xssd")
        # The transport identifies itself by the *server* name in counter
        # updates; peers register that same name via XSSD_ADD_PEER.
        self.device.transport.name = name
        self.ntb_port = NtbPort(engine, name)
        self.device.transport.attach_ntb(self.ntb_port)
        self.log = XssdLogFile(self.device)
        self.database = None
        self.power = PowerLossInjector(engine, self.device)
        self._started = False

    def start(self):
        if self._started:
            raise RuntimeError(f"server {self.name} already started")
        self._started = True
        self.device.start()
        return self

    def with_database(self, group_commit_bytes=16 * KIB,
                      group_commit_timeout_ns=100_000.0):
        if self.database is not None:
            raise RuntimeError(f"server {self.name} already has a database")
        self.database = Database(
            self.engine, self.log,
            group_commit_bytes=group_commit_bytes,
            group_commit_timeout_ns=group_commit_timeout_ns,
            name=f"{self.name}.db",
        )
        return self.database

    # -- role control through the admin path --------------------------------------

    def become_primary(self, peers):
        """Configure this server's device as replication primary."""
        from repro.ssd.nvme import AdminOpcode

        def proc():
            yield self.device.admin(AdminOpcode.XSSD_SET_PRIMARY)
            for peer in peers:
                yield self.device.admin(AdminOpcode.XSSD_ADD_PEER, peer=peer)

        return self.engine.process(proc(), name=f"{self.name}-to-primary")

    def become_secondary(self, primary_name):
        from repro.ssd.nvme import AdminOpcode

        def proc():
            yield self.device.admin(
                AdminOpcode.XSSD_SET_SECONDARY, primary=primary_name
            )

        return self.engine.process(proc(), name=f"{self.name}-to-secondary")

    def become_standalone(self):
        from repro.ssd.nvme import AdminOpcode

        def proc():
            yield self.device.admin(AdminOpcode.XSSD_SET_STANDALONE)

        return self.engine.process(proc(), name=f"{self.name}-to-standalone")

    def crash(self):
        """Sudden power loss on this server; returns the crash report."""
        return self.power.power_loss()

    def fail_supercap(self):
        """Break the reserve-energy path: the next crash loses the queue."""
        self.power.fail_supercap()
        return self

    def rejoin(self):
        """Reboot a crashed server and re-register with its primary.

        The device restarts its loops over surviving state; if the
        transport was a secondary, re-asserting the role restarts the
        counter reporter the crash killed.  Re-shipping the log range the
        server missed is the cluster's job (see ``Cluster.resync``).
        """
        from repro.core.transport import TransportRole

        if not self.device.halted:
            raise RuntimeError(f"server {self.name} is not down")
        self.device.restart()
        transport = self.device.transport
        if (transport.role is TransportRole.SECONDARY
                and transport.primary_name is not None):
            transport.set_secondary(transport.primary_name)
        return self
