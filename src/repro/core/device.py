"""The assembled X-SSD device (Villars reference design).

A :class:`XssdDevice` contains:

* a full conventional SSD (:class:`~repro.ssd.device.ConventionalSsd`) —
  unchanged, as in the prototype;
* the CMB module over SRAM or DRAM backing, exposed through a
  Write-Combining MMIO region on the device's PCIe link;
* the Destage module wired into the conventional side's scheduler;
* the Transport module, reachable via vendor-specific admin commands.

The device is fully NVMe-conformant: everything the fast side adds is
either an MMIO region (CMB/control) or a vendor-specific admin command —
no protocol changes (Section 4.2).
"""

from repro.core.cmb import CmbModule
from repro.core.config import VillarsConfig
from repro.core.destage import DestageModule
from repro.core.replication import policy_by_name
from repro.core.transport import TransportModule
from repro.pcie.mmio import CachePolicy, MmioRegion
from repro.pm.backing import dram_backing, sram_backing
from repro.ssd.device import ConventionalSsd
from repro.ssd.nvme import AdminOpcode


class XssdDevice:
    """One X-SSD device: conventional side + fast side + transport."""

    def __init__(self, engine, config=None, name="villars"):
        self.engine = engine
        self.config = config or VillarsConfig()
        self.name = name
        cfg = self.config

        # Conventional side: an unmodified NVMe SSD.
        self.conventional = ConventionalSsd(engine, cfg.ssd, name=f"{name}.conv")

        # Fast side backing memory.  The DRAM variant's port models its
        # effective share of the DDR3 pool (the rest goes to refresh and
        # the device's regular buffering activity — Section 6's setup).
        if cfg.backing_kind == "sram":
            self.backing = sram_backing(engine, capacity=cfg.cmb_capacity)
        else:
            self.backing = dram_backing(engine, capacity=cfg.cmb_capacity)

        # CMB module + its MMIO windows (data: WC; control: UC loads).
        self.cmb = CmbModule(
            engine, self.backing, queue_bytes=cfg.cmb_queue_bytes,
            name=f"{name}.cmb",
            intake_bound_bytes=cfg.cmb_intake_bound_bytes,
        )
        self.cmb_region = MmioRegion(
            engine, self.conventional.link, size=cfg.cmb_capacity,
            policy=CachePolicy.WRITE_COMBINING, name=f"{name}.cmb-mmio",
        )
        self.cmb_region.on_write(self.cmb.intake)
        self.control_region = MmioRegion(
            engine, self.conventional.link, size=4096,
            policy=CachePolicy.UNCACHED, name=f"{name}.ctrl-mmio",
        )

        # Destage module rides the conventional side's scheduler.
        self.destage = DestageModule(
            engine, self.cmb, self.conventional.scheduler,
            page_bytes=cfg.ssd.geometry.page_bytes,
            lba_ring_blocks=cfg.destage_ring_blocks,
            latency_threshold_ns=cfg.destage_latency_threshold_ns,
            name=f"{name}.destage",
        )

        # Transport module (optional; dormant until given a role).
        self.transport = TransportModule(
            engine, self.cmb, name=name,
            update_period_ns=cfg.transport_update_period_ns,
            seed=cfg.transport_seed,
        )

        self._register_admin_handlers()
        # The single allocation point for the fast-side stream: every
        # writer (drop-in log file, x_alloc allocator, multi-writer
        # lanes) claims its byte ranges here, so several host-side
        # abstractions can share one device without colliding.
        self._stream_cursor = 0
        self._halted = False
        self._started = False
        # Brownout history, kept current by a ChainSupervisor when one
        # watches this device (zeros otherwise); device_snapshot reports
        # it under "health".
        self.brownout_enters = 0
        self.brownout_exits = 0
        self.brownout_active = 0

    # -- stream allocation -------------------------------------------------------

    @property
    def stream_claimed(self):
        """Total stream bytes claimed by all writers so far."""
        return self._stream_cursor

    def claim_stream_range(self, nbytes):
        """Atomically reserve the next ``nbytes`` of the log stream."""
        if nbytes <= 0:
            raise ValueError("claims need at least one byte")
        offset = self._stream_cursor
        self._stream_cursor += nbytes
        return offset

    # -- lifecycle -----------------------------------------------------------------

    def start(self):
        if self._started:
            raise RuntimeError(f"{self.name} already started")
        self._started = True
        self.conventional.start()
        self.cmb.start()
        self.destage.start()
        return self

    def halt(self):
        """Stop all activity (power loss); state is preserved for autopsy."""
        self._halted = True
        self.cmb.stop()
        self.destage.stop()
        self.transport.halt()
        self.conventional.scheduler.stop()
        self.conventional.hic.stop()
        self.conventional.gc.stop()

    def restart(self):
        """Bring a halted device back online (replica reboot/rejoin).

        Restarts every stopped loop over the *surviving* state — mappings,
        destaged pages, and the PM ring carry over, matching a real reboot
        where only volatile queues were lost.  The transport role is kept;
        re-registering with a primary is the cluster layer's job.
        """
        if not self._halted:
            raise RuntimeError(f"{self.name} is not halted")
        self._halted = False
        self.conventional.hic.start(pumps=self.config.ssd.hic_pumps)
        self.conventional.scheduler.start()
        self.conventional.gc.start()
        self.cmb.start()
        self.destage.start()
        self.transport.restart_flows()
        return self

    @property
    def halted(self):
        return self._halted

    # -- fast-side host interface -----------------------------------------------------

    def fast_write(self, stream_offset, nbytes, payload=None):
        """Host store(s) of ``nbytes`` at ``stream_offset`` through CMB MMIO.

        Returns an event firing when the stores (and any WC flush) have
        been issued to the link.  Persistence is observed separately via
        the credit counter — exactly the split the drop-in API manages.
        """
        capacity = self.config.cmb_capacity
        ring_address = stream_offset % capacity
        if ring_address + nbytes <= capacity:
            return self.cmb_region.store(
                ring_address, nbytes, (stream_offset, nbytes, payload))
        # The write wraps the MMIO ring: split into two stores, issued
        # back to back.  Both are posted writes on the same link, so
        # their delivery order — and therefore the intake order at the
        # device — matches the stream order.
        first = capacity - ring_address
        head = self.cmb_region.store(
            ring_address, first, (stream_offset, first, payload))
        tail = self.cmb_region.store(
            0, nbytes - first,
            (stream_offset + first, nbytes - first, payload))
        return self.engine.all_of([head, tail])

    def fast_fence(self):
        """Flush the host's WC buffer toward the device."""
        return self.cmb_region.fence()

    def read_credit(self):
        """Poll the policy-visible credit counter over the control MMIO.

        Event value is the counter (an integer byte count).
        """
        done = self.engine.event()
        load = self.control_region.load(8)

        def _return_value(_event):
            done.succeed(self.transport.visible_counter())

        load.then(_return_value)
        return done

    def read_credit_raw(self):
        """The local (policy-free) counter, same MMIO cost."""
        done = self.engine.event()
        self.control_region.load(8).then(
            lambda _ev: done.succeed(self.cmb.credit.value)
        )
        return done

    # -- vendor-specific admin commands (Section 4.2 / 7.1) -----------------------------

    def _register_admin_handlers(self):
        firmware = self.conventional.firmware

        def set_standalone(_command):
            return self.transport.set_standalone().value

        def set_primary(_command):
            return self.transport.set_primary().value

        def set_secondary(command):
            primary = command.arguments.get("primary", "unknown")
            return self.transport.set_secondary(primary).value

        def add_peer(command):
            peer = command.arguments["peer"]
            self.transport.add_peer(peer)
            return peer

        def remove_peer(command):
            peer = command.arguments["peer"]
            self.transport.remove_peer(peer)
            return peer

        def configure(command):
            if "replication_policy" in command.arguments:
                self.transport.policy = policy_by_name(
                    command.arguments["replication_policy"]
                )
            if "update_period_ns" in command.arguments:
                self.transport.update_period_ns = float(
                    command.arguments["update_period_ns"]
                )
            if "scheduling_mode" in command.arguments:
                self.conventional.scheduler.mode = (
                    command.arguments["scheduling_mode"]
                )
            if "destage_latency_threshold_ns" in command.arguments:
                self.destage.latency_threshold_ns = float(
                    command.arguments["destage_latency_threshold_ns"]
                )
            return "configured"

        def query_status(_command):
            return {
                "role": self.transport.role.value,
                "transport_status": self.transport.status_register,
                "credit": self.cmb.credit.value,
                "visible_credit": self.transport.visible_counter(),
                "destaged_offset": self.destage.destaged_offset,
                "destage_head": self.destage.head_sequence,
                "destage_tail": self.destage.tail_sequence,
            }

        firmware.register_admin_handler(
            AdminOpcode.XSSD_SET_STANDALONE, set_standalone)
        firmware.register_admin_handler(
            AdminOpcode.XSSD_SET_PRIMARY, set_primary)
        firmware.register_admin_handler(
            AdminOpcode.XSSD_SET_SECONDARY, set_secondary)
        firmware.register_admin_handler(AdminOpcode.XSSD_ADD_PEER, add_peer)
        firmware.register_admin_handler(
            AdminOpcode.XSSD_REMOVE_PEER, remove_peer)
        firmware.register_admin_handler(AdminOpcode.XSSD_CONFIGURE, configure)
        firmware.register_admin_handler(
            AdminOpcode.XSSD_QUERY_STATUS, query_status)

    # -- convenience ---------------------------------------------------------------------

    def admin(self, opcode, **arguments):
        """Issue a vendor admin command through the NVMe path."""
        return self.conventional.admin(opcode, **arguments)
