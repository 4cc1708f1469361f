"""The power-loss protocol: what survives a sudden crash.

Section 4.1 ("Crash Consistency Behavior"): on power loss the CMB module
uses the Destage module to destage the CMB ring in full, under reserve
energy (supercapacitors / independent power in the prototype).  Destaging
stops at the first *gap* in the stream — consistent with the credit
counter, which also only advances over contiguous data.  After reboot, the
application finds the destaged prefix on the conventional side.

The injector also supports *failing* the reserve energy (an ablation the
paper's guarantees rule out, useful for testing that recovery code detects
truncated logs).  :func:`read_durable_pages` is the matching autopsy: it
reads the destaged prefix back off a halted device.
"""


class CrashReport:
    """What the power-loss event did, for assertions and post-mortems."""

    def __init__(self, at_time, queue_bytes_salvaged, pages_destaged,
                 chunks_lost_beyond_gap, durable_offset,
                 reserve_energy_ok=True, credit_at_crash=0):
        self.at_time = at_time
        self.queue_bytes_salvaged = queue_bytes_salvaged
        self.pages_destaged = pages_destaged
        self.chunks_lost_beyond_gap = chunks_lost_beyond_gap
        self.durable_offset = durable_offset
        self.reserve_energy_ok = reserve_energy_ok
        self.credit_at_crash = credit_at_crash

    def as_dict(self):
        """Plain-data form, for JSON output and byte-exact run comparison."""
        return {
            "at_time": self.at_time,
            "queue_bytes_salvaged": self.queue_bytes_salvaged,
            "pages_destaged": self.pages_destaged,
            "chunks_lost_beyond_gap": self.chunks_lost_beyond_gap,
            "durable_offset": self.durable_offset,
            "reserve_energy_ok": self.reserve_energy_ok,
            "credit_at_crash": self.credit_at_crash,
        }

    def __repr__(self):
        return (
            f"CrashReport(t={self.at_time:.0f}ns, "
            f"salvaged={self.queue_bytes_salvaged}B, "
            f"pages={self.pages_destaged}, "
            f"lost_chunks={self.chunks_lost_beyond_gap}, "
            f"durable_offset={self.durable_offset}, "
            f"reserve={'ok' if self.reserve_energy_ok else 'FAILED'})"
        )


class PowerLossInjector:
    """Injects a sudden power interruption into one X-SSD device."""

    def __init__(self, engine, device, reserve_energy_ok=True):
        self.engine = engine
        self.device = device
        self.reserve_energy_ok = reserve_energy_ok
        self.crashes = []

    def fail_supercap(self):
        """Degrade the reserve-energy path: the next crash is dirty.

        This is the ablation the paper's guarantees rule out — a failed
        supercapacitor means the intake queue and the un-destaged ring are
        lost, so recovery must detect a log truncated *below* the credit
        counter the host last saw.
        """
        self.reserve_energy_ok = False
        return self

    def power_loss(self):
        """Cut power now; returns a :class:`CrashReport`.

        With reserve energy: the intake queue drains to PM and the full
        contiguous ring destages to flash.  Without (supercap failure):
        queue contents are lost; only what already reached backing memory
        and flash survives.
        """
        device = self.device
        credit_at_crash = device.cmb.credit.value
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(device.name, "power-loss",
                           credit=credit_at_crash,
                           reserve_ok=self.reserve_energy_ok)
        device.halt()
        salvaged = 0
        pages = 0
        if self.reserve_energy_ok:
            salvaged = device.cmb.drain_pending_to_backing()
            pages = device.destage.destage_all_now()
        lost = device.cmb.ring.drop_pending()
        report = CrashReport(
            at_time=self.engine.now,
            queue_bytes_salvaged=salvaged,
            pages_destaged=pages,
            chunks_lost_beyond_gap=lost,
            durable_offset=device.destage.destaged_offset,
            reserve_energy_ok=self.reserve_energy_ok,
            credit_at_crash=credit_at_crash,
        )
        self.crashes.append(report)
        return report


def read_durable_pages(engine, device):
    """Read back every durable destaged page of a halted device.

    Returns ``(pages, errors)``.  An unreadable page is noted in
    ``errors`` and skipped, so a seeded bug that loses a page mapping
    shows up as a hole in the durable prefix rather than as a crash that
    masks the diff; callers that must be strict raise on any error.

    The engine runs in 1 ms slices, for at most 5 s, and stops after the
    slice in which the read finishes: surviving peers (or a writer still
    polling the dead device) keep the event heap busy, so one long
    ``run(until=...)`` would simulate the whole bound at their
    granularity.
    """
    pages = []
    errors = []

    def reader():
        destage = device.destage
        for sequence in range(destage.head_sequence, destage.durable_tail):
            try:
                page = yield destage.read_page(sequence)
            except Exception as error:  # noqa: BLE001 — evidence, not a bug
                errors.append(
                    f"page-read: durable sequence {sequence} unreadable: "
                    f"{error!r}"
                )
                continue
            pages.append(page)

    done = engine.process(reader(), name="page-collect")
    deadline = engine.now + 5e9
    while not done.triggered and engine.now < deadline:
        engine.run(until=min(engine.now + 1e6, deadline))
    if not done.triggered:
        errors.append("page-read: collection did not finish in bounded time")
    return pages, errors
