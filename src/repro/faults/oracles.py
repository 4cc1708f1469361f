"""Invariant oracles: what must hold no matter which faults fired.

Each checker inspects post-run state and returns a list of violation
strings (empty means the invariant held), so a scenario can collect every
broken promise in one pass; :func:`assert_oracles` turns a non-empty
result into an :class:`OracleViolation` for test use.

The oracles encode the paper's guarantees:

* **durable prefix** (Section 4.1): what survives a crash is a gap-free
  prefix of the log stream, at least as long as the credit counter the
  host last saw — unless the reserve energy itself failed;
* **no lost ack** (Section 5): a transaction acknowledged as committed is
  recoverable after the crash;
* **replica prefix** (Section 4.2): a secondary holds a (possibly
  shorter) prefix of exactly the bytes the primary shipped — never
  diverging content;
* **FTL integrity** (Section 7.1): mapping bijectivity and bad-block
  avoidance survive program failures and retirements;
* **visible-counter bound**: the policy counter never overpromises —
  it cannot exceed local persistence nor a peer's actual progress.
"""

class OracleViolation(AssertionError):
    """One or more durability invariants did not hold."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "; ".join(self.violations) if self.violations else "violation"
        )


def assert_oracles(*violation_lists):
    """Raise :class:`OracleViolation` if any checker reported a problem."""
    merged = [v for violations in violation_lists for v in violations]
    if merged:
        raise OracleViolation(merged)


class StreamRecorder:
    """Passive witness of one device's log stream.

    Hooks the CMB intake tap and the credit watcher, so oracles can
    compare what a device *received* and *acknowledged* against its
    peers without relying on state the crash path tears down.
    """

    def __init__(self, device, name=None):
        self.device = device
        self.name = name or device.name
        self.chunks = []  # (time_ns, offset, nbytes, payload)
        self.max_credit_seen = 0
        self.max_visible_seen = 0
        device.cmb.tap_intake(self._on_chunk)
        device.cmb.watch_credit(self._on_credit)

    def _on_chunk(self, offset, nbytes, payload):
        self.chunks.append((self.device.engine.now, offset, nbytes, payload))

    def _on_credit(self, value):
        self.max_credit_seen = max(self.max_credit_seen, value)

    def note_visible(self, value):
        """Record a policy-visible counter value the host actually read."""
        self.max_visible_seen = max(self.max_visible_seen, value)

    def coverage(self):
        """Merged (start, end) intervals of every byte ever received."""
        intervals = sorted(
            (offset, offset + nbytes) for _t, offset, nbytes, _p in self.chunks
        )
        merged = []
        for start, end in intervals:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged


def check_durable_prefix(report, pages):
    """The crash-surviving pages form a gap-free stream prefix.

    ``report`` is the :class:`~repro.core.crash.CrashReport`; ``pages``
    are the destaged pages read back in sequence order.  With working
    reserve energy the durable prefix must reach at least the credit
    counter value at the instant of the crash (every acknowledged byte
    survives); a failed supercap waives that bound but never the
    gap-freedom of what *did* survive.
    """
    violations = []
    cursor = None
    for page in pages:
        if cursor is not None and page.stream_offset != cursor:
            violations.append(
                f"durable-prefix: page at stream offset {page.stream_offset} "
                f"does not continue prefix ending at {cursor}"
            )
        chunk_cursor = page.stream_offset
        for offset, nbytes, _payload in page.chunks:
            if offset != chunk_cursor:
                violations.append(
                    f"durable-prefix: chunk at {offset} inside page "
                    f"{page.stream_offset} leaves a hole at {chunk_cursor}"
                )
            chunk_cursor = offset + nbytes
        cursor = page.end_offset
    if pages and cursor != report.durable_offset:
        violations.append(
            f"durable-prefix: pages end at {cursor} but the report claims "
            f"durable_offset={report.durable_offset}"
        )
    if report.reserve_energy_ok:
        if report.durable_offset < report.credit_at_crash:
            violations.append(
                f"durable-prefix: durable offset {report.durable_offset} "
                f"below the acknowledged credit {report.credit_at_crash} "
                f"despite working reserve energy"
            )
    return violations


def check_no_lost_acks(recovered_values, acknowledged, written=None):
    """Every acknowledged write is recoverable.

    ``recovered_values`` maps key -> recovered value (the post-recovery
    table contents); ``acknowledged`` maps key -> the last value whose
    commit was acknowledged to the client.  ``written``, when given, maps
    key -> set of every value any transaction ever wrote, so the oracle
    can also reject fabricated values.
    """
    violations = []
    for key, value in acknowledged.items():
        got = recovered_values.get(key)
        if got is None:
            violations.append(
                f"no-lost-ack: acknowledged key {key!r} (last value "
                f"{value!r}) missing after recovery"
            )
        elif written is not None and got not in written.get(key, ()):
            violations.append(
                f"no-lost-ack: key {key!r} recovered value {got!r} was "
                f"never written by any transaction"
            )
    return violations


def check_replica_prefix(primary_recorder, secondary_recorder,
                         secondary_credit=None):
    """A secondary's stream is a content-identical prefix of the primary's.

    Every chunk the secondary received must lie inside a chunk the
    primary sent with the *same payload* (resync re-ships tail slices, so
    containment — not equality — is the right relation).  The secondary's
    contiguous frontier must be covered by bytes the primary actually
    emitted.
    """
    violations = []
    primary_chunks = [
        (offset, offset + nbytes, payload)
        for _t, offset, nbytes, payload in primary_recorder.chunks
    ]
    for _t, offset, nbytes, payload in secondary_recorder.chunks:
        end = offset + nbytes
        contained = any(
            p_start <= offset and end <= p_end and payload is p_payload
            for p_start, p_end, p_payload in primary_chunks
        )
        if not contained:
            violations.append(
                f"replica-prefix: {secondary_recorder.name} received "
                f"[{offset}, {end}) which the primary never sent with "
                f"that payload"
            )
    frontier = (secondary_credit if secondary_credit is not None
                else secondary_recorder.max_credit_seen)
    covered = 0
    for start, end in primary_recorder.coverage():
        if start > covered:
            break
        covered = max(covered, end)
    if frontier > covered:
        violations.append(
            f"replica-prefix: {secondary_recorder.name} acknowledged "
            f"{frontier} bytes but the primary only emitted a contiguous "
            f"prefix of {covered}"
        )
    return violations


def check_ftl_integrity(device):
    """Mapping-table bijectivity and bad-block avoidance."""
    violations = []
    ftl = device.conventional.ftl
    table = ftl.table
    geometry = ftl.geometry
    bad = ftl.allocator.bad_blocks
    reverse_seen = {}
    for lba, address in table.forward_items():
        key = (address.channel, address.way, address.block, address.page)
        if key in reverse_seen:
            violations.append(
                f"ftl-integrity: physical page {key} mapped by both "
                f"lba {reverse_seen[key]} and lba {lba}"
            )
        reverse_seen[key] = lba
        if table.lba_of(address) != lba:
            violations.append(
                f"ftl-integrity: forward map lba {lba} -> {key} not "
                f"mirrored in the reverse map"
            )
        if not (0 <= address.channel < geometry.channels
                and 0 <= address.way < geometry.ways_per_channel
                and 0 <= address.block < geometry.blocks_per_die
                and 0 <= address.page < geometry.pages_per_block):
            violations.append(
                f"ftl-integrity: lba {lba} mapped outside the geometry "
                f"at {key}"
            )
    for key, lba in table.reverse_items():
        if table.lookup(lba) is None:
            violations.append(
                f"ftl-integrity: reverse map entry {key} -> {lba} has no "
                f"forward mapping"
            )
    # Retired blocks must never be offered for new placement.  (Pages
    # programmed there *before* retirement legitimately stay mapped —
    # grown bad blocks remain readable; the device only stops writing.)
    for channel in range(geometry.channels):
        for way in range(geometry.ways_per_channel):
            for block in ftl.allocator.free_list(channel, way):
                if (channel, way, block) in bad:
                    violations.append(
                        f"ftl-integrity: retired block "
                        f"{(channel, way, block)} still in the free pool"
                    )
    for key in ftl.allocator.open_blocks():
        if key in bad:
            violations.append(
                f"ftl-integrity: open placement cursor on retired block "
                f"{key}"
            )
    return violations


def check_failover_convergence(events, site, killed_at_ns,
                               detect_within_ns, resync_within_ns):
    """A killed replica is detected, evicted and resynced — on time.

    ``events`` is a supervisor's chronological event list.  The killed
    ``site`` must progress through ``dead-detected`` -> ``evict`` ->
    ``rejoin`` (which implies the reattach + resync succeeded), with the
    detection landing inside ``detect_within_ns`` of the kill and the
    whole loop inside ``resync_within_ns``.  Detection *before* the kill
    would be a false positive and fails too.
    """
    violations = []

    def times(action):
        return [e["time_ns"] for e in events
                if e["site"] == site and e["action"] == action]

    detected = times("dead-detected")
    if not detected:
        violations.append(
            f"failover: {site} killed at {killed_at_ns:.0f}ns was never "
            f"detected dead"
        )
        return violations
    t_detect = detected[0]
    if t_detect < killed_at_ns:
        violations.append(
            f"failover: {site} declared dead at {t_detect:.0f}ns, before "
            f"the kill at {killed_at_ns:.0f}ns (false positive)"
        )
    elif t_detect - killed_at_ns > detect_within_ns:
        violations.append(
            f"failover: detection took {t_detect - killed_at_ns:.0f}ns, "
            f"over the {detect_within_ns:.0f}ns bound"
        )
    evicted = times("evict")
    if not evicted:
        violations.append(f"failover: {site} detected dead but never "
                          f"evicted from the chain")
    elif evicted[0] < t_detect:
        violations.append(
            f"failover: {site} evicted at {evicted[0]:.0f}ns before "
            f"detection at {t_detect:.0f}ns"
        )
    rejoined = times("rejoin")
    if not rejoined:
        violations.append(f"failover: {site} was never reattached and "
                          f"resynced after its eviction")
    elif rejoined[0] - killed_at_ns > resync_within_ns:
        violations.append(
            f"failover: kill-to-resync took "
            f"{rejoined[0] - killed_at_ns:.0f}ns, over the "
            f"{resync_within_ns:.0f}ns bound"
        )
    return violations


def check_bounded_backlog(cmb, name="device"):
    """The CMB intake backlog never exceeded its configured bound.

    Judges ``cmb.intake_backlog_peak``, which the CMB raises on every
    accepted chunk, so the check is exact at every chunk.  With shedding
    active the bound is a hard invariant; an unbounded CMB (``None``)
    passes vacuously.
    """
    bound = cmb.intake_bound_bytes
    peak = cmb.intake_backlog_peak
    if bound is None or peak <= bound:
        return []
    return [
        f"bounded-backlog: {name} intake backlog peaked at {peak} bytes, "
        f"over the {bound}-byte bound"
    ]


def check_visible_counter_bound(cluster):
    """The policy counter never overpromises durability.

    The primary's visible counter must not exceed its own persisted
    prefix, and each shadow counter must not exceed the actual credit of
    the peer it mirrors (shadows relay real reports, so running ahead
    would mean a fabricated acknowledgement).
    """
    violations = []
    primary = cluster.primary.device
    transport = primary.transport
    visible = transport.visible_counter()
    local = primary.cmb.credit.value
    if visible > local:
        violations.append(
            f"visible-counter: policy value {visible} exceeds the "
            f"primary's persisted prefix {local}"
        )
    for peer_name, shadow in transport.shadow_counters.items():
        server = cluster.servers.get(peer_name)
        if server is None:
            continue
        actual = server.device.cmb.credit.value
        if shadow.value > actual:
            violations.append(
                f"visible-counter: shadow for {peer_name} at "
                f"{shadow.value} exceeds its actual credit {actual}"
            )
    return violations
