"""Shard migration and fleet-level rebalancing.

A migration moves one shard between nodes without losing an ack: every
transaction the source acknowledged — before, during, or after the move
— must be durable and in commit order on the destination chain.  The
protocol is the classic live-migration shape:

1. **COPY** — while the shard keeps serving writes on the source, scan
   the source primary's destaged WAL ring, extract the shard's committed
   transactions (table-prefix filter over the node's shared log), and
   replay them in commit-LSN order as fresh transactions on the
   destination — which replicates them down the destination chain
   through the ordinary transport path.  Replay traffic passes the
   destination's admission controller on its own migrator lane, so
   tenant fair-throttle shares hold during the move.
2. **DRAIN** — gate the shard (new transactions park at the door) and
   wait for in-flight ones to finish on the source.
3. **CATCHUP** — replay rounds until the destination's shard state
   equals the source's.  The destage ring retains a bounded window; if
   early WAL was evicted before the copy started, replay alone cannot
   converge — after ``max_stalled_rounds`` fruitless rounds the migrator
   falls back to a direct state top-up (a transactional diff copy).
4. **CUTOVER** — re-point the shard directory at the destination, move
   the admission lane, lift the gate.  Parked writers re-read the owner
   after the gate, so their commits land on the new chain.

``early_cutover=True`` deliberately skips DRAIN and CATCHUP — cutting
over while acked source transactions are still unreplayed.  That is the
seeded ack-ordering bug the ``--scenario fleet`` checker family must
catch (see ``repro/check/fleet.py``); it exists only to be found.

:class:`FleetSupervisor` closes the loop: it polls per-node admitted-byte
rates (plus gauge samples when tracing), detects a sustained hot node,
and migrates that node's *coldest* shard to the least-loaded node —
moving the hottest shard would just relocate the hotspot, while shipping
cold colocated tenants away frees capacity under the hot one.
"""

from repro.cluster.fleet import ShardView
from repro.db.log_record import RecordKind
from repro.db.txn import TransactionAborted
from repro.health.errors import DeviceBusy


class StreamScanner:
    """Incremental record extraction over a live destage ring.

    The batch torn-tail rule (:func:`repro.db.recovery.extract_records`)
    needs byte coverage accumulated across *all* pages that carried a
    batch; a batch can straddle scan rounds, so coverage state must
    persist between rounds.  Each :meth:`scan` round reads only pages
    newer than the last round (re-clamped to the ring head after
    evictions) and returns the records that *newly* became durable.
    """

    def __init__(self, device):
        self.device = device
        self._next_sequence = None
        self._covered = {}  # id(batch) -> [batch, bytes seen]
        self._emitted = {}  # id(batch) -> records already returned
        self.pages_read = 0

    def scan(self):
        destage = self.device.destage
        if self._next_sequence is None:
            self._next_sequence = destage.head_sequence
        self._next_sequence = max(self._next_sequence, destage.head_sequence)
        fresh = []
        while self._next_sequence < destage.durable_tail:
            page = yield destage.read_page(self._next_sequence)
            self._next_sequence += 1
            self.pages_read += 1
            for _offset, _nbytes, payload in page.chunks:
                if payload is None:
                    continue
                batch, _cursor, step = payload
                key = id(batch)
                entry = self._covered.get(key)
                if entry is None:
                    entry = self._covered[key] = [batch, 0]
                entry[1] += step
                covered = batch.records_covered_by(entry[1])
                emitted = self._emitted.get(key, 0)
                if len(covered) > emitted:
                    fresh.extend(covered[emitted:])
                    self._emitted[key] = len(covered)
        return fresh


# Historical name; the DR archiver made the scanner a shared surface.
_StreamScanner = StreamScanner


class ShardMigration:
    """One shard's move between fleet nodes; a restartable sim process."""

    PHASES = ("copy", "drain", "catchup", "cutover", "done")

    def __init__(self, fleet, shard, dest, copy_rounds=2,
                 round_wait_ns=150_000.0, max_stalled_rounds=4,
                 early_cutover=False, name=None):
        if dest not in fleet.nodes:
            raise KeyError(f"unknown destination node {dest!r}")
        if fleet.nodes[dest] is shard.node:
            raise ValueError(f"shard {shard.shard_id!r} already on {dest!r}")
        self.fleet = fleet
        self.engine = fleet.engine
        self.shard = shard
        self.source = shard.node
        self.dest = fleet.nodes[dest]
        self.copy_rounds = copy_rounds
        self.round_wait_ns = round_wait_ns
        self.max_stalled_rounds = max_stalled_rounds
        self.early_cutover = early_cutover
        self.name = name or f"migrate:{shard.shard_id}"
        self.writer_id = f"{shard.shard_id}:migrator"
        self.phase = None
        self.events = []  # [{time_ns, phase | action, detail...}]
        self.replayed_txns = 0
        self.topped_up_keys = 0
        self.archive_catchup_txns = 0
        self.busy_backoffs = 0
        self._replayed_ids = set()
        self._txn_buffer = {}  # source txn_id -> [data records]
        self.process = None  # the sim process; yield on it to await the move
        self.done = False
        self.error = None

    def start(self):
        if self.process is not None:
            raise RuntimeError("migration already started")
        self.process = self.engine.process(self._run(), name=self.name)
        return self.process

    # -- bookkeeping ---------------------------------------------------------------

    def _mark(self, phase, **detail):
        self.phase = phase
        self.events.append(
            {"time_ns": self.engine.now, "phase": phase, **detail}
        )
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(self.fleet.name, f"migration-{phase}",
                           shard=self.shard.shard_id,
                           source=self.source.name, dest=self.dest.name,
                           **detail)

    def phase_times(self):
        """Phase -> entry time, for crash-candidate enumeration."""
        times = {}
        for event in self.events:
            times.setdefault(event["phase"], event["time_ns"])
        return times

    # -- the protocol ---------------------------------------------------------------

    def _run(self):
        shard = self.shard
        dest_view = ShardView(self.dest.database, shard.prefix)
        if not dest_view.tables() and shard.bootstrap is not None:
            # Deterministic base state (schema + populated rows) is
            # rebuilt, not shipped: only transactional deltas ride the WAL.
            shard.bootstrap(dest_view)
        self.dest.admission.register_writer(self.writer_id)
        scanner = StreamScanner(self.source.cluster.primary.device)
        try:
            self._mark("copy")
            for _round in range(self.copy_rounds):
                yield from self._replay_round(scanner, dest_view)
                yield self.engine.timeout(self.round_wait_ns)
            if self.early_cutover:
                # BUG (seeded, for the checker): cut over with acked
                # source transactions still unreplayed.
                shard.gate()
            else:
                self._mark("drain")
                shard.gate()
                yield shard.wait_drained()
                self._mark("catchup")
                stalled = 0
                while True:
                    fresh = yield from self._replay_round(scanner, dest_view)
                    if shard.view.state() == dest_view.state():
                        break
                    stalled = 0 if fresh else stalled + 1
                    if stalled >= self.max_stalled_rounds:
                        # The ring evicted early WAL.  A DR-enabled
                        # source still has it archived: replay from the
                        # grid before resorting to a state top-up.
                        yield from self._archive_catchup(dest_view)
                        if shard.view.state() != dest_view.state():
                            yield from self._top_up(dest_view)
                        break
                    yield self.engine.timeout(self.round_wait_ns)
            self._mark("cutover")
            source_name = self.source.name
            shard.attach(self.dest)
            self.fleet.note_move(
                shard, source_name, self.dest.name,
                detail={"replayed_txns": self.replayed_txns,
                        "topped_up_keys": self.topped_up_keys},
            )
            shard.ungate()
            self._mark("done", replayed=self.replayed_txns,
                       topped_up=self.topped_up_keys)
            self.done = True
        except BaseException as exc:  # surface crashes to whoever joins
            self.error = exc
            shard.ungate()
            raise
        finally:
            self.dest.admission.unregister_writer(self.writer_id)

    def _replay_round(self, scanner, dest_view):
        """Scan new WAL, replay this shard's newly committed txns; returns
        how many transactions were replayed."""
        records = yield from scanner.scan()
        commits = []
        for record in records:
            if record.kind is RecordKind.COMMIT:
                commits.append(record)
            elif record.is_data():
                self._txn_buffer.setdefault(record.txn_id, []).append(record)
        commits.sort(key=lambda record: record.lsn)
        replayed = 0
        prefix = self.shard.prefix
        for commit in commits:
            txn_id = commit.txn_id
            data = self._txn_buffer.pop(txn_id, [])
            mine = [r for r in data if r.table.startswith(prefix)]
            if not mine or txn_id in self._replayed_ids:
                continue
            yield from self._replay_txn(dest_view, mine)
            self._replayed_ids.add(txn_id)
            replayed += 1
            self.replayed_txns += 1
        return replayed

    def _replay_txn(self, dest_view, records):
        writes = {}
        for record in sorted(records, key=lambda r: r.lsn):
            value = None if record.kind is RecordKind.DELETE else record.value
            writes[(record.table, record.key)] = value
        est = max(1, sum(record.nbytes for record in records))

        def body(txn):
            for (table, key), value in writes.items():
                txn.write(table, key, value)

        yield from self._commit_on_dest(dest_view, body, est)

    def _commit_on_dest(self, dest_view, body, est):
        """Commit through the destination's migrator admission lane."""
        # A replayed transaction larger than the ceiling could never be
        # admitted; clamp so the controller sees a satisfiable request
        # (the bytes still hit the device — this only shapes pacing).
        est = min(est, self.dest.admission.max_outstanding_bytes // 2 or 1)
        while True:
            try:
                self.dest.admission.admit(self.writer_id, est)
            except DeviceBusy as busy:
                self.busy_backoffs += 1
                yield self.engine.timeout(busy.retry_after_ns)
                continue
            try:
                # The raw database, not the shard view: replayed records
                # already carry prefixed table names.
                txn = dest_view.database.begin()
                body(txn)
                yield txn.commit()
                return
            except TransactionAborted:
                continue  # only self-conflicts possible; retry is safe
            finally:
                self.dest.admission.release(self.writer_id, est)

    def _archive_catchup(self, dest_view):
        """Replay the shard's archived transactions the ring no longer holds.

        Fetches the source archiver's sealed segments from the grid
        (timed transfers — the grid's latency is the cost of this path)
        and replays this shard's not-yet-replayed committed transactions
        in commit-LSN order.  Unlike a state top-up, this preserves the
        full commit sequence on the destination log.  Any grid failure
        (partition, missing object) just returns — the caller falls back
        to the top-up.  Returns the number of transactions replayed.
        """
        archiver = getattr(self.source, "archiver", None)
        if archiver is None:
            return 0
        from repro.dr.archive import record_from_dict
        from repro.dr.grid import GridUnavailable
        from repro.db.log_record import RecordKind as _Kind

        records = []
        try:
            for entry in list(archiver._segment_entries):
                stored = yield from archiver.grid.get(entry["key"])
                records.extend(
                    record_from_dict(data)
                    for data in stored.payload.get("records", [])
                )
        except (GridUnavailable, KeyError):
            self._mark("archive-catchup", replayed=0, aborted=True)
            return 0
        by_txn = {}
        commits = []
        for record in records:
            if record.kind is _Kind.COMMIT:
                commits.append(record)
            elif record.is_data():
                by_txn.setdefault(record.txn_id, []).append(record)
        commits.sort(key=lambda record: record.lsn)
        prefix = self.shard.prefix
        replayed = 0
        for commit in commits:
            mine = [r for r in by_txn.get(commit.txn_id, ())
                    if r.table.startswith(prefix)]
            if not mine or commit.txn_id in self._replayed_ids:
                continue
            yield from self._replay_txn(dest_view, mine)
            self._replayed_ids.add(commit.txn_id)
            replayed += 1
            self.replayed_txns += 1
            self.archive_catchup_txns += 1
        self._mark("archive-catchup", replayed=replayed)
        return replayed

    def _top_up(self, dest_view):
        """Transactional diff copy for state the WAL ring no longer holds."""
        source_state = self.shard.view.state()
        dest_state = dest_view.state()
        diff = []  # (prefixed table, key, value-or-None)
        prefix = self.shard.prefix
        for table_name in sorted(source_state):
            source_rows = source_state[table_name]
            dest_rows = dest_state.get(table_name, {})
            for key in source_rows:
                if dest_rows.get(key) != source_rows[key]:
                    diff.append((prefix + table_name, key, source_rows[key]))
            for key in dest_rows:
                if key not in source_rows:
                    diff.append((prefix + table_name, key, None))
        self._mark("top-up", keys=len(diff))
        batch = 64  # keep each top-up transaction a bounded WAL append
        for start in range(0, len(diff), batch):
            chunk = diff[start:start + batch]

            def body(txn, chunk=chunk):
                for table, key, value in chunk:
                    txn.write(table, key, value)

            est = max(1, 64 * len(chunk))
            yield from self._commit_on_dest(dest_view, body, est)
            self.topped_up_keys += len(chunk)


class FleetSupervisor:
    """The rebalancer: watches node load, moves shards off hot nodes."""

    def __init__(self, fleet, poll_ns=400_000.0, hot_ratio=2.0,
                 dwell_polls=3, cooldown_ns=2_000_000.0,
                 converge_ratio=1.5, ewma_alpha=0.4, sample_gauges=True,
                 migration_kw=None, name=None):
        if hot_ratio <= 1.0:
            raise ValueError("hot ratio must exceed 1.0")
        self.fleet = fleet
        self.engine = fleet.engine
        self.poll_ns = poll_ns
        self.hot_ratio = hot_ratio
        self.dwell_polls = dwell_polls
        self.cooldown_ns = cooldown_ns
        self.converge_ratio = converge_ratio
        self.ewma_alpha = ewma_alpha
        self.sample_gauges = sample_gauges
        self.migration_kw = dict(migration_kw or {})
        self.name = name or f"{fleet.name}.supervisor"
        self.rates = {}  # node -> EWMA bytes/poll
        self._shard_totals = {}  # shard_id -> last seen bytes_admitted
        self.shard_rates = {}  # shard_id -> EWMA bytes/poll
        self.events = []
        self.stalls = []  # typed hot-but-stuck records, chronological
        self.migrations = []
        self.converged_at_ns = None
        self._hot_streak = {}
        self._last_migration_end = None
        self._samplers = {}
        self._running = False
        self._process = None

    # -- lifecycle ------------------------------------------------------------------

    def start(self):
        if self._running:
            raise RuntimeError("fleet supervisor already running")
        self._running = True
        if self.sample_gauges and self.engine.tracer.enabled:
            from repro.obs import GaugeSampler

            for name, node in self.fleet.nodes.items():
                self._samplers[name] = GaugeSampler(
                    self.engine.tracer, node.device,
                    track=f"{name}.gauges",
                )
        self._process = self.engine.process(self._loop(), name=self.name)
        return self._process

    def stop(self):
        self._running = False

    def _record(self, action, site, **detail):
        self.events.append({
            "time_ns": self.engine.now, "action": action, "site": site,
            "detail": detail,
        })
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(self.name, action, site=str(site), **detail)

    # -- the control loop -------------------------------------------------------------

    def _loop(self):
        while self._running:
            yield self.engine.timeout(self.poll_ns)
            if not self._running:
                return
            self._observe()
            self._maybe_rebalance()

    def _observe(self):
        alpha = self.ewma_alpha
        for name, node in self.fleet.nodes.items():
            delta = node.load_delta()
            previous = self.rates.get(name, float(delta))
            self.rates[name] = (1 - alpha) * previous + alpha * delta
            sampler = self._samplers.get(name)
            if sampler is not None:
                sampler.sample()
        for shard_id, shard in self.fleet.shards.items():
            total = shard.bytes_admitted
            delta = total - self._shard_totals.get(shard_id, 0)
            self._shard_totals[shard_id] = total
            previous = self.shard_rates.get(shard_id, float(delta))
            self.shard_rates[shard_id] = (1 - alpha) * previous + alpha * delta
        self._track_convergence()

    def imbalance(self):
        """max/mean node byte-rate; 1.0 is perfectly level."""
        if not self.rates:
            return 1.0
        values = list(self.rates.values())
        mean = sum(values) / len(values)
        if mean <= 0:
            return 1.0
        return max(values) / mean

    def _track_convergence(self):
        if not self.migrations:
            return
        if self.converged_at_ns is not None:
            return
        last = self.migrations[-1]
        if not last.done:
            return
        if self.imbalance() <= self.converge_ratio:
            self.converged_at_ns = self.engine.now
            self._record("converged", "fleet",
                         imbalance=round(self.imbalance(), 3))

    def _maybe_rebalance(self):
        if any(not m.done and m.error is None for m in self.migrations):
            return  # one migration at a time
        now = self.engine.now
        if (self._last_migration_end is not None
                and now - self._last_migration_end < self.cooldown_ns):
            return
        if len(self.fleet.nodes) < 2:
            return
        values = self.rates
        if not values:
            return
        mean = sum(values.values()) / len(values)
        if mean <= 0:
            return
        hot_name = max(values, key=lambda n: values[n])
        if values[hot_name] < self.hot_ratio * mean:
            self._hot_streak.pop(hot_name, None)
            return
        streak = self._hot_streak.get(hot_name, 0) + 1
        self._hot_streak[hot_name] = streak
        if streak < self.dwell_polls:
            return
        self._hot_streak.pop(hot_name, None)
        hot_node = self.fleet.nodes[hot_name]
        movable = [s for s in hot_node.shards.values() if not s.gated]
        if len(movable) < 2:
            # A lone shard *is* the hotspot; moving it just moves the
            # problem. Nothing to offload — record a typed stall so the
            # SLO controller (and tests) can see that rebalancing is
            # out of moves and shift to shedding instead.
            self._record_stall(hot_name, movable, values, mean)
            return
        # Offload the coldest colocated shard to the coldest node.
        victim = min(
            movable, key=lambda s: (self.shard_rates.get(s.shard_id, 0.0),
                                    s.shard_id),
        )
        cold_name = min(
            (n for n in self.fleet.nodes if n != hot_name),
            key=lambda n: (values.get(n, 0.0), n),
        )
        self._record("rebalance", hot_name, shard=victim.shard_id,
                     dest=cold_name,
                     hot_rate=round(values[hot_name], 1),
                     mean_rate=round(mean, 1))
        migration = self.fleet.migrate(victim.shard_id, cold_name,
                                       **self.migration_kw)
        self.converged_at_ns = None
        self.migrations.append(migration)
        self.engine.process(self._watch(migration), name=f"{self.name}-watch")

    def _record_stall(self, hot_name, movable, rates, mean_rate):
        """A node is hot but has no shard worth moving.

        Beyond the shared event log, each stall is kept as a typed
        record in ``stalls`` — plain data with the evidence a controller
        needs (how hot, relative to what, with how many movable shards)
        so observers never have to parse detail strings or the trace.
        """
        stall = {
            "time_ns": self.engine.now,
            "site": hot_name,
            "movable_shards": len(movable),
            "hot_rate": round(rates[hot_name], 1),
            "mean_rate": round(mean_rate, 1),
            "imbalance": round(self.imbalance(), 3),
        }
        self.stalls.append(stall)
        self._record("hot-but-stuck", hot_name,
                     shards=len(movable),
                     hot_rate=stall["hot_rate"],
                     mean_rate=stall["mean_rate"],
                     imbalance=stall["imbalance"])
        return stall

    def stalls_for(self, site):
        return [stall for stall in self.stalls if stall["site"] == site]

    def _watch(self, migration):
        try:
            yield migration.process
        except BaseException as exc:
            self._record("migration-failed", migration.shard.shard_id,
                         error=type(exc).__name__)
        else:
            self._record("migration-finished", migration.shard.shard_id,
                         dest=migration.dest.name,
                         replayed=migration.replayed_txns)
        self._last_migration_end = self.engine.now
