"""Property tests for the MMIO contribution plumbing.

The invariant that keeps the whole fast path honest: every contribution
a store supplies is delivered to the device exactly once, in store
order, and never before the wire carried its last byte.  A differential
test pins the region, which sends each packet as a one-packet train and
delivers from FIFOs, to a model that puts each packet on the link's pipes
itself and hands its contributions over from a closure per packet: same
delivery instants, same wire state.
"""

from hypothesis import given, settings, strategies as st

from repro.pcie.link import PcieLink
from repro.pcie.mmio import (
    MAX_UC_STORE_BYTES,
    STORE_ISSUE_NS,
    WC_BUFFER_BYTES,
    CachePolicy,
    MmioRegion,
)
from repro.pcie.tlp import TLP_OVERHEAD_BYTES
from repro.sim import Engine

POLICIES = st.sampled_from([CachePolicy.WRITE_COMBINING,
                            CachePolicy.UNCACHED])


def run_store_sequence(sizes, policy, fence_each=False):
    """Issue stores of ``sizes`` with contributions; return delivery log."""
    engine = Engine()
    link = PcieLink(engine, lanes=4, gen=2)
    region = MmioRegion(engine, link, size=1 << 20, policy=policy)
    delivered = []
    region.on_write(lambda *contribution: delivered.append(contribution))

    def writer():
        offset = 0
        for index, size in enumerate(sizes):
            yield region.store(offset, size, (offset, size, f"c{index}"))
            if fence_each:
                yield region.fence()
            offset += size
        yield region.fence()

    done = engine.process(writer())
    engine.run()
    assert done.triggered
    return delivered


@given(
    sizes=st.lists(st.integers(1, 200), min_size=1, max_size=40),
    policy=POLICIES,
    fence_each=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_every_contribution_delivered_exactly_once_in_order(sizes, policy,
                                                            fence_each):
    delivered = run_store_sequence(sizes, policy, fence_each)
    assert [payload for _o, _n, payload in delivered] == [
        f"c{i}" for i in range(len(sizes))
    ]
    # Byte conservation: delivered sizes match the stores.
    assert [nbytes for _o, nbytes, _p in delivered] == sizes
    # Offsets are the contiguous prefix sums.
    cursor = 0
    for offset, nbytes, _payload in delivered:
        assert offset == cursor
        cursor += nbytes


@given(sizes=st.lists(st.integers(1, 128), min_size=1, max_size=30))
@settings(max_examples=30, deadline=None)
def test_wc_wire_bytes_never_below_payload(sizes):
    """The link carries at least the payload bytes (plus TLP overhead)."""
    engine = Engine()
    link = PcieLink(engine, lanes=4, gen=2)
    region = MmioRegion(engine, link, size=1 << 20,
                        policy=CachePolicy.WRITE_COMBINING)
    total = sum(sizes)

    def writer():
        offset = 0
        for size in sizes:
            yield region.store(offset, size, (offset, size, None))
            offset += size
        yield region.fence()

    engine.process(writer())
    engine.run()
    assert link.downstream.bytes_transferred >= total
    # And overhead is bounded: at most one TLP per store plus wraps.
    max_tlps = 2 * len(sizes) + total // 64 + 1
    assert region.tlps_emitted <= max_tlps


@given(
    sizes=st.lists(st.integers(1, 64), min_size=2, max_size=20),
    fence_positions=st.sets(st.integers(0, 18), max_size=5),
)
@settings(max_examples=30, deadline=None)
def test_interleaved_fences_preserve_delivery_order(sizes, fence_positions):
    engine = Engine()
    link = PcieLink(engine)
    region = MmioRegion(engine, link, size=1 << 20,
                        policy=CachePolicy.WRITE_COMBINING)
    delivered = []
    region.on_write(
        lambda _offset, _nbytes, payload: delivered.append(payload))

    def writer():
        offset = 0
        for index, size in enumerate(sizes):
            yield region.store(offset, size, (offset, size, index))
            if index in fence_positions:
                yield region.fence()
            offset += size
        yield region.fence()

    engine.process(writer())
    engine.run()
    assert delivered == list(range(len(sizes)))


class PerTlpRegion:
    """Reference: the region with one transfer and one closure per packet.

    Every packet goes straight onto the link's pipes, paying the packet
    overhead, and is counted here; the contributions it completes are
    bound into a closure per packet that hands them over on arrival.  A
    load transfers a bare request down and its completion up.  The WC
    buffer fills in steps of at most the space it has left, flushing
    whenever it is full.
    """

    def __init__(self, engine, link, policy, deliver):
        self.engine = engine
        self.link = link
        self.policy = policy
        self.deliver = deliver
        self.base = None
        self.filled = 0
        self.unattached = []  # [offset, nbytes, payload, bytes left]
        self.tlps_emitted = 0
        self.tlps_down = 0
        self.tlps_up = 0

    def store(self, address, size, contribution):
        self.unattached.append(list(contribution) + [contribution[1]])
        if self.policy is CachePolicy.WRITE_COMBINING:
            packets = self._combine(address, size)
        else:
            packets = []
            sent = 0
            while sent < size:
                payload = min(MAX_UC_STORE_BYTES, size - sent)
                packets.append(payload)
                sent += payload
        self._emit(packets)
        return self.engine.timeout(
            STORE_ISSUE_NS * -(-size // MAX_UC_STORE_BYTES))

    def fence(self):
        if self.policy is CachePolicy.WRITE_COMBINING:
            self._emit(self._flush())
        return self.engine.timeout(0.0)

    def load(self, size):
        link = self.link
        done = self.engine.event()

        def after_request(_event):
            self.tlps_up += 1
            link.upstream.transfer(size + TLP_OVERHEAD_BYTES).then(
                lambda event: done.succeed(event.value))

        self.tlps_down += 1
        link.downstream.transfer(TLP_OVERHEAD_BYTES).then(after_request)
        return done

    def _combine(self, address, size):
        emitted = []
        if self.filled and address != self.base + self.filled:
            emitted += self._flush()
        if not self.filled:
            self.base = address
        cursor = address
        remaining = size
        while remaining > 0:
            take = min(WC_BUFFER_BYTES - self.filled, remaining)
            self.filled += take
            remaining -= take
            cursor += take
            if self.filled == WC_BUFFER_BYTES:
                emitted += self._flush()
                self.base = cursor
        return emitted

    def _flush(self):
        if not self.filled:
            return []
        packet = self.filled
        self.base = None
        self.filled = 0
        return [packet]

    def _emit(self, packets):
        for payload in packets:
            contributions = []
            budget = payload
            while budget > 0 and self.unattached:
                head = self.unattached[0]
                take = min(head[3], budget)
                head[3] -= take
                budget -= take
                if head[3] == 0:
                    self.unattached.pop(0)
                    contributions.append(tuple(head[:3]))
            self.tlps_emitted += 1
            self.tlps_down += 1
            self.link.downstream.transfer(payload + TLP_OVERHEAD_BYTES).then(
                lambda _event, contributions=contributions: [
                    self.deliver(*contribution)
                    for contribution in contributions])


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.integers(0, 1000),
                  # The copy loop's 64 B chunks, and sizes that straddle
                  # the WC buffer.
                  st.one_of(st.sampled_from([8, 64, 128]),
                            st.integers(1, 300))),
        st.tuples(st.just("fence"), st.integers(0, 1000)),
        st.tuples(st.just("load"), st.integers(0, 1000),
                  st.sampled_from([4, 8, 64])),
    ),
    min_size=1, max_size=40,
)


def _run_ops(ops, policy, per_tlp):
    """Drive ``ops`` through one region; returns (link, region, log)."""
    engine = Engine()
    link = PcieLink(engine, lanes=4, gen=2)
    log = []

    def deliver(offset, nbytes, payload):
        log.append(("data", engine.now, offset, nbytes, payload))

    if per_tlp:
        region = PerTlpRegion(engine, link, policy, deliver)
    else:
        region = MmioRegion(engine, link, size=1 << 20, policy=policy)
        region.on_write(deliver)

    def loaded(event):
        log.append(("load", engine.now, event.value))

    def writer():
        address = 0
        for index, op in enumerate(ops):
            yield engine.timeout(op[1])
            if op[0] == "store":
                _kind, _gap, size = op
                yield region.store(address, size, (address, size, index))
                address += size
            elif op[0] == "fence":
                yield region.fence()
            else:
                # Loads overlap the stores that follow, as a poller's do.
                region.load(op[2]).then(loaded)
        yield region.fence()

    engine.process(writer())
    engine.run()
    return link, region, log


@given(ops=OPS, policy=POLICIES)
def test_region_matches_per_tlp_model(ops, policy):
    """Trains and delivery FIFOs change no delivery instant and no wire
    state."""
    link, region, log = _run_ops(ops, policy, per_tlp=False)
    ref_link, ref_region, ref_log = _run_ops(ops, policy, per_tlp=True)
    assert log == ref_log
    assert region.tlps_emitted == ref_region.tlps_emitted
    assert (link.tlps_down, link.tlps_up) == (ref_region.tlps_down,
                                              ref_region.tlps_up)
    for direction in ("downstream", "upstream"):
        got = getattr(link, direction)
        want = getattr(ref_link, direction)
        assert got._busy_until == want._busy_until
        assert got.busy_time == want.busy_time
        assert got.bytes_transferred == want.bytes_transferred
