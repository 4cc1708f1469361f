"""The replication history a transport keeps for resync.

Every chunk that passes a device's intake tap is retained so
``resync_peer`` can re-ship the range a rejoining peer is missing.  The
history keeps offsets and sizes in flat columns, so these tests pin two
things: ``resync_peer`` offers exactly what walking a plain list of
``(offset, nbytes, payload)`` tuples offers, with the original payload
objects; and a retained chunk costs a bounded number of bytes.
"""

import tracemalloc

from hypothesis import given
from hypothesis import strategies as st

from repro.core.cmb import CmbModule
from repro.core.transport import TransportModule
from repro.pcie.ntb import NtbPort
from repro.pm.backing import sram_backing
from repro.sim import Engine

# Bytes a retained chunk may add to the heap, payload excluded.  Two
# 8-byte columns and a list slot, each over-allocated a little as it
# grows, come to 24.7 on CPython 3.11; a tuple per chunk, its offset
# object and a list slot came to 104.5.
BYTES_PER_CHUNK_CEILING = 32


def make_transport(name):
    engine = Engine()
    cmb = CmbModule(engine, sram_backing(engine), queue_bytes=4096)
    transport = TransportModule(engine, cmb, name=name)
    transport.attach_ntb(NtbPort(engine, name))
    return transport


def reference_resync(history, from_offset):
    """What ``resync_peer`` offered when the history was a tuple list."""
    offered = []
    for offset, nbytes, payload in history:
        end = offset + nbytes
        if end <= from_offset:
            continue
        if offset < from_offset:
            offered.append((from_offset, end - from_offset, payload))
        else:
            offered.append((offset, nbytes, payload))
    return offered


@st.composite
def intake_streams(draw):
    """Chunks in the order an intake may see them: fresh chunks of a
    contiguous stream, exact duplicates, and torn first or second halves
    of earlier chunks (the re-shipped slices keep the chunk's payload)."""
    chunks = []
    offers = []
    offset = 0
    for _ in range(draw(st.integers(1, 40))):
        move = draw(st.sampled_from(["new", "new", "dup", "head", "tail"]))
        if move == "new" or not chunks:
            nbytes = draw(st.integers(1, 300))
            chunk = (offset, nbytes, object())
            chunks.append(chunk)
            offers.append(chunk)
            offset += nbytes
            continue
        start, nbytes, payload = draw(st.sampled_from(chunks))
        if move == "dup" or nbytes == 1:
            offers.append((start, nbytes, payload))
            continue
        cut = draw(st.integers(1, nbytes - 1))
        if move == "head":
            offers.append((start, cut, payload))
        else:
            offers.append((start + cut, nbytes - cut, payload))
    return offers, offset


@st.composite
def streams_and_frontiers(draw):
    offers, end = draw(intake_streams())
    boundaries = sorted({point for start, nbytes, _p in offers
                         for point in (start, start + nbytes)})
    near = [max(0, point + delta) for point in boundaries
            for delta in (-1, 0, 1)]
    frontiers = draw(st.lists(
        st.one_of(st.sampled_from(near), st.integers(0, end + 64),
                  st.just(0), st.just(end), st.integers(end + 1, end + 1000)),
        min_size=1, max_size=6))
    return offers, frontiers


@given(streams_and_frontiers())
def test_resync_offers_what_a_tuple_list_offered(case):
    offers, frontiers = case
    transport = make_transport("primary")
    transport.set_primary()
    flow = transport.add_peer("peer")
    for offer in offers:
        transport._on_local_write(*offer)
    for from_offset in frontiers:
        flow._backlog.clear()
        offered = transport.resync_peer("peer", from_offset)
        expected = reference_resync(offers, from_offset)
        got = list(flow._backlog)
        assert [(o, n) for o, n, _p in got] == [(o, n) for o, n, _p in expected]
        assert all(mine is theirs
                   for (_o, _n, mine), (_o2, _n2, theirs) in zip(got, expected))
        assert offered == sum(nbytes for _o, nbytes, _p in expected)


def test_a_retained_chunk_costs_at_most_32_bytes():
    chunks = 10_000
    # The payloads belong to the stream, not to the history: build them
    # first so only what retaining them adds is measured.
    payloads = [("src", index, 64) for index in range(chunks)]
    tracemalloc.start()
    try:
        # A secondary retains its intake without mirroring it anywhere.
        transport = make_transport("secondary")
        transport.set_secondary("primary")
        before, _peak = tracemalloc.get_traced_memory()
        for index in range(chunks):
            transport._on_local_write(index * 64, 64, payloads[index])
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_chunk = (after - before) / chunks
    assert per_chunk <= BYTES_PER_CHUNK_CEILING, (
        f"{per_chunk:.1f} B per retained chunk")
