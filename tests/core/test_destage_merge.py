"""Destaged pages hold payload runs: a differential against per-chunk pages.

``SequencedRing.consume`` merges the adjacent chunks of one ``x_pwrite``
payload into a single ``(offset, nbytes, (src, first_cursor, total))``
entry.  Hypothesis generates logs as the host writes them: WAL batches
flushed from up to eight pipelined slots whose chunks interleave, each
``x_pwrite`` spending random credit budgets so bursts end at cursors off
the 64 B grid, torn chunks (``nbytes`` half the payload's ``step``) and
``None`` payloads.  The ring takes them in, and pages are consumed at
random points while the stream arrives.  A slot may write its batch
twice in a row, putting a cursor jump between two chunks of one
payload.  A reference ring applies the same take rule to the raw chunks
without merging.

Page for page, the ring's entries must be the reference chunks merged by
the rule written out plainly (``merge_runs``); ``LogReader.feed`` must
release the same records in the same order from both page lists, page
by page and at every page-aligned prefix; and the merged pages must pass
the durable-prefix contiguity check.
"""

from collections import deque
from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from repro.core.destage import DestagePage
from repro.core.ring import SequencedRing
from repro.db.log_record import LogRecord, RecordKind
from repro.db.recovery import LogReader
from repro.db.wal import LogBatch
from repro.faults.oracles import check_durable_prefix

COPY_CHUNK = 64
FLUSH_SLOTS = 8


def mergeable(previous, chunk):
    """The merge rule: two adjacent chunks are one payload slice."""
    offset, nbytes, payload = previous
    next_offset, next_nbytes, next_payload = chunk
    return (next_offset == offset + nbytes
            and isinstance(payload, tuple) and len(payload) == 3
            and isinstance(next_payload, tuple) and len(next_payload) == 3
            and next_payload[0] is payload[0]
            and next_payload[1] == payload[1] + payload[2]
            and nbytes == payload[2] and next_nbytes == next_payload[2])


def merge_runs(chunks):
    merged = []
    for chunk in chunks:
        if merged and mergeable(merged[-1], chunk):
            offset, nbytes, (src, cursor, _step) = merged[-1]
            total = nbytes + chunk[1]
            merged[-1] = (offset, total, (src, cursor, total))
        else:
            merged.append(chunk)
    return merged


def take(ready, max_bytes):
    """The ring's take rule on raw chunks: whole chunks, first one always."""
    taken = []
    total = 0
    while ready:
        nbytes = ready[0][1]
        if taken and total + nbytes > max_bytes:
            break
        taken.append(ready.popleft())
        total += nbytes
        if total >= max_bytes:
            break
    return taken


def page_of(chunks, page_bytes):
    total = sum(nbytes for _offset, nbytes, _payload in chunks)
    return DestagePage(chunks[0][0], chunks, total,
                       max(0, page_bytes - total))


def make_batches(draw):
    """WAL batches over a run of transactions; a batch boundary may split
    a transaction's records (the log manager's carving can)."""
    records = []
    lsn = 0
    for txn_id in range(draw(st.integers(1, 10))):
        for _ in range(draw(st.integers(0, 3))):
            lsn += 1
            value = "v" * draw(st.integers(0, 300))
            records.append(LogRecord(lsn, txn_id, RecordKind.UPDATE, "kv",
                                     f"k{lsn}", value))
        lsn += 1
        records.append(LogRecord(lsn, txn_id, RecordKind.COMMIT))
    cuts = sorted(draw(st.sets(st.integers(1, len(records) - 1),
                               max_size=6))) if len(records) > 1 else []
    bounds = [0, *cuts, len(records)]
    return [LogBatch(records[start:end], sequence=index)
            for index, (start, end) in enumerate(zip(bounds, bounds[1:]))]


def pwrite_steps(draw, batch):
    """A flush slot's ``x_pwrite`` of ``batch``: 64 B copies within budget
    bursts.  Sometimes the slot writes the batch again at once, so a
    chunk at cursor 0 follows the batch's last chunk."""
    for _write in range(draw(st.sampled_from((1, 1, 1, 2)))):
        cursor = 0
        remaining = batch.nbytes
        while remaining > 0:
            burst = min(draw(st.integers(1, 1500)), remaining)
            while burst > 0:
                step = min(COPY_CHUNK, burst)
                yield (batch, cursor, step)
                cursor += step
                burst -= step
                remaining -= step


@st.composite
def logs(draw):
    """(chunks in stream order, consume points, page size)."""
    batches = deque(make_batches(draw))
    slots = []
    chunks = []
    consume_after = set()
    offset = 0
    while batches or slots:
        while batches and len(slots) < FLUSH_SLOTS and (
                not slots or draw(st.booleans())):
            slots.append(pwrite_steps(draw, batches.popleft()))
        slot = draw(st.integers(0, len(slots) - 1))
        payload = next(slots[slot], None)
        if payload is None:
            del slots[slot]
            continue
        step = payload[2]
        nbytes = step
        if step > 1 and draw(st.integers(0, 15)) == 0:
            nbytes = step // 2  # torn: the tail never arrived
        chunks.append((offset, nbytes, payload))
        offset += nbytes
        if draw(st.integers(0, 15)) == 0:
            filler = draw(st.integers(1, 200))
            chunks.append((offset, filler, None))
            offset += filler
        if draw(st.integers(0, 7)) == 0:
            consume_after.add(len(chunks))
    page_bytes = draw(st.sampled_from((256, 1024, 4096)))
    return chunks, consume_after, page_bytes


def destage(chunks, consume_after, page_bytes):
    """Merged pages (from the ring) and per-chunk pages (the reference)."""
    ring = SequencedRing(capacity=1 << 40)
    reference = deque()
    merged_pages, chunk_pages = [], []

    def consume(whole_pages_only):
        while ring.consumable_bytes() >= (page_bytes if whole_pages_only
                                          else 1):
            merged_pages.append(page_of(ring.consume(page_bytes), page_bytes))
            chunk_pages.append(page_of(take(reference, page_bytes),
                                       page_bytes))

    for index, chunk in enumerate(chunks, start=1):
        ring.write(*chunk)
        reference.append(chunk)
        if index in consume_after:
            consume(whole_pages_only=False)  # a padded page, then on
        else:
            consume(whole_pages_only=True)
    consume(whole_pages_only=False)
    return merged_pages, chunk_pages


@given(logs())
def test_merged_pages_decode_like_per_chunk_pages(log):
    chunks, consume_after, page_bytes = log
    merged_pages, chunk_pages = destage(chunks, consume_after, page_bytes)
    assert len(merged_pages) == len(chunk_pages)
    for merged, reference in zip(merged_pages, chunk_pages):
        assert merged.chunks == merge_runs(reference.chunks)
        assert (merged.stream_offset, merged.data_bytes,
                merged.filler_bytes) == (reference.stream_offset,
                                         reference.data_bytes,
                                         reference.filler_bytes)
    # Page by page through one reader each, and at every page-aligned
    # prefix through fresh readers.
    merged_reader, chunk_reader = LogReader(), LogReader()
    for merged, reference in zip(merged_pages, chunk_pages):
        released = merged_reader.feed([merged])
        assert released == chunk_reader.feed([reference])
        assert (merged_reader.committed(released)
                == chunk_reader.committed(released))
    for end in range(len(merged_pages) + 1):
        assert (LogReader().feed(merged_pages[:end])
                == LogReader().feed(chunk_pages[:end]))
    end = merged_pages[-1].end_offset if merged_pages else 0
    report = SimpleNamespace(durable_offset=end, credit_at_crash=end,
                             reserve_energy_ok=True)
    assert check_durable_prefix(report, merged_pages) == []


def test_only_whole_slices_of_one_payload_merge():
    batch, other = object(), object()
    ring = SequencedRing(capacity=4096)
    for chunk in [
        (0, 64, (batch, 0, 64)),
        (64, 40, (batch, 64, 40)),  # a burst's short tail
        (104, 64, (batch, 104, 64)),
        (168, 32, (batch, 168, 64)),  # torn: never merges
        (200, 64, (batch, 232, 64)),
        (264, 64, (other, 296, 64)),  # another payload
        (328, 10, None),
        (338, 64, (other, 360, 64)),
        (402, 64, (other, 500, 64)),  # a cursor jump
    ]:
        ring.write(*chunk)
    assert ring.consume(4096) == [
        (0, 168, (batch, 0, 168)),
        (168, 32, (batch, 168, 64)),
        (200, 64, (batch, 232, 64)),
        (264, 64, (other, 296, 64)),
        (328, 10, None),
        (338, 64, (other, 360, 64)),
        (402, 64, (other, 500, 64)),
    ]
