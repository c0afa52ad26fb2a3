"""Property-based equivalence: streaming analyses vs their batch twins.

The streaming subsystem's headline claim is exactness — `StreamSummary`
and `StreamRuns` must reproduce the batch pipeline bit-for-bit on any
input, and `StreamLifetimes` must agree on every count and on the CDF
at its histogram's bucket edges.  Pairing and reordering have one
implementation each.  Chunked pairing still merges chunk boundaries,
so it must agree with one sequential pass however the trace is cut;
the reorderer must agree with the paper's literal look-ahead pass,
kept here as the oracle.  These tests drive both sides with identical
randomized streams.
"""

import tempfile
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lifetimes import BlockLifetimeAnalyzer
from repro.analysis.pairing import pair_all
from repro.analysis.parallel import parallel_pair
from repro.analysis.reorder import StreamReorderer, reorder_window_sort
from repro.analysis.runs import RunBuilder, classify_runs
from repro.analysis.summary import summarize_trace
from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc
from repro.stream import (
    LIFETIME_BUCKET_BOUNDS,
    StreamLifetimes,
    StreamRuns,
    StreamSummary,
)
from repro.trace import write_trace
from repro.trace.record import Direction, TraceRecord
from tests.helpers import create, lookup, read, remove, setattr_size, write


def _call(t, xid, client, proc):
    return TraceRecord(
        time=t, direction=Direction.CALL, xid=xid, client=client,
        server="srv", proc=proc, fh="f1", offset=0, count=8192,
    )


def _reply(t, xid, client, proc):
    return TraceRecord(
        time=t, direction=Direction.REPLY, xid=xid, client=client,
        server="srv", proc=proc, status=NfsStatus.OK, fh="f1",
        count=8192, eof=False,
    )


@st.composite
def record_streams(draw):
    """Wire-time-ordered record streams with loss, dups, and orphans."""
    events = draw(st.lists(
        st.tuples(
            st.sampled_from(["paired", "paired", "dup_call", "orphan_reply",
                             "unanswered", "dup_reply", "late_reply",
                             "retry_dup", "repair"]),
            st.sampled_from(["c1", "c2", "c3"]),
            st.sampled_from([NfsProc.GETATTR, NfsProc.READ, NfsProc.LOOKUP]),
            st.floats(min_value=0.0001, max_value=5.0),
            st.floats(min_value=0.0001, max_value=0.05),
        ),
        max_size=40,
    ))
    records = []
    t = 0.0
    for xid, (kind, client, proc, gap, latency) in enumerate(events, start=1):
        t += gap
        if kind == "paired":
            records.append(_call(t, xid, client, proc))
            records.append(_reply(t + latency, xid, client, proc))
        elif kind == "dup_call":
            records.append(_call(t, xid, client, proc))
            records.append(_call(t + latency / 2, xid, client, proc))
            records.append(_reply(t + latency, xid, client, proc))
        elif kind == "orphan_reply":
            records.append(_reply(t, xid, client, proc))
        elif kind == "dup_reply":  # re-captured 3 s after its pair
            records.append(_call(t, xid, client, proc))
            records.append(_reply(t + latency, xid, client, proc))
            records.append(_reply(t + latency + 3.0, xid, client, proc))
        elif kind == "late_reply":  # past the 8 s reply timeout
            records.append(_call(t, xid, client, proc))
            records.append(_reply(t + 9.0, xid, client, proc))
        elif kind == "retry_dup":  # retransmitted, answered, re-captured
            records.append(_call(t, xid, client, proc))
            records.append(_call(t + 1.1, xid, client, proc))
            records.append(_reply(t + 1.1 + latency, xid, client, proc))
            records.append(_reply(t + 1.2 + latency, xid, client, proc))
        elif kind == "repair":  # orphan reply, then the key pairs anew
            records.append(_reply(t, xid, client, proc))
            records.append(_call(t + 1.1, xid, client, proc))
            records.append(_reply(t + 1.1 + latency, xid, client, proc))
        else:
            records.append(_call(t, xid, client, proc))
    records.sort(key=lambda r: r.time)
    return records


def _op_key(op):
    return (op.time, op.client, op.xid)


@settings(max_examples=300, deadline=None)
@given(record_streams())
def test_chunked_pairing_matches_pair_all(records):
    serial_ops, serial_stats = pair_all(records)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "stream.rtb"
        write_trace(path, records)
        for chunk_records in (1, 2, 3, 7):
            ops, stats = parallel_pair(path, chunk_records=chunk_records)
            assert stats == serial_stats, f"chunk_records={chunk_records}"
            assert sorted(ops, key=_op_key) == sorted(serial_ops, key=_op_key)


@st.composite
def data_op_streams(draw):
    """Reply-ordered READ/WRITE (plus metadata) op streams."""
    entries = draw(st.lists(
        st.tuples(
            st.floats(min_value=0.0001, max_value=0.02),  # inter-op gap
            st.sampled_from(["c1", "c2"]),
            st.sampled_from(["f1", "f2", "f3"]),
            st.integers(min_value=0, max_value=30),       # block index
            st.sampled_from(["read", "write", "lookup"]),
        ),
        max_size=60,
    ))
    ops = []
    t = 0.0
    for i, (gap, client, fh, block, kind) in enumerate(entries):
        t += gap
        if kind == "read":
            ops.append(read(t, block * 8192, 8192, fh=fh,
                            file_size=10**6, xid=i, client=client))
        elif kind == "write":
            ops.append(write(t, block * 8192, 8192, fh=fh, xid=i,
                             client=client))
        else:
            ops.append(lookup(t, "d0", f"n{block}", fh, client=client))
    return ops


@st.composite
def jittered_op_streams(draw):
    """Op streams that need swaps: per-client XIDs drawn out of order
    (with repeats) and wire times jittered so they are not monotone.
    Times sit on a microsecond grid, which keeps the draws spread out
    and makes exact horizon ties likely."""
    entries = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2000),      # gap (us)
            st.integers(min_value=-4000, max_value=4000),  # jitter (us)
            st.sampled_from(["c1", "c2", "c3"]),
            st.integers(min_value=0, max_value=15),        # xid
            st.sampled_from(["f1", "f2", "f3"]),
            st.integers(min_value=0, max_value=30),        # block index
            st.sampled_from(["read", "read", "write", "lookup"]),
        ),
        min_size=20, max_size=60,
    ))
    ops = []
    t = 0
    for gap, jitter, client, xid, fh, block, kind in entries:
        t += gap
        time = (t + jitter) / 1e6
        if kind == "read":
            ops.append(read(time, block * 8192, 8192, fh=fh,
                            file_size=10**6, xid=xid, client=client))
        elif kind == "write":
            ops.append(write(time, block * 8192, 8192, fh=fh, xid=xid,
                             client=client))
        else:
            ops.append(lookup(time, "d0", f"n{block}", fh, client=client))
    return ops


#: 0-100 ms, half of the draws near the jitter, where a new head's
#: horizon can be shorter than the old one's
windows = (
    st.integers(min_value=0, max_value=10_000)
    | st.integers(min_value=0, max_value=100_000)
).map(lambda us: us / 1e6)


def paper_window_sort(ops, window):
    """The paper's pass, literally: per client, each position looks
    ahead ``window`` seconds and pulls forward the lowest-XID request
    found there; the clients are re-merged in the input interleaving."""
    ops = list(ops)
    if window <= 0:
        return ops
    by_client = defaultdict(list)
    for op in ops:
        by_client[op.client].append(op)
    sorted_streams = {}
    for client, arr in by_client.items():
        for p in range(len(arr)):
            horizon = arr[p].time + window
            best = p
            q = p + 1
            while q < len(arr) and arr[q].time <= horizon:
                if arr[q].xid < arr[best].xid:
                    best = q
                q += 1
            arr.insert(p, arr.pop(best))
        sorted_streams[client] = iter(arr)
    return [next(sorted_streams[op.client]) for op in ops]


@settings(max_examples=400, deadline=None)
@given(jittered_op_streams(), windows)
def test_reorderer_matches_paper_pass(ops, window):
    data = [op for op in ops if op.is_read() or op.is_write()]
    expected = paper_window_sort(data, window)

    got = []
    reorderer = StreamReorderer(window, got.append)
    for op in data:
        reorderer.push(op)
    reorderer.close()

    for out in (got, reorder_window_sort(data, window)):
        assert len(out) == len(expected)
        assert all(a is b for a, b in zip(out, expected))
    assert reorderer.buffered() == 0


@settings(max_examples=150)
@given(data_op_streams())
def test_stream_summary_matches_batch(ops):
    summary = StreamSummary()
    for op in ops:
        summary.process_op(op)
        summary.advance(op.time)  # exercise mid-stream window flushing
    summary.finish()

    if not ops:
        assert summary.result().total_ops == 0
        return
    start = min(op.time for op in ops)
    end = max(op.time for op in ops) + 1e-6
    assert summary.result() == summarize_trace(ops, start, end)
    # the flushed per-day rows partition the totals
    assert sum(s.total_ops for _, _, s in summary.daily) == len(ops)


@settings(max_examples=150, deadline=None)
@given(
    jittered_op_streams(),
    st.sampled_from([0.0, 0.005, 0.02]),
    st.integers(min_value=1, max_value=4),
)
def test_stream_runs_matches_batch(ops, window, jumps):
    sruns = StreamRuns(window=window, jump_blocks=jumps)
    for op in ops:
        sruns.process_op(op)
    sruns.finish()

    data = [op for op in ops if op.is_read() or op.is_write()]
    expected = classify_runs(
        RunBuilder().feed_all(paper_window_sort(data, window)).finish(),
        jump_blocks=jumps,
    )
    assert sruns.result() == expected


@st.composite
def lifetime_traces(draw):
    """Create / write / truncate / remove histories over a few files."""
    n_files = draw(st.integers(min_value=1, max_value=3))
    ops = []
    t = 1.0
    for i in range(n_files):
        fh, name = f"fh{i}", f"file{i}"
        t += draw(st.floats(min_value=0.1, max_value=20.0))
        ops.append(create(t, "d0", name, fh))
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            t += draw(st.floats(min_value=0.1, max_value=40.0))
            block = draw(st.integers(min_value=0, max_value=4))
            ops.append(write(t, block * 8192, 8192, fh=fh))
        if draw(st.booleans()):
            t += draw(st.floats(min_value=0.1, max_value=40.0))
            size = draw(st.integers(min_value=0, max_value=2)) * 8192
            ops.append(setattr_size(t, fh, size))
        if draw(st.booleans()):
            t += draw(st.floats(min_value=0.1, max_value=40.0))
            ops.append(remove(t, "d0", name))
    return ops


@settings(max_examples=150, deadline=None)
@given(lifetime_traces())
def test_stream_lifetimes_matches_batch(ops):
    end = (ops[-1].time if ops else 1.0) + 1.0
    phases = (0.0, end / 2, end)

    batch = BlockLifetimeAnalyzer(*phases).observe_all(ops).report()
    stream = StreamLifetimes(*phases)
    for op in ops:
        stream.process_op(op)
    report = stream.result()

    assert report.total_births == batch.total_births
    assert report.births_by_cause == batch.births_by_cause
    assert report.total_deaths == batch.total_deaths
    assert report.deaths_by_cause == batch.deaths_by_cause
    assert report.end_surplus == batch.end_surplus
    assert report.censored_files == 0
    # the CDF is exact at every histogram bucket edge
    stream_cdf = report.lifetime_cdf(LIFETIME_BUCKET_BOUNDS)
    batch_cdf = batch.lifetime_cdf(LIFETIME_BUCKET_BOUNDS)
    for (point_s, pct_s), (point_b, pct_b) in zip(stream_cdf, batch_cdf):
        assert point_s == point_b
        assert pct_s == pytest.approx(pct_b)


def test_stream_lifetimes_caps_file_state():
    """Under eviction pressure the approximation is counted, not silent."""
    ops = []
    t = 1.0
    for i in range(20):
        fh, name = f"fh{i}", f"f{i}"
        ops.append(create(t, "d0", name, fh))
        ops.append(write(t + 0.1, 0, 8192, fh=fh))
        t += 1.0
    stream = StreamLifetimes(0.0, 50.0, 100.0, max_files=5)
    for op in ops:
        stream.process_op(op)
    report = stream.result()
    assert stream.memory_items() <= 5
    assert report.censored_files == 15
    assert report.total_births == 20
    # censored-alive births still show up in the end surplus
    assert report.end_surplus == 20
