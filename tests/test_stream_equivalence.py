"""Property-based equivalence: streaming analyses vs their batch twins.

The streaming subsystem's headline claim is exactness — `StreamSummary`
and `StreamRuns` must reproduce the batch pipeline bit-for-bit on any
input, and `StreamLifetimes` must agree on every count and on the CDF
at its histogram's bucket edges.  Pairing and reordering have one
implementation each.  The pooled fan-out still merges chunk
boundaries, so it must agree with the serial pass however the trace
is cut, ties and unsorted input included; the reorderer must agree
with the paper's literal look-ahead pass, kept here as the oracle.
These tests drive both sides with identical randomized streams.
"""

import tempfile
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lifetimes import BlockLifetimeAnalyzer
from repro.analysis.parallel import parallel_pair
from repro.analysis.reorder import StreamReorderer, reorder_window_sort
from repro.analysis.runs import RunBuilder, classify_runs
from repro.analysis.summary import summarize_trace
from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc
from repro.obs.eventlog import EventLog
from repro.obs.spans import SpanRecorder
from repro.stream import (
    LIFETIME_BUCKET_BOUNDS,
    StreamLifetimes,
    StreamRuns,
    StreamSummary,
)
from repro.trace import TraceWriter
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


#: Gaps and latencies are often zero, so records tie.
_gaps = st.just(0.0) | st.floats(min_value=0.0001, max_value=5.0)
_latencies = st.just(0.0) | st.floats(min_value=0.0001, max_value=0.05)


@st.composite
def record_streams(draw, ordered=True):
    """Record streams with loss, dups, orphans and ties.

    Records often share a time (the planner never splits those), xids
    come from a small pool so keys recur across events, and
    ``retry_tie`` captures a reply at the instant of its call's
    retransmission, in either order.  Wire-time ordered, ties kept in
    event order; ``ordered=False`` shuffles the stream instead.
    """
    events = draw(st.lists(
        st.tuples(
            st.sampled_from(["paired", "paired", "dup_call", "orphan_reply",
                             "unanswered", "dup_reply", "late_reply",
                             "retry_dup", "repair", "retry_tie"]),
            st.sampled_from(["c1", "c2", "c3"]),
            st.integers(min_value=1, max_value=6),
            st.sampled_from([NfsProc.GETATTR, NfsProc.READ, NfsProc.LOOKUP]),
            _gaps,
            _latencies,
            st.booleans(),
        ),
        max_size=40,
    ))
    records = []
    t = 0.0
    for kind, client, xid, proc, gap, latency, flip in events:
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
        elif kind == "retry_tie":  # reply at its retransmission's instant
            retry = [_call(t + 1.1, xid, client, proc),
                     _reply(t + 1.1, xid, client, proc)]
            records.append(_call(t, xid, client, proc))
            records.extend(retry[::-1] if flip else retry)
        else:
            records.append(_call(t, xid, client, proc))
    if not ordered:
        return draw(st.permutations(records))
    records.sort(key=lambda r: r.time)
    return records


def _pairing(path, **kwargs):
    """``parallel_pair``'s ops, stats and span stream (every op sampled)."""
    sink = EventLog()
    spans = SpanRecorder(sink, sample=1.0, buffered=True)
    ops, stats = parallel_pair(path, spans=spans, **kwargs)
    spans.close()
    return ops, stats, sink.events


def _fanout_matches_serial_pass(records, chunk_sizes):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "stream.rtb"
        # with no sort window each record is flushed as it arrives, so
        # the file keeps the stream's order, sorted or not
        with TraceWriter(path, sort_window=0.0) as writer:
            for record in records:
                writer.write(record)
        serial = _pairing(path)  # jobs=1: the serial pass
        for chunk_records in chunk_sizes:
            fanned = _pairing(path, jobs=2, chunk_records=chunk_records)
            assert fanned == serial, f"chunk_records={chunk_records}"


@settings(max_examples=300, deadline=None)
@given(record_streams())
def test_chunked_pairing_matches_pair_all(records):
    """The pooled fan-out's ops (in order), stats and span stream equal
    the serial pass's on tie-heavy streams, however they are cut."""
    _fanout_matches_serial_pass(records, (1, 2, 3, 7))


@settings(max_examples=100, deadline=None)
@given(record_streams(ordered=False))
def test_unsorted_pairing_matches_the_serial_pass(records):
    """On a stream whose times decrease somewhere the planner plans one
    chunk, so the fan-out pairs in file order as the serial pass does."""
    _fanout_matches_serial_pass(records, (1, 2))


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
