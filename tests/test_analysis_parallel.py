"""Tests for the chunked parallel decode+pair runner."""

import json

import pytest

from repro.analysis.pairing import pair_all
from repro.analysis.parallel import (
    DEFAULT_CHUNK_RECORDS,
    decode_chunk,
    parallel_pair,
    plan_chunks,
)
from repro.nfs import NfsProc, NfsStatus
from repro.obs import MetricsRegistry
from repro.obs.eventlog import EventLog
from repro.obs.spans import SpanRecorder
from repro.trace import read_trace, write_trace
from repro.trace.record import Direction, TraceRecord


def make_stream(n_pairs=300, orphan_replies=2, unanswered_calls=2):
    """A wire-time-ordered stream of interleaved calls and replies.

    Reply latency (0.4s) spans several records, so with a small chunk
    size plenty of pairs straddle chunk boundaries.  A few records
    share timestamps to exercise the boundary-nudge rule.  Times are
    rounded to the text format's 6-decimal precision so text and
    binary traces of this stream decode identically.
    """
    records = []
    for i in range(n_pairs):
        t = i * 0.25 if i % 10 else (i - 1) * 0.25  # occasional tied times
        t = round(t, 6)
        records.append(TraceRecord(
            time=t, direction=Direction.CALL, xid=i,
            client=f"10.0.0.{i % 4}", server="10.0.0.100",
            proc=NfsProc.READ if i % 3 else NfsProc.LOOKUP, version=3,
            uid=100, fh=f"{i % 7:02x}", offset=(i % 5) * 8192, count=8192,
        ))
        records.append(TraceRecord(
            time=round(t + 0.4, 6), direction=Direction.REPLY, xid=i,
            client=f"10.0.0.{i % 4}", server="10.0.0.100",
            proc=NfsProc.READ if i % 3 else NfsProc.LOOKUP, version=3,
            status=NfsStatus.OK if i % 11 else NfsStatus.NOENT,
            count=8192, eof=False,
        ))
    for i in range(orphan_replies):
        records.append(TraceRecord(
            time=5.0 + i, direction=Direction.REPLY, xid=90000 + i,
            client="10.0.0.9", server="10.0.0.100",
            proc=NfsProc.GETATTR, version=3, status=NfsStatus.OK,
        ))
    for i in range(unanswered_calls):
        records.append(TraceRecord(
            time=9.0 + i, direction=Direction.CALL, xid=91000 + i,
            client="10.0.0.9", server="10.0.0.100",
            proc=NfsProc.GETATTR, version=3, fh="ff",
        ))
    records.sort(key=lambda r: r.time)
    return records


@pytest.fixture(scope="module", params=["stream.trace", "stream.rtb"])
def trace_path(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("parallel") / request.param
    write_trace(path, make_stream())
    return path


class TestPlanChunks:
    def test_chunks_cover_every_record(self, trace_path):
        specs = plan_chunks(trace_path, chunk_records=64)
        assert len(specs) > 3
        assert sum(s.records for s in specs) == len(make_stream())

    def test_chunks_are_contiguous(self, trace_path):
        specs = plan_chunks(trace_path, chunk_records=64)
        for a, b in zip(specs, specs[1:]):
            assert a.offset + a.nbytes == b.offset

    def test_boundaries_never_split_equal_times(self, trace_path):
        specs = plan_chunks(trace_path, chunk_records=64)
        chunks = [decode_chunk(s) for s in specs]
        for a, b in zip(chunks, chunks[1:]):
            assert a[-1].time != b[0].time

    def test_decoded_chunks_reassemble_the_trace(self, trace_path):
        specs = plan_chunks(trace_path, chunk_records=64)
        rebuilt = [r for s in specs for r in decode_chunk(s)]
        assert rebuilt == read_trace(trace_path)

    def test_one_chunk_for_small_traces(self, trace_path):
        specs = plan_chunks(trace_path, chunk_records=DEFAULT_CHUNK_RECORDS)
        assert len(specs) == 1
        assert specs[0].records == len(make_stream())


class TestParallelPair:
    def test_jobs_do_not_change_results(self, trace_path):
        ops1, stats1 = parallel_pair(trace_path, jobs=1, chunk_records=64)
        ops3, stats3 = parallel_pair(trace_path, jobs=3, chunk_records=64)
        assert ops1 == ops3
        assert stats1 == stats3

    def test_chunking_does_not_change_results(self, trace_path):
        # one big chunk vs many small ones: same pairs, same accounting
        ops_one, stats_one = parallel_pair(trace_path, jobs=1)
        ops_many, stats_many = parallel_pair(trace_path, jobs=1,
                                             chunk_records=32)
        assert ops_one == ops_many
        assert stats_one == stats_many

    def test_matches_sequential_pairing(self, trace_path):
        ops, stats = parallel_pair(trace_path, jobs=1, chunk_records=64)
        seq_ops, seq_stats = pair_all(read_trace(trace_path))
        assert sorted(ops, key=lambda o: (o.time, o.client, o.xid)) == sorted(
            seq_ops, key=lambda o: (o.time, o.client, o.xid)
        )
        assert stats.paired == seq_stats.paired
        assert stats.calls == seq_stats.calls
        assert stats.replies == seq_stats.replies
        assert stats.errors == seq_stats.errors

    def test_loss_accounting(self, trace_path):
        _ops, stats = parallel_pair(trace_path, jobs=1, chunk_records=64)
        assert stats.orphan_replies == 2
        assert stats.unanswered_calls == 2

    def test_ops_sorted_by_call_time(self, trace_path):
        ops, _stats = parallel_pair(trace_path, jobs=1, chunk_records=64)
        times = [op.time for op in ops]
        assert times == sorted(times)

    def test_text_and_binary_agree(self, tmp_path):
        records = make_stream()
        write_trace(tmp_path / "t.trace", records)
        write_trace(tmp_path / "t.rtb", records)
        text = parallel_pair(tmp_path / "t.trace", jobs=1, chunk_records=64)
        binary = parallel_pair(tmp_path / "t.rtb", jobs=1, chunk_records=64)
        assert text == binary

    def test_gz_input_matches_plain(self, tmp_path):
        records = make_stream()
        write_trace(tmp_path / "t.trace", records)
        write_trace(tmp_path / "t.trace.gz", records)
        plain = parallel_pair(tmp_path / "t.trace", jobs=2, chunk_records=64)
        gz = parallel_pair(tmp_path / "t.trace.gz", jobs=2, chunk_records=64)
        assert plain == gz

    def test_auto_chunking_matches_explicit(self, trace_path):
        # chunk_records=None (the default) auto-tunes; results identical
        auto = parallel_pair(trace_path, jobs=2)
        explicit = parallel_pair(trace_path, jobs=2, chunk_records=64)
        assert auto == explicit

    def test_file_transport_matches_shm(self, trace_path, monkeypatch):
        base = parallel_pair(trace_path, jobs=2, chunk_records=64)
        monkeypatch.setenv("REPRO_PAIR_TRANSPORT", "file")
        assert parallel_pair(trace_path, jobs=2, chunk_records=64) == base

    def test_pool_metrics_published(self, trace_path):
        metrics = MetricsRegistry()
        ops, stats = parallel_pair(
            trace_path, jobs=2, chunk_records=64, metrics=metrics
        )
        assert metrics.get("analysis.pool.jobs").value == 2
        assert metrics.get("analysis.pool.chunks").value >= 4
        assert (
            metrics.get("analysis.pool.records").value
            == stats.calls + stats.replies
        )
        assert metrics.get("analysis.pool.ops").value == len(ops)
        assert 0.0 <= metrics.get("analysis.pool.utilization").value <= 1.0


def make_adversarial_stream(n_pairs=400):
    """A stream salted with retransmissions and duplicate replies.

    The duplicates trail their originals by several seconds, so with a
    small chunk size they routinely land in a *different chunk* — the
    cases the boundary merge must classify exactly like a sequential
    pass (retransmitted call charged once, late duplicate reply counted
    as duplicate rather than orphan).
    """
    records = make_stream(n_pairs)
    extras = []
    for record in records:
        if record.direction == Direction.CALL and record.xid % 17 == 0:
            extras.append(TraceRecord(
                time=round(record.time + 2.0, 6), direction=Direction.CALL,
                xid=record.xid, client=record.client, server=record.server,
                proc=record.proc, version=record.version,
                uid=record.uid, fh=record.fh,
                offset=record.offset, count=record.count,
            ))
        if record.direction == Direction.REPLY and record.xid % 13 == 0:
            extras.append(TraceRecord(
                time=round(record.time + 3.0, 6), direction=Direction.REPLY,
                xid=record.xid, client=record.client, server=record.server,
                proc=record.proc, version=record.version,
                status=record.status, count=record.count, eof=record.eof,
            ))
    records.extend(extras)
    records.sort(key=lambda r: r.time)
    return records


class TestJobsByteIdentity:
    """ISSUE 7 acceptance: identical results for jobs in {1, 2, 4, 8},
    boundary retransmissions and duplicate replies included, and
    byte-identical span streams at sampling rates 0.25 and 1.0."""

    @pytest.fixture(scope="class", params=["adv.trace", "adv.rtb"])
    def adv_path(self, request, tmp_path_factory):
        path = tmp_path_factory.mktemp("identity") / request.param
        write_trace(path, make_adversarial_stream())
        return path

    def test_ops_and_stats_identical_across_jobs(self, adv_path):
        base = parallel_pair(adv_path, jobs=1, chunk_records=64)
        for jobs in (2, 4, 8):
            assert parallel_pair(
                adv_path, jobs=jobs, chunk_records=64
            ) == base, f"jobs={jobs} diverged"

    def test_adversarial_cases_counted_once(self, adv_path):
        _ops, stats = parallel_pair(adv_path, jobs=4, chunk_records=64)
        _seq_ops, seq_stats = pair_all(read_trace(adv_path))
        assert stats.duplicate_replies == seq_stats.duplicate_replies > 0
        assert stats.unanswered_calls == seq_stats.unanswered_calls > 0
        assert stats == seq_stats

    @pytest.mark.parametrize("rate", [0.25, 1.0])
    def test_span_streams_identical_across_jobs(self, adv_path, rate):
        def stream_for(jobs):
            sink = EventLog()
            spans = SpanRecorder(sink, sample=rate, buffered=True)
            parallel_pair(adv_path, jobs=jobs, chunk_records=64, spans=spans)
            spans.close()
            return "\n".join(
                json.dumps(event, sort_keys=True) for event in sink.events
            )

        base = stream_for(1)
        assert base  # non-trivial: sampled ops exist
        for jobs in (2, 4, 8):
            assert stream_for(jobs) == base, f"jobs={jobs} span stream diverged"



def _rec(t, direction, xid):
    """A GETATTR call or reply of one client."""
    call = direction == Direction.CALL
    return TraceRecord(
        time=t, direction=direction, xid=xid, client="10.0.0.1",
        server="10.0.0.100", proc=NfsProc.GETATTR, version=3,
        fh="ff" if call else None, status=None if call else NfsStatus.OK,
    )


class TestBoundaryMerge:
    """The merge replays the chunks' recent pairs in time order, so a
    verdict that hangs on a pair completed inside another chunk comes
    out as in one sequential pass.  Regressions: the merge used to
    seed one recent map with each key's newest pair."""

    def _check(self, tmp_path, records):
        path = tmp_path / "merge.rtb"
        write_trace(path, records)
        ops, stats = parallel_pair(path, jobs=1, chunk_records=2)
        seq_ops, seq_stats = pair_all(records)
        assert stats == seq_stats
        assert ops == sorted(seq_ops, key=lambda o: (o.time, o.client, o.xid))
        return stats

    def test_superseded_call_does_not_pair_a_duplicate(self, tmp_path):
        call, reply = Direction.CALL, Direction.REPLY
        # chunks: [call, filler] [retransmission, its reply]
        # [re-captured reply, filler reply]
        stats = self._check(tmp_path, [
            _rec(0.0, call, 1), _rec(0.5, call, 2),
            _rec(1.1, call, 1), _rec(1.2, reply, 1),
            _rec(1.3, reply, 1), _rec(1.4, reply, 2),
        ])
        assert stats.unanswered_calls == 1
        assert stats.duplicate_replies == 1

    def test_later_pair_leaves_an_orphan_an_orphan(self, tmp_path):
        call, reply = Direction.CALL, Direction.REPLY
        # chunks: [orphan, filler] [call, reply] [filler reply, call]
        stats = self._check(tmp_path, [
            _rec(0.0, reply, 1), _rec(0.5, call, 2),
            _rec(1.1, call, 1), _rec(1.2, reply, 1),
            _rec(1.4, reply, 2), _rec(1.5, call, 3),
        ])
        assert stats.orphan_replies == 1
        assert stats.duplicate_replies == 0
