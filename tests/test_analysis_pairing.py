"""Tests for call/reply pairing and loss estimation."""

import pytest

from repro.analysis.loss import effective_op_loss_rate, estimate_loss
from repro.analysis.pairing import StreamPairer, pair_all
from repro.analysis.parallel import parallel_pair
from repro.nfs import (
    FileAttributes,
    FileHandle,
    FileType,
    NfsCall,
    NfsProc,
    NfsReply,
    NfsStatus,
)
from repro.trace import write_trace
from repro.trace.record import TraceRecord


def call_record(t=1.0, xid=1, proc=NfsProc.READ, client="c1", **kw):
    return TraceRecord.from_call(
        NfsCall(
            time=t, xid=xid, client=client, server="s",
            proc=proc, fh=FileHandle(1, 5, 0), **kw,
        )
    )


def reply_record(t=1.001, xid=1, proc=NfsProc.READ, client="c1", count=None):
    return TraceRecord.from_reply(
        NfsReply(
            time=t, xid=xid, client=client, server="s", proc=proc,
            count=count,
            attributes=FileAttributes(
                ftype=FileType.REGULAR, mode=0o644, uid=1, gid=1,
                size=999, fileid=5, atime=0, mtime=7.5, ctime=0,
            ),
        )
    )


class TestPairing:
    def test_simple_pair(self):
        ops, stats = pair_all([call_record(), reply_record()])
        assert len(ops) == 1
        assert stats.paired == 1
        assert ops[0].proc is NfsProc.READ
        assert ops[0].post_size == 999
        assert ops[0].post_mtime == 7.5

    def test_read_count_comes_from_reply(self):
        """Short reads: the reply's count is authoritative."""
        ops, _ = pair_all(
            [call_record(offset=0, count=8192), reply_record(count=100)]
        )
        assert ops[0].count == 100

    def test_write_count_comes_from_call(self):
        ops, _ = pair_all(
            [
                call_record(proc=NfsProc.WRITE, offset=0, count=4096),
                reply_record(proc=NfsProc.WRITE),
            ]
        )
        assert ops[0].count == 4096

    def test_orphan_reply_counted_not_yielded(self):
        """A reply whose call was dropped cannot be decoded."""
        ops, stats = pair_all([reply_record()])
        assert ops == []
        assert stats.orphan_replies == 1

    def test_unanswered_call_counted(self):
        ops, stats = pair_all([call_record()])
        assert ops == []
        assert stats.unanswered_calls == 1

    def test_xids_scoped_per_client(self):
        records = [
            call_record(client="a", xid=1),
            call_record(client="b", xid=1, t=1.0005),
            reply_record(client="b", xid=1, t=1.001),
            reply_record(client="a", xid=1, t=1.002),
        ]
        ops, stats = pair_all(records)
        assert len(ops) == 2
        assert stats.orphan_replies == 0

    def test_op_times_are_call_times(self):
        ops, _ = pair_all([call_record(t=5.0), reply_record(t=5.2)])
        assert ops[0].time == 5.0
        assert ops[0].reply_time == 5.2

    def test_error_status_counted(self):
        bad = reply_record()
        bad.status = NfsStatus.NOENT
        ops, stats = pair_all([call_record(), bad])
        assert len(ops) == 1
        assert not ops[0].ok()
        assert stats.errors == 1


class TestLossEstimation:
    def test_clean_trace_has_zero_loss(self):
        stats = estimate_loss([call_record(), reply_record()])
        assert stats.estimated_loss_rate == 0.0
        assert effective_op_loss_rate(stats) == 0.0

    def test_loss_rate_counts_both_directions(self):
        records = [
            call_record(xid=1),
            reply_record(xid=1),
            call_record(xid=2, t=2.0),  # reply lost
            reply_record(xid=3, t=3.0),  # call lost
        ]
        stats = estimate_loss(records)
        assert stats.orphan_replies == 1
        assert stats.unanswered_calls == 1
        assert 0.0 < stats.estimated_loss_rate < 1.0
        assert effective_op_loss_rate(stats) == 2 / 3

    def test_mirror_loss_detected_end_to_end(self):
        """Drive a lossy mirror and confirm the estimator sees it."""
        import random

        from repro.fs import SimFileSystem
        from repro.netsim import MirrorPort, NetworkPath
        from repro.server import NfsServer
        from repro.trace import TraceCollector

        server = NfsServer(SimFileSystem())
        collector = TraceCollector()
        mirror = MirrorPort(bandwidth=2_000_000, buffer_bytes=8192, taps=[collector])
        path = NetworkPath(server, random.Random(1), taps=[mirror])
        fh = server.fs.root
        for i in range(2000):
            call = NfsCall(
                time=i * 1e-5, xid=i, client="c", server="s",
                proc=NfsProc.WRITE, fh=fh, offset=0, count=8192,
            )
            call_rec = call  # server sees everything; mirror may drop
            path(call_rec)
        assert mirror.packets_dropped > 0
        stats = estimate_loss(collector.sorted_records())
        assert stats.estimated_loss_rate > 0.0


class TestDuplicateReplies:
    """Regression: a reply captured twice (mirror duplication) used to
    be charged as an orphan, inflating the estimated loss rate.  It is
    a duplicate when its key paired within the reply timeout, an orphan
    only when no recent pair explains it."""

    def _records(self):
        return [
            call_record(t=1.0, xid=1),
            reply_record(t=1.001, xid=1),
            reply_record(t=1.002, xid=1),  # capture duplicate
        ]

    @pytest.mark.parametrize(
        "pair", ["pair_all", "stream", "parallel"], indirect=True
    )
    def test_counts_duplicate(self, pair, tmp_path):
        _ops, stats = pair(self._records(), tmp_path)
        assert stats.paired == 1
        assert stats.duplicate_replies == 1
        assert stats.orphan_replies == 0
        assert stats.estimated_loss_rate == 0.0

    def test_stale_duplicate_is_still_an_orphan(self):
        records = [
            call_record(t=1.0, xid=1),
            reply_record(t=1.001, xid=1),
            reply_record(t=100.0, xid=1),  # beyond the 8 s timeout
        ]
        _ops, stats = pair_all(records)
        assert stats.duplicate_replies == 0
        assert stats.orphan_replies == 1

    def test_duplicate_of_duplicate(self):
        records = [
            call_record(t=1.0, xid=1),
            reply_record(t=1.001, xid=1),
            reply_record(t=1.002, xid=1),
            reply_record(t=1.003, xid=1),
        ]
        _ops, stats = pair_all(records)
        assert stats.paired == 1
        assert stats.duplicate_replies == 2
        assert stats.orphan_replies == 0


def _pair_all(records, _tmp_path):
    return pair_all(records)


def _stream_pairer(records, _tmp_path):
    pairer = StreamPairer()
    ops = [op for op in map(pairer.push, records) if op is not None]
    return ops, pairer.close()


def _parallel(chunk_records):
    # through the pool: at jobs=1 parallel_pair is the serial pass
    def run(records, tmp_path):
        path = tmp_path / "records.rtb"
        write_trace(path, records)
        return parallel_pair(path, jobs=2, chunk_records=chunk_records)
    return run


#: Every pairing entry point, as ``pair(records, tmp_path) -> (ops, stats)``.
PAIRERS = {
    "pair_all": _pair_all,
    "stream": _stream_pairer,
    "parallel": _parallel(None),
    "parallel-512": _parallel(512),
}


@pytest.fixture(params=list(PAIRERS))
def pair(request):
    return PAIRERS[request.param]


class TestLateReply:
    """A reply more than the 8 s timeout after its call charges the call
    as unanswered and is then an orphan, in every pairing mode and no
    matter how many operations fall in between (regression: the chunked
    pairer used to pair it, and the serial pairers only lost it when an
    expiry sweep happened to fall between call and reply)."""

    @pytest.mark.parametrize("fillers", [0, 4200])
    def test_late_reply_loses_its_call(self, pair, tmp_path, fillers):
        records = [call_record(t=0.0, xid=1, client="late")]
        for i in range(fillers):
            t = 0.001 + i * 8.9 / fillers
            records.append(call_record(t=t, xid=100 + i))
            records.append(reply_record(t=t + 0.0005, xid=100 + i))
        records.append(reply_record(t=9.0, xid=1, client="late"))
        ops, stats = pair(records, tmp_path)
        assert [op for op in ops if op.client == "late"] == []
        assert stats.paired == fillers
        assert stats.orphan_replies == 1
        assert stats.unanswered_calls == 1
