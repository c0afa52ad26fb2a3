"""Tests for the streaming engine: dispatch, watermark, budget, live tap."""

import pytest

from repro.analysis.pairing import pair_all
from repro.errors import StreamMemoryError
from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc
from repro.simcore.clock import SECONDS_PER_DAY
from repro.stream import StreamAnalysis, StreamEngine, StreamStats, StreamSummary
from repro.trace.record import Direction, TraceRecord


def _call(t, xid, *, proc=NfsProc.GETATTR, client="c1"):
    return TraceRecord(
        time=t, direction=Direction.CALL, xid=xid,
        client=client, server="srv", proc=proc, fh="f1",
    )


def _reply(t, xid, *, proc=NfsProc.GETATTR, client="c1"):
    return TraceRecord(
        time=t, direction=Direction.REPLY, xid=xid,
        client=client, server="srv", proc=proc,
        status=NfsStatus.OK, fh="f1",
    )


class _OpOnly(StreamAnalysis):
    name = "op_only"

    def __init__(self):
        self.ops = []

    def process_op(self, op):
        self.ops.append(op)

    def result(self):
        return len(self.ops)


class _RecordOnly(StreamAnalysis):
    name = "record_only"

    def __init__(self):
        self.records = []

    def process_record(self, record):
        self.records.append(record)


class TestDispatch:
    def test_only_overridden_hooks_are_wired(self):
        engine = StreamEngine()
        engine.register(_OpOnly())
        engine.register(_RecordOnly())
        assert len(engine._record_handlers) == 1
        assert len(engine._op_handlers) == 1

    def test_records_and_ops_routed(self):
        engine = StreamEngine()
        ops = engine.register(_OpOnly())
        recs = engine.register(_RecordOnly())
        engine.feed(_call(1.0, 1))
        engine.feed(_reply(1.001, 1))
        engine.feed(_call(2.0, 2))  # never answered
        assert len(recs.records) == 3
        assert len(ops.ops) == 1
        assert engine.records == 3
        assert engine.ops == 1

    def test_analysis_lookup(self):
        engine = StreamEngine()
        analysis = engine.register(_OpOnly())
        assert engine.analysis("op_only") is analysis
        assert engine.analysis("nope") is None


class TestRun:
    def test_watermark_tracks_max_time(self):
        engine = StreamEngine()
        engine.feed(_call(5.0, 1))
        engine.feed(_call(3.0, 2))
        assert engine.watermark == 5.0

    def test_run_returns_results_and_pairing(self):
        engine = StreamEngine()
        engine.register(_OpOnly())
        records = [_call(1.0, 1), _reply(1.001, 1), _reply(2.0, 99)]
        results = engine.run(records)
        assert results["op_only"] == 1
        stats = results["pairing"]
        assert (stats.calls, stats.replies, stats.paired) == (1, 2, 1)
        assert stats.orphan_replies == 1

    def test_finish_is_idempotent(self):
        engine = StreamEngine()
        engine.register(_OpOnly())
        engine.feed(_call(1.0, 1))
        first = engine.finish()
        second = engine.finish()
        assert first == second
        assert engine.finished

    def test_unanswered_calls_counted_at_close(self):
        engine = StreamEngine()
        engine.feed(_call(1.0, 1))
        engine.feed(_call(2.0, 2))
        results = engine.finish()
        assert results["pairing"].unanswered_calls == 2


class _Bloat(StreamAnalysis):
    name = "bloat"

    def process_record(self, record):
        pass

    def memory_items(self):
        return 1000


class TestMemoryBudget:
    def test_budget_exceeded_raises(self):
        engine = StreamEngine(advance_every=1, max_items=10)
        engine.register(_Bloat())
        with pytest.raises(StreamMemoryError):
            engine.feed(_call(0.0, 1))

    def test_peak_items_tracked(self):
        engine = StreamEngine(advance_every=1)
        engine.register(_Bloat())
        engine.feed(_call(0.0, 1))
        assert engine.peak_items >= 1000


class TestMetrics:
    def test_stream_instruments_in_snapshot(self):
        engine = StreamEngine()
        engine.feed(_call(4.0, 1))
        engine.feed(_reply(4.001, 1))
        snapshot = engine.metrics.snapshot()
        assert snapshot["stream.records"] == 2
        assert snapshot["stream.ops"] == 1
        assert snapshot["stream.watermark"]["value"] == 4.001
        assert snapshot["stream.outstanding_calls"]["value"] == 0


class TestLiveTap:
    """The collector's sinks feed the engine exactly what a trace would."""

    def _simulate(self, *, engine=None):
        from repro.workloads import CampusEmailWorkload, CampusParams, TracedSystem

        system = TracedSystem(seed=303, quota_bytes=50 * 1024 * 1024)
        if engine is not None:
            system.collector.sinks = [engine.feed]
        CampusEmailWorkload(CampusParams(users=2)).attach(system)
        system.run(0.2 * SECONDS_PER_DAY)
        system.collector.flush()
        return system

    def test_tap_matches_batch_analysis(self):
        engine = StreamEngine()
        summary = engine.register(StreamSummary())
        tally = engine.register(StreamStats())
        self._simulate(engine=engine)
        results = engine.finish()

        system = self._simulate()
        records = system.collector.sorted_records()
        assert engine.records == len(records) > 0
        ops, stats = pair_all(records)
        assert results["pairing"] == stats
        assert tally.records == len(records)

        from repro.analysis.summary import summarize_trace

        start = min(op.time for op in ops)
        end = max(op.time for op in ops) + 1e-6
        assert summary.result() == summarize_trace(ops, start, end)

    def test_streaming_sinks_keep_no_records(self):
        engine = StreamEngine()
        system = self._simulate(engine=engine)
        assert len(system.collector) == 0
        assert system.collector.records == []
        assert engine.records > 0


class TestNoCyclicGarbage:
    """``run`` pauses cyclic GC, which is safe only while a pass leaves
    no reference cycles behind: whatever ``gc.collect()`` finds after
    the ``analyze --stream`` analyses ran must not grow with the trace."""

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        from repro.trace import write_trace
        from repro.workloads import CampusEmailWorkload, CampusParams, TracedSystem

        system = TracedSystem(seed=11, quota_bytes=50 * 1024 * 1024)
        CampusEmailWorkload(CampusParams(users=6)).attach(system)
        system.run(0.5 * SECONDS_PER_DAY)
        records = system.records()
        assert len(records) > 4000
        half = len(records) // 2
        paths = []
        for name, part in (("half.rtb", records[:half]),
                           ("full.rtb", records[: 2 * half])):
            path = tmp_path_factory.mktemp("gc") / name
            write_trace(path, part)
            paths.append(path)
        return paths

    @staticmethod
    def _garbage_after_pass(path) -> int:
        import gc

        from repro.obs.gcpause import paused_gc
        from repro.stream import StreamLatency, StreamRuns, StreamTopFiles
        from repro.trace import TraceReader

        engine = StreamEngine()
        for analysis in (StreamSummary(), StreamRuns(), StreamTopFiles(),
                         StreamLatency()):
            engine.register(analysis)
        gc.collect()
        # the collector stays off until the count: the first allocation
        # after run() re-enables it would otherwise collect the pass's
        # young garbage unseen
        with paused_gc():
            with TraceReader(path) as reader:
                results = engine.run(reader)
            # the engine and its results are still referenced: only
            # what the pass itself dropped can be found
            found = gc.collect()
        assert results["summary"].total_ops > 0
        assert results["runs"].total_runs > 0
        return found

    def test_garbage_does_not_grow_with_the_trace(self, traces):
        half, full = (self._garbage_after_pass(path) for path in traces)
        assert full <= half
