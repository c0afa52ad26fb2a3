"""Unit tests for segment rotation (repro.obs.rotate)."""

import json

import pytest

from repro.nfs.procedures import NfsProc
from repro.obs.metrics import MetricsRegistry
from repro.obs.rotate import (
    RotatingEventLog,
    RotatingTraceWriter,
    RotationPolicy,
    list_segments,
    partial_segments,
    segment_path,
)
from repro.trace.reader import read_trace
from repro.trace.record import Direction, TraceRecord


def _record(time, xid):
    return TraceRecord(
        time=time, direction=Direction.CALL, client="c1", server="s",
        xid=xid, proc=NfsProc.GETATTR, fh="aa",
    )


class TestPolicy:
    def test_defaults(self):
        policy = RotationPolicy()
        assert policy.max_bytes == 8 * 1024 * 1024
        assert policy.max_age is None
        assert policy.retain is None

    @pytest.mark.parametrize("kwargs", [
        {"max_bytes": 0}, {"max_bytes": -1},
        {"max_age": 0.0}, {"max_age": -5.0},
        {"retain": 0}, {"retain": -2},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RotationPolicy(**kwargs)


class TestNaming:
    def test_segment_path_naming(self, tmp_path):
        path = segment_path(tmp_path, "trace", 7, ".rtb.gz")
        assert path.name == "trace-000007.rtb.gz"

    def test_list_segments_in_rotation_order(self, tmp_path):
        for index in (3, 1, 2):
            segment_path(tmp_path, "spans", index, ".jsonl").write_text("")
        paths = list_segments(tmp_path, "spans", ".jsonl")
        assert [p.name for p in paths] == [
            "spans-000001.jsonl", "spans-000002.jsonl", "spans-000003.jsonl"
        ]


class TestPartialSegments:
    """An open segment is written under a name list_segments skips."""

    def test_open_trace_segment_is_not_listed(self, tmp_path):
        writer = RotatingTraceWriter(
            tmp_path, suffix=".trace",
            policy=RotationPolicy(max_bytes=256),
        )
        for index in range(50):
            writer.write(_record(float(index), index))
        *closed, open_segment = writer.paths
        assert closed
        assert list_segments(tmp_path, "trace", ".trace") == closed
        assert partial_segments(tmp_path, "trace", ".trace") == [open_segment]
        assert open_segment.suffix == ".trace"  # format still by suffix
        writer.close()
        assert list_segments(tmp_path, "trace", ".trace") == writer.paths
        assert partial_segments(tmp_path, "trace", ".trace") == []
        recovered = [r for path in writer.paths for r in read_trace(path)]
        assert [r.xid for r in recovered] == list(range(50))

    def test_open_span_segment_is_not_listed(self, tmp_path):
        log = RotatingEventLog(tmp_path, policy=RotationPolicy())
        log.emit("span", time=1.0, trace="abc")
        assert list_segments(tmp_path, "spans", ".jsonl") == []
        assert partial_segments(tmp_path, "spans", ".jsonl") == log.paths
        log.close()
        assert list_segments(tmp_path, "spans", ".jsonl") == log.paths
        assert partial_segments(tmp_path, "spans", ".jsonl") == []


class TestRotatingTraceWriter:
    def test_size_rotation_yields_readable_segments(self, tmp_path):
        writer = RotatingTraceWriter(
            tmp_path, suffix=".trace",
            policy=RotationPolicy(max_bytes=256),
        )
        records = [_record(float(i), i) for i in range(50)]
        with writer:
            for record in records:
                writer.write(record)
        paths = writer.paths
        assert len(paths) > 1
        assert paths == list_segments(tmp_path, "trace", ".trace")
        # concatenating segments in order recovers the full stream
        recovered = [r for path in paths for r in read_trace(path)]
        assert [r.xid for r in recovered] == [r.xid for r in records]

    def test_retention_unlinks_oldest(self, tmp_path):
        writer = RotatingTraceWriter(
            tmp_path, suffix=".trace",
            policy=RotationPolicy(max_bytes=256, retain=2),
        )
        with writer:
            for index in range(80):
                writer.write(_record(float(index), index))
        assert writer.segments_retired > 0
        on_disk = list_segments(tmp_path, "trace", ".trace")
        assert len(on_disk) == 2
        assert on_disk == writer.paths
        # the survivors are the newest indices
        assert on_disk[-1].name == segment_path(
            tmp_path, "trace", writer.index, ".trace"
        ).name

    def test_age_rotation(self, tmp_path):
        writer = RotatingTraceWriter(
            tmp_path, suffix=".trace",
            policy=RotationPolicy(max_bytes=None, max_age=10.0),
        )
        with writer:
            writer.write(_record(0.0, 1))
            writer.write(_record(5.0, 2))
            writer.write(_record(20.0, 3))  # > 10 simulated s: rotates
            writer.write(_record(21.0, 4))
        assert writer.segments_written == 2

    def test_metrics(self, tmp_path):
        metrics = MetricsRegistry()
        writer = RotatingTraceWriter(
            tmp_path, suffix=".trace",
            policy=RotationPolicy(max_bytes=256, retain=1),
            metrics=metrics,
        )
        with writer:
            for index in range(80):
                writer.write(_record(float(index), index))
        assert metrics.value("obs.segments", kind="trace") == \
            writer.segments_written
        assert metrics.value("obs.segments_retired", kind="trace") == \
            writer.segments_retired


class TestRotatingEventLog:
    def test_segments_are_valid_json_lines(self, tmp_path):
        log = RotatingEventLog(
            tmp_path, policy=RotationPolicy(max_bytes=512)
        )
        with log:
            for index in range(40):
                log.emit("span", time=float(index), trace=f"t{index:04d}")
        paths = log.paths
        assert len(paths) > 1
        events = []
        for path in paths:
            for line in path.read_text().splitlines():
                events.append(json.loads(line))
        assert [e["trace"] for e in events] == [f"t{i:04d}" for i in range(40)]

    def test_age_rotation_uses_event_time(self, tmp_path):
        log = RotatingEventLog(
            tmp_path, policy=RotationPolicy(max_bytes=None, max_age=5.0)
        )
        with log:
            log.emit("span", time=0.0)
            log.emit("span", time=1.0)
            log.emit("span", time=7.0)  # crosses max_age: rotates after
            log.emit("span", time=8.0)
        assert log.segments_written == 2

    def test_bind_metrics_backfills_counts(self, tmp_path):
        log = RotatingEventLog(
            tmp_path, policy=RotationPolicy(max_bytes=128, retain=1)
        )
        for index in range(30):
            log.emit("span", time=float(index), payload="x" * 32)
        metrics = MetricsRegistry()
        log.bind_metrics(metrics)
        log.close()
        assert metrics.value("obs.segments", kind="spans") >= \
            log.segments_written - 1  # bound before the final roll
        assert metrics.value("obs.segments_retired", kind="spans") >= \
            log.segments_retired - 1

    def test_flush_and_reopen(self, tmp_path):
        log = RotatingEventLog(tmp_path, policy=RotationPolicy())
        log.emit("span", time=1.0, trace="abc")
        log.flush()
        (path,) = log.paths
        assert "abc" in path.read_text()
        log.roll()
        log.emit("span", time=2.0, trace="def")
        log.close()
        assert len(log.paths) == 2
