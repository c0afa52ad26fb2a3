"""The monitoring daemon end to end: monitor, serve, query, stats.

Covers the `repro monitor` / `repro query` CLI pair over rotated
segments, the local :class:`MonitorServer` endpoints, the final
partial-interval watch snapshot, event-log durability on close, and
the hostile-label hardening in the Prometheus exposition writer.
"""

import contextlib
import io
import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.obs.eventlog import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.promtext import escape_label_value, parse_prom_text, to_prom_text
from repro.nfs.procedures import NfsProc
from repro.obs.rotate import RotatingTraceWriter, list_segments
from repro.stream import MonitorServer
from repro.trace.reader import TraceReader, read_trace
from repro.trace.record import Direction, TraceRecord


def _run_cli(argv):
    """Run the CLI capturing stdout/stderr; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestMonitorServer:
    def test_serves_published_payloads(self):
        with MonitorServer() as server:
            server.start()
            server.publish("/metrics", "server_calls 7\n")
            server.publish("/spans", '{"event":"span"}\n')
            base = f"http://{server.address}"
            with urllib.request.urlopen(f"{base}/metrics") as response:
                assert response.read().decode() == "server_calls 7\n"
            with urllib.request.urlopen(f"{base}/spans") as response:
                assert b"span" in response.read()
            with urllib.request.urlopen(f"{base}/healthz") as response:
                assert response.read().decode() == "ok\n"

    def test_unknown_path_is_404(self):
        with MonitorServer() as server:
            server.start()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"http://{server.address}/nope")
            assert excinfo.value.code == 404

    def test_publish_replaces(self):
        with MonitorServer() as server:
            server.start()
            server.publish("/metrics", "a 1\n")
            server.publish("/metrics", "a 2\n")
            with urllib.request.urlopen(f"http://{server.address}/metrics") as r:
                assert r.read().decode() == "a 2\n"


@pytest.fixture(scope="module")
def monitored(tmp_path_factory):
    """One short `repro monitor` run with rotation and full sampling."""
    directory = tmp_path_factory.mktemp("segments")
    code, out, err = _run_cli([
        "monitor", "--system", "campus", "--days", "0.25", "--users", "2",
        "--seed", "7", "--faults", "drop(p=0.02);dup(p=0.02,kind=reply)",
        "--interval", "3600", "--dir", str(directory),
        "--segment-bytes", "4096", "--trace-sample", "1.0",
    ])
    assert code == 0
    return directory, out, err


class TestMonitorCli:
    def test_rotates_span_segments(self, monitored):
        directory, out, _err = monitored
        segments = list_segments(directory, "spans", ".jsonl")
        assert len(segments) > 1  # 4 KiB segments must rotate
        assert "span segments:" in out
        for path in segments[:3]:
            for line in path.read_text().splitlines():
                assert json.loads(line)["event"] == "span"

    def test_writes_readable_trace_segments(self, monitored):
        directory, out, _err = monitored
        (path,) = list_segments(directory, "trace")
        with TraceReader(path) as reader:
            records = list(reader)
        assert records
        assert "trace segments: 1 written" in out

    def test_reports_snapshots_and_query_hint(self, monitored):
        _directory, out, _err = monitored
        assert "snapshots rendered" in out
        assert "query with: repro query" in out


def _pairer_trace_id(directory):
    """A trace ID that reached the live pairer (full hop chain)."""
    for path in list_segments(directory, "spans", ".jsonl"):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record.get("hop") == "pairer":
                return record["trace"]
    raise AssertionError("no pairer spans in segments")


class TestQueryCli:
    def test_trace_id_reconstructs_the_hop_chain(self, monitored):
        directory, _out, _err = monitored
        wanted = _pairer_trace_id(directory)
        code, out, _ = _run_cli([
            "query", "--dir", str(directory), "--trace-id", wanted, "--json",
        ])
        assert code == 0
        spans = json.loads(out)
        assert all(span["trace"] == wanted for span in spans)
        hops = {span["hop"] for span in spans}
        assert {"client", "link", "server", "capture", "pairer"} <= hops
        # pipeline-ordered: the root client span sorts first
        assert spans[0]["hop"] == "client"
        assert spans[0]["parent"] is None

    def test_trace_id_table_mode(self, monitored):
        directory, _out, _err = monitored
        wanted = _pairer_trace_id(directory)
        code, out, _ = _run_cli([
            "query", "--dir", str(directory), "--trace-id", wanted,
        ])
        assert code == 0
        assert f"Trace {wanted}" in out
        assert "client=" in out  # root attrs footer

    def test_file_handle_summary(self, monitored):
        directory, _out, _err = monitored
        (trace_path,) = list_segments(directory, "trace")
        with TraceReader(trace_path) as reader:
            wanted = next(iter(reader)).fh
        code, out, _ = _run_cli([
            "query", "--dir", str(directory), "--file", wanted, "--json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["file"] == wanted
        assert payload["records"] > 0
        assert payload["calls"] + payload["replies"] == payload["records"]
        assert payload["per_proc"]

    def test_unknown_trace_id_is_a_clean_error(self, monitored):
        directory, _out, _err = monitored
        code, _, err = _run_cli([
            "query", "--dir", str(directory), "--trace-id", "f" * 32,
        ])
        assert code == 2
        assert "no spans for trace" in err

    def test_missing_directory_is_a_clean_error(self, tmp_path):
        code, _, err = _run_cli([
            "query", "--dir", str(tmp_path / "absent"), "--trace-id", "f" * 32,
        ])
        assert code == 2
        assert "error:" in err


class TestMonitorOrder:
    """Monitor segments are the simulate trace, split: the collector
    releases one wire-ordered stream to both writers.  A fixed 5 s
    writer window let a faulted eecs capture step back 2.09 s here."""

    ARGS = [
        "--scenario", "eecs", "--users", "8", "--days", "0.55",
        "--seed", "1", "--faults",
        "drop(p=0.01);dup(p=0.01);reorder(p=0.02,ms=20);"
        "crash(at=122400,down=30)",
    ]

    def test_segments_concatenate_to_the_simulate_trace(self, tmp_path):
        directory = tmp_path / "segments"
        code, _, _ = _run_cli([
            "monitor", *self.ARGS, "--interval", "86400",
            "--dir", str(directory),
        ])
        assert code == 0
        simulated = tmp_path / "simulated.rtb"
        code, _, _ = _run_cli(["simulate", *self.ARGS, "--out", str(simulated)])
        assert code == 0
        segments = [
            record
            for path in list_segments(directory, "trace")
            for record in read_trace(path)
        ]
        expected = read_trace(simulated)
        assert expected
        assert segments == expected
        times = [record.time for record in segments]
        assert times == sorted(times)


class TestQueryIncompleteSegments:
    def test_abandoned_segment_is_skipped(self, tmp_path):
        def record(i):
            return TraceRecord(
                time=float(i), direction=Direction.CALL, client="c1",
                server="s", xid=i, proc=NfsProc.GETATTR, fh="aa",
            )

        writer = RotatingTraceWriter(tmp_path)
        try:
            for i in range(40):
                writer.write(record(i))
            writer.roll()
            for i in range(40, 100):
                writer.write(record(i))
            # the monitor dies here: its open segment is left cut short
            complete, abandoned = writer.paths
            data = complete.read_bytes()
            abandoned.write_bytes(data[: len(data) // 2])
            code, out, err = _run_cli([
                "query", "--dir", str(tmp_path), "--file", "aa", "--json",
            ])
        finally:
            writer.close()
        assert code == 0, err
        payload = json.loads(out)
        assert payload["records"] == payload["calls"] == 40
        assert payload["last_time"] == 39.0
        assert abandoned.name in err


class TestWatchFinalSnapshot:
    def test_partial_interval_renders_on_finish(self):
        # interval far beyond the simulated span: no periodic snapshot
        # ever fires, so the one line must come from finish()
        code, out, err = _run_cli([
            "watch", "--system", "campus", "--days", "0.3", "--users", "2",
            "--seed", "3", "--interval", "1000000000",
        ])
        assert code == 0
        assert err.count("[watch]") == 1
        assert "1 snapshots rendered" in out


class TestEventLogDurability:
    def test_close_persists_owned_path_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("progress", time=1.0, records=10)
        log.close()
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["records"] == 10
        log.close()  # idempotent

    def test_close_flushes_but_keeps_caller_owned_sink(self):
        sink = io.StringIO()
        log = EventLog(sink)
        log.emit("progress", time=1.0)
        log.close()
        assert not sink.closed
        assert '"event":"progress"' in sink.getvalue()


class TestHostileLabels:
    @pytest.mark.parametrize(("raw", "escaped"), [
        ('plain', 'plain'),
        ('say "hi"', r'say \"hi\"'),
        ('back\\slash', 'back\\\\slash'),
        ('two\nlines', r'two\nlines'),
        ('\\"\n', r'\\\"\n'),
    ])
    def test_escape_label_value(self, raw, escaped):
        assert escape_label_value(raw) == escaped

    def test_hostile_values_render_as_single_lines(self):
        registry = MetricsRegistry()
        hostile = 'a"b\\c\nd'
        registry.counter("trace.notes", source=hostile).inc(3)
        text = to_prom_text(registry)
        sample_lines = [
            l for l in text.splitlines() if not l.startswith("#")
        ]
        assert len(sample_lines) == 1  # the newline did not split it
        samples = parse_prom_text(text)
        key = f'trace_notes{{source="{escape_label_value(hostile)}"}}'
        assert samples[key] == 3


class TestStatsFaultReport:
    PROM = (
        '# TYPE faults_injected counter\n'
        'faults_injected{fault="drop",kind="call",where="wire"} 3\n'
        'faults_injected{fault="dup",kind="reply",where="capture"} 2\n'
        '# TYPE client_retransmits counter\n'
        'client_retransmits{client="c1"} 4\n'
        'client_retransmits{client="c2"} 1\n'
    )

    def _trace(self, monitored):
        (path,) = list_segments(monitored[0], "trace")
        return str(path)

    def test_prom_snapshot_renders_fault_table(self, monitored, tmp_path):
        snapshot = tmp_path / "run.prom"
        snapshot.write_text(self.PROM)
        code, out, _ = _run_cli([
            "stats", self._trace(monitored), "--metrics", str(snapshot),
        ])
        assert code == 0
        assert "Injected faults" in out
        assert "client retransmissions: 5" in out

    def test_json_snapshot_and_json_output(self, monitored, tmp_path):
        snapshot = tmp_path / "run.json"
        snapshot.write_text(json.dumps({
            "faults.injected{fault=drop,kind=call,where=wire}": 3,
            "client.retransmits{client=c1}": 4,
        }))
        code, out, _ = _run_cli([
            "stats", self._trace(monitored),
            "--metrics", str(snapshot), "--json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["faults_injected"] == [
            {"fault": "drop", "kind": "call", "where": "wire", "count": 3}
        ]
        assert payload["client_retransmits"] == 4

    def test_empty_snapshot_reports_no_samples(self, monitored, tmp_path):
        snapshot = tmp_path / "empty.json"
        snapshot.write_text("{}")
        code, out, _ = _run_cli([
            "stats", self._trace(monitored), "--metrics", str(snapshot),
        ])
        assert code == 0
        assert "no fault-injection samples" in out
