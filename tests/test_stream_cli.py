"""Tests for the streaming CLI surface: analyze --stream and watch."""

import pytest

from repro.cli import main
from repro.simcore.clock import SECONDS_PER_DAY


@pytest.fixture(scope="module")
def campus_trace(tmp_path_factory):
    """A small simulated trace file produced via the CLI itself."""
    out = tmp_path_factory.mktemp("stream_cli") / "campus.trace.gz"
    code = main([
        "simulate", "--system", "campus", "--days", "0.5",
        "--users", "3", "--seed", "17", "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def campus_binary(campus_trace, tmp_path_factory):
    """The same trace in the binary .rtb.gz codec."""
    out = tmp_path_factory.mktemp("stream_cli_bin") / "campus.rtb.gz"
    code = main(["convert", "--in", str(campus_trace), "--out", str(out)])
    assert code == 0
    return out


def _sections(text):
    return text.split("\n\n")


class TestAnalyzeStream:
    def _analyze(self, capsys, path, *extra):
        code = main(["analyze", "--in", str(path), *extra])
        assert code == 0
        return capsys.readouterr().out

    def test_summary_and_runs_identical_to_batch(self, campus_trace, capsys):
        batch = _sections(self._analyze(capsys, campus_trace))
        stream = _sections(self._analyze(capsys, campus_trace, "--stream"))
        # section 0: Table 2 summary; section 1: Table 3 run patterns —
        # the streaming analyses are exact, so the text is identical
        assert stream[0] == batch[0]
        assert stream[1] == batch[1]

    def test_identical_on_binary_trace(self, campus_binary, capsys):
        batch = _sections(self._analyze(capsys, campus_binary))
        stream = _sections(self._analyze(capsys, campus_binary, "--stream"))
        assert stream[0] == batch[0]
        assert stream[1] == batch[1]

    def test_stream_extras_present(self, campus_trace, capsys):
        out = self._analyze(capsys, campus_trace, "--stream")
        assert "Hot files" in out
        assert "Reply latency" in out
        assert "peak streaming state:" in out

    def test_stream_metrics_out(self, campus_trace, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        self._analyze(capsys, campus_trace, "--stream", "--metrics-out", str(path))
        snapshot = json.loads(path.read_text())
        assert snapshot["stream.records"] > 0
        assert snapshot["stream.ops"] > 0

    def test_stream_respects_explicit_window(self, campus_trace, capsys):
        start = str(1.0 * SECONDS_PER_DAY)
        end = str(1.2 * SECONDS_PER_DAY)
        batch = _sections(self._analyze(
            capsys, campus_trace, "--start", start, "--end", end))
        stream = _sections(self._analyze(
            capsys, campus_trace, "--stream", "--start", start, "--end", end))
        assert stream[0] == batch[0]
        assert stream[1] == batch[1]

    def test_runs_command_prints_stream_runs_section(
        self, campus_trace, capsys
    ):
        window = ("--start", str(1.0 * SECONDS_PER_DAY),
                  "--end", str(1.2 * SECONDS_PER_DAY))
        for extra in ((), window):
            stream = _sections(
                self._analyze(capsys, campus_trace, "--stream", *extra))
            assert main(["runs", "--in", str(campus_trace), *extra]) == 0
            assert capsys.readouterr().out.rstrip("\n") == stream[1]

    def test_empty_trace_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.trace"
        empty.write_text("")
        code = main(["analyze", "--in", str(empty), "--stream"])
        assert code != 0
        assert "no pairable operations" in capsys.readouterr().err


class TestWatch:
    def test_renders_live_snapshots(self, capsys):
        code = main([
            "watch", "--system", "campus", "--users", "2",
            "--days", "0.05", "--seed", "21", "--interval", "600",
        ])
        assert code == 0
        captured = capsys.readouterr()
        snapshots = [
            line for line in captured.err.splitlines()
            if line.startswith("[watch]")
        ]
        assert len(snapshots) >= 2
        assert "Summary of live campus simulation" in captured.out
        assert "snapshots rendered" in captured.out

    def test_watch_out_writes_measured_trace(self, tmp_path, capsys):
        from repro.trace import read_trace

        out = tmp_path / "watched.trace.gz"
        code = main([
            "watch", "--system", "eecs", "--users", "2",
            "--days", "0.05", "--seed", "22", "--interval", "1200",
            "--out", str(out),
        ])
        assert code == 0
        records = read_trace(out)
        assert records
        assert all(r.time >= SECONDS_PER_DAY for r in records)

    def test_watch_summary_matches_trace_analysis(self, tmp_path, capsys):
        """The live engine and a batch pass over the written trace agree."""
        out = tmp_path / "watched.trace.gz"
        code = main([
            "watch", "--system", "campus", "--users", "2",
            "--days", "0.1", "--seed", "23", "--interval", "1800",
            "--out", str(out),
        ])
        assert code == 0
        watch_out = capsys.readouterr().out
        code = main(["summary", "--in", str(out)])
        assert code == 0
        batch_out = capsys.readouterr().out
        # same numbers row for row; only the table titles differ
        watch_rows = watch_out.splitlines()
        batch_rows = batch_out.splitlines()
        for row in batch_rows:
            if row.startswith("| ") and "Metric" not in row:
                assert row in watch_rows
