"""CLI error paths: every bad input exits 2 with one clean stderr
line (``repro: error: ...``) — no traceback, no stray output files."""

import gzip

import pytest

from repro.cli import main


@pytest.fixture()
def good_trace(tmp_path):
    """A tiny valid text trace (one paired GETATTR)."""
    path = tmp_path / "good.trace"
    path.write_text(
        "1.000000 C 10.1.1.1 10.0.0.100 V3 1 getattr fh=aa\n"
        "1.000500 R 10.1.1.1 10.0.0.100 V3 1 getattr NFS3_OK fh=aa\n"
    )
    return path


def _expect_error(capsys, argv, match=""):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("repro: error:")
    assert captured.err.count("\n") == 1  # exactly one line, no traceback
    if match:
        assert match in captured.err
    return captured


class TestAnalyzeErrors:
    def test_missing_file(self, tmp_path, capsys):
        _expect_error(capsys, ["analyze", "--in", str(tmp_path / "nope.trace")])

    def test_directory(self, tmp_path, capsys):
        _expect_error(capsys, ["analyze", "--in", str(tmp_path)])

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.trace"
        empty.write_text("")
        _expect_error(capsys, ["analyze", "--in", str(empty)], "no pairable")

    def test_empty_file_with_jobs(self, tmp_path, capsys):
        empty = tmp_path / "empty.trace"
        empty.write_text("")
        _expect_error(capsys, [
            "analyze", "--in", str(empty), "--jobs", "2",
        ], "no pairable")

    def test_corrupt_text(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("this is not a trace line\n")
        _expect_error(capsys, ["analyze", "--in", str(bad)])

    def test_corrupt_binary(self, tmp_path, capsys):
        bad = tmp_path / "bad.rtb"
        bad.write_bytes(b"RTBF\x01\x00garbage-frames-follow")
        _expect_error(capsys, ["analyze", "--in", str(bad)])

    def test_truncated_gzip(self, tmp_path, capsys):
        # valid call lines, so the cut container is the only fault
        line = b"1.000000 C a b V3 1 getattr uid=0 gid=0 fh=ff\n"
        bad = tmp_path / "bad.trace.gz"
        bad.write_bytes(gzip.compress(line * 50)[:40])
        for argv in (["analyze", "--in", str(bad)],
                     ["analyze", "--stream", "--in", str(bad)],
                     ["report", "--in", str(bad)]):
            _expect_error(capsys, argv, "corrupt")

    def test_stream_corrupt_binary(self, tmp_path, capsys):
        bad = tmp_path / "bad.rtb"
        bad.write_bytes(b"RTBF")  # truncated header
        _expect_error(
            capsys, ["analyze", "--stream", "--in", str(bad)], "truncated"
        )


class TestStatsErrors:
    def test_missing_file(self, tmp_path, capsys):
        _expect_error(capsys, ["stats", str(tmp_path / "nope.trace")])

    def test_wrong_magic_binary(self, tmp_path, capsys):
        bad = tmp_path / "bad.rtb"
        bad.write_bytes(b"ELF\x7fdefinitely not a trace")
        _expect_error(capsys, ["stats", str(bad)], "not a binary trace")


#: ``convert`` and ``anonymize`` both transcode ``--in`` into ``--out``.
ANONYMIZE = ["anonymize", "--key", "7"]


class TestConvertErrors:
    def test_missing_input_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "out.rtb"
        for command, message in ((["convert"], "not found"),
                                 (ANONYMIZE, "No such file")):
            _expect_error(capsys, [
                *command,
                "--in", str(tmp_path / "nope.trace"), "--out", str(out),
            ], message)
            assert not out.exists()

    def test_empty_input_leaves_no_output(self, tmp_path, capsys):
        empty = tmp_path / "empty.trace"
        empty.write_text("")
        out = tmp_path / "out.rtb"
        _expect_error(capsys, [
            "convert", "--in", str(empty), "--out", str(out),
        ], "no records")
        assert not out.exists()

    def test_corrupt_input_leaves_no_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("1.0 C 1\nnot a record either\n")
        out = tmp_path / "out.rtb"
        for command in (["convert"], ANONYMIZE):
            _expect_error(capsys, [
                *command, "--in", str(bad), "--out", str(out),
            ])
            assert not out.exists()

    def test_good_input_still_converts(self, good_trace, tmp_path, capsys):
        out = tmp_path / "out.rtb"
        assert main(["convert", "--in", str(good_trace), "--out", str(out)]) == 0
        assert out.exists()


class TestSimulateAndWatchErrors:
    def test_simulate_bad_out_directory(self, tmp_path, capsys):
        _expect_error(capsys, [
            "simulate", "--system", "campus", "--days", "0.01",
            "--users", "1", "--out", str(tmp_path / "no" / "dir" / "x.trace"),
        ])

    def test_simulate_bad_fault_spec(self, tmp_path, capsys):
        _expect_error(capsys, [
            "simulate", "--system", "campus", "--days", "0.01",
            "--faults", "meteor(p=1.0)",
            "--out", str(tmp_path / "x.trace"),
        ], "unknown fault")

    def test_watch_bad_fault_spec(self, capsys):
        _expect_error(capsys, [
            "watch", "--system", "campus", "--days", "0.01",
            "--faults", "drop(p=0.1,window=banana)",
        ], "window")

    def test_watch_rejects_shards(self, capsys):
        _expect_error(capsys, [
            "watch", "--system", "campus", "--days", "0.01",
            "--shards", "2",
        ], "cannot shard")

    @pytest.mark.parametrize("shards", ["0", "-3"])
    def test_watch_shards_below_one(self, shards, capsys):
        _expect_error(capsys, [
            "watch", "--system", "campus", "--days", "0.01",
            "--shards", shards,
        ], f"--shards must be >= 1, got {shards}")

    def test_simulate_shards_zero(self, tmp_path, capsys):
        _expect_error(capsys, [
            "simulate", "--system", "campus", "--days", "0.01",
            "--users", "2", "--shards", "0",
            "--out", str(tmp_path / "x.trace"),
        ], "--shards")

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_analyze_jobs_below_one(self, good_trace, jobs, capsys):
        for stream in ([], ["--stream"]):
            _expect_error(capsys, [
                "analyze", "--in", str(good_trace), "--jobs", jobs, *stream,
            ], f"--jobs must be >= 1, got {jobs}")

    def test_simulate_sharded_bad_fault_spec(self, tmp_path, capsys):
        _expect_error(capsys, [
            "simulate", "--system", "campus", "--days", "0.01",
            "--users", "2", "--shards", "2",
            "--faults", "meteor(p=1.0)",
            "--out", str(tmp_path / "x.trace"),
        ], "unknown fault")

    def test_monitor_shards_rejects_serve(self, tmp_path, capsys):
        _expect_error(capsys, [
            "monitor", "--system", "campus", "--days", "0.01",
            "--users", "2", "--shards", "2", "--serve",
            "--dir", str(tmp_path / "segs"),
        ], "--serve")


class TestWindowErrors:
    """An empty or inverted ``--start``/``--end`` window exits 2 before
    any output, with one line naming both flags.  The trace's one call
    is at t=1.0, so the batch defaults are 1.0 and just past it."""

    @pytest.mark.parametrize("argv", [
        ["summary", "--start", "100", "--end", "50"],
        ["runs", "--start", "100", "--end", "50"],
        ["report", "--start", "100", "--end", "50"],
        ["analyze", "--start", "100", "--end", "50"],
        ["analyze", "--stream", "--start", "100", "--end", "50"],
        ["analyze", "--jobs", "2", "--start", "50", "--end", "50"],
        ["analyze", "--start", "999999"],
        ["analyze", "--end", "0"],
        ["report", "--start", "999999"],
        ["report", "--end", "1.0"],
    ], ids=["summary", "runs", "report", "analyze", "stream", "equal",
            "analyze-start", "analyze-end", "report-start", "report-end"])
    def test_exits_before_any_output(self, good_trace, argv, capsys):
        captured = _expect_error(
            capsys, [*argv, "--in", str(good_trace)], "empty window")
        assert captured.out == ""
        assert "--start" in captured.err and "--end" in captured.err

    def test_window_holding_no_ops_still_reports(self, good_trace, capsys):
        # a non-empty window past the last call is not an error
        assert main(["summary", "--in", str(good_trace),
                     "--start", "5", "--end", "10"]) == 0
        assert "Total ops" in capsys.readouterr().out


class TestGoodPathsStillExit0:
    def test_stats(self, good_trace, capsys):
        assert main(["stats", str(good_trace)]) == 0
        assert "Duplicate replies" in capsys.readouterr().out
