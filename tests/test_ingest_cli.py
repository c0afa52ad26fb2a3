"""CLI contract tests for ``repro ingest`` (and the ``convert`` alias)."""

import gzip

import pytest

from repro.cli.main import main

NFSDUMP_LINES = (
    "1004562602.021187 30.0801 31.03f2 U C3 fa09d317 3 lookup "
    'fh 6189010057570100200000000051d72d name ".profile" con = 130 len = 110\n'
    "1004562602.021667 31.03f2 30.0801 U R3 fa09d317 3 lookup OK "
    "ftype 1 fh 6189010057570100200000000051d7ff size 43e "
    "fileid 51d7 con = 130 len = 140\n"
)

SNIA_LINES = (
    "1004562602.021187 C3 nfs0.17 srv.2049 fa09d317 lookup "
    "fh=6189ab name=.profile\n"
    "1004562602.021667 R3 nfs0.17 srv.2049 fa09d317 lookup OK "
    "ftype=REG size=1086 fileid=20951\n"
)


def _expect_error(capsys, argv, needle=None):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert len(err.strip().splitlines()) == 1  # one clean line, no traceback
    if needle:
        assert needle in err
    return err


class TestIngestErrors:
    def test_unknown_format_lists_adapters(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text(NFSDUMP_LINES)
        out = tmp_path / "out.rtb"
        err = _expect_error(capsys, [
            "ingest", "--in", str(src), "--format", "sniffy",
            "--out", str(out),
        ], "unknown trace format 'sniffy'")
        # the diagnostic names every registered adapter
        from repro.ingest import REGISTRY

        for name in REGISTRY.names():
            assert name in err
        assert not out.exists()

    def test_ambiguous_sniff_names_candidates(self, tmp_path, capsys):
        # one nfsdump line + one snia line: a perfect 0.5/0.5 tie
        src = tmp_path / "mixed.txt"
        src.write_text(NFSDUMP_LINES.splitlines()[0] + "\n"
                       + SNIA_LINES.splitlines()[0] + "\n")
        out = tmp_path / "out.rtb"
        err = _expect_error(capsys, [
            "ingest", "--in", str(src), "--out", str(out),
        ], "ambiguous trace format")
        assert "nfsdump" in err and "snia-nfs" in err
        assert "--format" in err  # tells the user the way out
        assert not out.exists()

    def test_unsniffable_garbage(self, tmp_path, capsys):
        src = tmp_path / "noise.txt"
        src.write_text("complete nonsense\nmore nonsense\n")
        out = tmp_path / "out.rtb"
        _expect_error(capsys, [
            "ingest", "--in", str(src), "--out", str(out),
        ], "could not sniff")
        assert not out.exists()

    def test_empty_input_leaves_no_output(self, tmp_path, capsys):
        src = tmp_path / "empty.txt"
        src.write_text("")
        out = tmp_path / "out.rtb"
        _expect_error(capsys, [
            "ingest", "--in", str(src), "--format", "nfsdump",
            "--on-error", "fail", "--out", str(out),
        ])
        assert not out.exists()

    def test_binary_garbage_under_fail_leaves_no_output(self, tmp_path, capsys):
        src = tmp_path / "junk.bin.gz"
        src.write_bytes(b"\x1f\x8b\x08\x00 truncated not really gzip")
        out = tmp_path / "out.rtb.gz"
        _expect_error(capsys, [
            "ingest", "--in", str(src), "--format", "nfsdump",
            "--on-error", "fail", "--out", str(out),
        ])
        assert not out.exists()

    def test_malformed_line_fails_with_diagnostic(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text(NFSDUMP_LINES + "garbage in the middle\n")
        out = tmp_path / "out.rtb"
        err = _expect_error(capsys, [
            "ingest", "--in", str(src), "--format", "nfsdump",
            "--on-error", "fail", "--out", str(out),
        ])
        assert "line 3" in err  # names the offending line
        assert not out.exists()

    @pytest.mark.parametrize("window", ["nan", "inf", "-3"])
    def test_reorder_window_must_be_finite_and_non_negative(
        self, tmp_path, capsys, window
    ):
        src = tmp_path / "in.txt"
        src.write_text(NFSDUMP_LINES)
        out = tmp_path / "out.rtb"
        out.write_bytes(b"an earlier trace")
        _expect_error(capsys, [
            "ingest", "--in", str(src), "--reorder-window", window,
            "--out", str(out),
        ], "reorder window")
        # rejected before the output is opened, so it survives
        assert out.read_bytes() == b"an earlier trace"

    def test_missing_input(self, tmp_path, capsys):
        out = tmp_path / "out.rtb"
        _expect_error(capsys, [
            "ingest", "--in", str(tmp_path / "nope.txt"), "--out", str(out),
        ], "not found")
        assert not out.exists()


class TestIngestHappyPath:
    def test_skip_policy_reports_skips(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text(NFSDUMP_LINES + "garbage in the middle\n")
        out = tmp_path / "out.rtb"
        assert main(["ingest", "--in", str(src), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "ingested 2 records" in stdout
        assert "1 skipped" in stdout
        assert "nfsdump" in stdout

    def test_zero_reorder_window_is_strict_order(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text(NFSDUMP_LINES)
        out = tmp_path / "out.rtb"
        assert main(["ingest", "--in", str(src), "--reorder-window", "0",
                     "--out", str(out)]) == 0
        assert "ingested 2 records" in capsys.readouterr().out

    def test_gzip_source(self, tmp_path, capsys):
        src = tmp_path / "in.txt.gz"
        with gzip.open(src, "wt") as handle:
            handle.write(SNIA_LINES)
        out = tmp_path / "out.rtb"
        assert main(["ingest", "--in", str(src), "--out", str(out)]) == 0
        assert "snia-nfs" in capsys.readouterr().out

    def test_metrics_out(self, tmp_path, capsys):
        import json

        src = tmp_path / "in.txt"
        src.write_text(NFSDUMP_LINES + "garbage\n")
        out = tmp_path / "out.rtb"
        metrics = tmp_path / "metrics.json"
        assert main(["ingest", "--in", str(src), "--out", str(out),
                     "--metrics-out", str(metrics)]) == 0
        counters = json.loads(metrics.read_text())
        assert counters["ingest.records{adapter=nfsdump}"] == 2
        assert counters[
            "ingest.skipped{adapter=nfsdump,reason=short-line}"
        ] == 1


class TestConvertAlias:
    def test_convert_matches_ingest_byte_for_byte(self, tmp_path, capsys):
        """``repro convert`` is now a routed alias of the ingest
        pipeline — same input, same bytes out."""
        src = tmp_path / "dump.txt"
        src.write_text(NFSDUMP_LINES)
        via_convert = tmp_path / "convert.rtb.gz"
        via_ingest = tmp_path / "ingest.rtb.gz"
        assert main(["convert", "--in", str(src),
                     "--out", str(via_convert)]) == 0
        assert main(["ingest", "--in", str(src), "--format", "nfsdump",
                     "--out", str(via_ingest)]) == 0
        assert via_convert.read_bytes() == via_ingest.read_bytes()

    def test_convert_output_message_is_stable(self, tmp_path, capsys):
        src = tmp_path / "dump.txt"
        src.write_text(NFSDUMP_LINES + "junk line\n")
        out = tmp_path / "out.rtb"
        assert main(["convert", "--in", str(src), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "converted 2 of 3 lines (1 skipped)" in stdout


class TestConvertSniff:
    def test_nfsdump_behind_a_garbage_head_line(self, tmp_path, capsys):
        """Any nfsdump-shaped line in the head picks the nfsdump path."""
        src = tmp_path / "dump.txt"
        src.write_text("junk line\n" + NFSDUMP_LINES)
        out = tmp_path / "out.rtb"
        assert main(["convert", "--in", str(src), "--out", str(out)]) == 0
        assert "converted 2 of 3 lines (1 skipped)" in capsys.readouterr().out

    def test_unreadable_gzip_exits_cleanly(self, tmp_path, capsys):
        src = tmp_path / "junk.trace.gz"
        src.write_bytes(b"\x1f\x8b\x08\x00 truncated not really gzip")
        out = tmp_path / "out.rtb"
        _expect_error(capsys, [
            "convert", "--in", str(src), "--out", str(out),
        ], "corrupt")
        assert not out.exists()
