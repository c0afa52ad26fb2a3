"""Tests for the command-line toolchain."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def campus_trace(tmp_path_factory):
    """A small simulated trace file produced via the CLI itself."""
    out = tmp_path_factory.mktemp("cli") / "campus.trace.gz"
    code = main([
        "simulate", "--system", "campus", "--days", "0.6",
        "--users", "4", "--seed", "9", "--out", str(out),
    ])
    assert code == 0
    return out


class TestSimulate:
    def test_creates_readable_trace(self, campus_trace):
        from repro.trace import read_trace

        records = read_trace(campus_trace)
        assert len(records) > 100

    def test_eecs_variant(self, tmp_path, capsys):
        out = tmp_path / "eecs.trace"
        code = main([
            "simulate", "--system", "eecs", "--days", "0.3",
            "--users", "2", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert out.exists()

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("a.trace", "b.trace"):
            out = tmp_path / name
            main([
                "simulate", "--system", "campus", "--days", "0.2",
                "--users", "2", "--seed", "5", "--out", str(out),
            ])
            outs.append(out.read_text())
        assert outs[0] == outs[1]


class TestAnonymize:
    def test_anonymize_roundtrip(self, campus_trace, tmp_path, capsys):
        out = tmp_path / "anon.trace.gz"
        code = main([
            "anonymize", "--key", "42",
            "--in", str(campus_trace), "--out", str(out),
        ])
        assert code == 0
        from repro.trace import read_trace

        raw = read_trace(campus_trace)
        anon = read_trace(out)
        assert len(raw) == len(anon)
        raw_clients = {r.client for r in raw}
        anon_clients = {r.client for r in anon}
        assert not (raw_clients & anon_clients)

    def test_mappings_persist_consistency(self, campus_trace, tmp_path):
        from repro.trace import read_trace

        mappings = tmp_path / "map.json"
        out1 = tmp_path / "a1.trace"
        out2 = tmp_path / "a2.trace"
        for out in (out1, out2):
            code = main([
                "anonymize", "--key", "42", "--mappings", str(mappings),
                "--in", str(campus_trace), "--out", str(out),
            ])
            assert code == 0
        assert json.loads(mappings.read_text())["names"]
        assert out1.read_text() == out2.read_text()

    def test_omit_mode(self, campus_trace, tmp_path):
        from repro.trace import read_trace

        out = tmp_path / "omit.trace"
        main([
            "anonymize", "--key", "1", "--omit",
            "--in", str(campus_trace), "--out", str(out),
        ])
        anon = read_trace(out)
        assert all(r.name is None for r in anon)
        assert all(r.uid is None for r in anon)


class TestAnalysisCommands:
    def test_summary(self, campus_trace, capsys):
        assert main(["summary", "--in", str(campus_trace)]) == 0
        out = capsys.readouterr().out
        assert "R/W ops ratio" in out
        assert "Metadata fraction" in out

    def test_runs(self, campus_trace, capsys):
        code = main([
            "runs", "--in", str(campus_trace),
            "--window-ms", "10", "--jumps", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Reads (% total)" in out
        assert "total runs:" in out

    def test_lifetimes(self, campus_trace, capsys):
        assert main(["lifetimes", "--in", str(campus_trace)]) == 0
        out = capsys.readouterr().out
        assert "Total births" in out
        assert "Lifetime CDF" in out

    def test_report(self, campus_trace, capsys):
        assert main(["report", "--in", str(campus_trace)]) == 0
        out = capsys.readouterr().out
        assert "Dominant call type" in out
        assert "Dominant death cause" in out

    def test_report_is_analyze_characterization(self, campus_trace, capsys):
        """Both read ops in call-time order, so they print one table."""
        assert main(["report", "--in", str(campus_trace)]) == 0
        report = capsys.readouterr().out.strip()
        assert main(["analyze", "--in", str(campus_trace)]) == 0
        assert capsys.readouterr().out.strip().split("\n\n")[2] == report

    def test_lifetimes_reads_ops_in_call_time_order(self, tmp_path, capsys):
        """A late reply must not end the trace before later calls.

        The GETATTR called at 11.9 s is answered last, at 15 s; in reply
        order it would end phase 2 at 11.9 s and drop the REMOVE.
        """
        trace = tmp_path / "late-reply.trace"
        trace.write_text(
            "1.000000 C c1 srv V3 1 create fh=d name=a\n"
            "1.001000 R c1 srv V3 1 create NFS3_OK fh=f attr_size=0\n"
            "9.000000 C c1 srv V3 2 write fh=f offset=0 count=8192\n"
            "9.001000 R c1 srv V3 2 write NFS3_OK fh=f attr_size=8192\n"
            "11.900000 C c1 srv V3 3 getattr fh=f\n"
            "12.000000 C c1 srv V3 4 remove fh=d name=a\n"
            "12.001000 R c1 srv V3 4 remove NFS3_OK fh=d\n"
            "13.500000 C c1 srv V3 5 lookup fh=d name=b\n"
            "13.501000 R c1 srv V3 5 lookup NFS3_OK fh=d\n"
            "15.000000 R c1 srv V3 3 getattr NFS3_OK fh=f attr_size=8192\n"
        )
        assert main(["lifetimes", "--in", str(trace),
                     "--phase1-end", "10"]) == 0
        rows = {
            line.rsplit(None, 1)[0]: line.rsplit(None, 1)[1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith(("Total deaths", "  by deletion", "End surplus"))
        }
        assert rows == {
            "Total deaths": "1",
            "  by deletion": "100.0%",
            "End surplus": "0.0%",
        }

    def test_names(self, campus_trace, capsys):
        assert main(["names", "--in", str(campus_trace)]) == 0
        out = capsys.readouterr().out
        assert "Name categories" in out
        assert "lock" in out
        assert "Prediction from filenames" in out

    def test_analysis_works_on_anonymized_trace(self, campus_trace, tmp_path, capsys):
        """simulate -> anonymize -> analyze composes."""
        anon = tmp_path / "anon.trace"
        main(["anonymize", "--key", "7", "--in", str(campus_trace),
              "--out", str(anon)])
        capsys.readouterr()
        assert main(["summary", "--in", str(anon)]) == 0
        assert "Total ops" in capsys.readouterr().out


class TestConvert:
    def test_convert_then_analyze(self, tmp_path, capsys):
        dump = tmp_path / "dump.txt"
        dump.write_text(
            "1.0 30.0801 31.03f2 U C3 1a 6 read fh 6189 off 0 count 2000 "
            "con = 1 len = 1\n"
            "1.001 31.03f2 30.0801 U R3 1a 6 read OK ftype 1 size 2000 "
            "count 2000 eof 1 con = 1 len = 1\n"
        )
        out = tmp_path / "converted.trace"
        assert main(["convert", "--in", str(dump), "--out", str(out)]) == 0
        assert "converted 2" in capsys.readouterr().out
        assert main(["summary", "--in", str(out)]) == 0
        assert "Total ops" in capsys.readouterr().out

    def test_transcode_text_binary_roundtrip(self, campus_trace, tmp_path, capsys):
        from repro.trace import read_trace

        rtb = tmp_path / "campus.rtb"
        back = tmp_path / "back.trace"
        assert main(["convert", "--in", str(campus_trace), "--out", str(rtb)]) == 0
        assert "converted" in capsys.readouterr().out
        assert main(["convert", "--in", str(rtb), "--out", str(back)]) == 0
        original = read_trace(campus_trace)
        assert read_trace(rtb) == original
        assert read_trace(back) == original

    def test_explicit_source_format(self, campus_trace, tmp_path):
        out = tmp_path / "copy.trace"
        assert main(["convert", "--from", "native",
                     "--in", str(campus_trace), "--out", str(out)]) == 0
        from repro.trace import read_trace

        assert read_trace(out) == read_trace(campus_trace)


class TestAnalyze:
    def test_sections_present(self, campus_trace, capsys):
        assert main(["analyze", "--in", str(campus_trace)]) == 0
        out = capsys.readouterr().out
        assert "Summary of" in out
        assert "Run patterns of" in out
        assert "Characterization of" in out

    def test_jobs_output_identical(self, campus_trace, tmp_path, capsys):
        assert main(["analyze", "--in", str(campus_trace), "--jobs", "1"]) == 0
        jobs1 = capsys.readouterr().out
        assert main(["analyze", "--in", str(campus_trace), "--jobs", "4"]) == 0
        jobs4 = capsys.readouterr().out
        assert jobs1 == jobs4

    def test_binary_trace_same_numbers(self, campus_trace, tmp_path, capsys):
        rtb = tmp_path / "campus.rtb"
        assert main(["convert", "--in", str(campus_trace), "--out", str(rtb)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--in", str(campus_trace)]) == 0
        text_out = capsys.readouterr().out
        assert main(["analyze", "--in", str(rtb)]) == 0
        binary_out = capsys.readouterr().out
        # identical up to the input path echoed in table titles
        assert (
            text_out.replace(str(campus_trace), "X")
            .replace("=", "")
            == binary_out.replace(str(rtb), "X").replace("=", "")
        )

    def test_metrics_out(self, campus_trace, tmp_path):
        metrics_path = tmp_path / "pool.json"
        assert main(["analyze", "--in", str(campus_trace),
                     "--jobs", "2", "--metrics-out", str(metrics_path)]) == 0
        snapshot = json.loads(metrics_path.read_text())
        assert "analysis.pool.chunks" in snapshot
        assert "analysis.pool.ops" in snapshot


class TestStats:
    def test_tables(self, campus_trace, capsys):
        assert main(["stats", str(campus_trace)]) == 0
        out = capsys.readouterr().out
        assert "Procedure" in out
        assert "total" in out
        assert "Estimated capture loss" in out

    def test_json(self, campus_trace, capsys):
        assert main(["stats", str(campus_trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["records"] > 100
        assert sum(doc["calls"].values()) + sum(doc["replies"].values()) == (
            doc["records"]
        )
        assert doc["orphan_replies"] == 0
        assert doc["unanswered_calls"] == 0

    def test_empty_trace_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.trace"
        empty.write_text("")
        assert main(["stats", str(empty)]) == 2

    def test_fanout_health_from_analyze_snapshot(
        self, campus_trace, tmp_path, capsys
    ):
        metrics_path = tmp_path / "pool.json"
        assert main(["analyze", "--in", str(campus_trace),
                     "--jobs", "2", "--metrics-out", str(metrics_path)]) == 0
        capsys.readouterr()
        assert main(["stats", str(campus_trace),
                     "--metrics", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "Analysis fan-out" in out
        assert "Pool utilization" in out
        assert main(["stats", str(campus_trace),
                     "--metrics", str(metrics_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        pool = doc["analysis_pool"]
        assert pool["records"] > 0
        assert pool["ops"] > 0
        assert 0.0 <= pool["utilization"] <= 1.0
        assert pool["chunk_wall_seconds_total"] > 0


class TestMetricsOut:
    def _simulate(self, tmp_path, capsys, *extra):
        trace = tmp_path / "t.trc"
        code = main([
            "simulate", "--system", "campus", "--days", "0.2",
            "--users", "2", "--seed", "5", "--out", str(trace), *extra,
        ])
        assert code == 0
        capsys.readouterr()
        return trace

    def test_snapshot_matches_trace_calls(self, tmp_path, capsys):
        """server.calls{proc=...} must equal the trace's call records."""
        from collections import Counter as Tally

        from repro.trace import read_trace

        metrics = tmp_path / "m.json"
        trace = self._simulate(tmp_path, capsys, "--metrics-out", str(metrics))
        snap = json.loads(metrics.read_text())
        tally = Tally(r.proc.value for r in read_trace(trace) if r.is_call())
        for proc, count in tally.items():
            assert snap[f"server.calls{{proc={proc}}}"] == count
        metric_total = sum(
            v for k, v in snap.items() if k.startswith("server.calls{")
        )
        assert metric_total == sum(tally.values())

    def test_prom_format(self, tmp_path, capsys):
        from repro.obs import parse_prom_text

        metrics = tmp_path / "m.prom"
        self._simulate(tmp_path, capsys, "--metrics-out", str(metrics))
        samples = parse_prom_text(metrics.read_text())
        assert any(k.startswith("server_calls{") for k in samples)
        assert "loop_events" in samples

    def test_events_out(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        self._simulate(tmp_path, capsys, "--events-out", str(events))
        lines = [json.loads(line) for line in events.read_text().splitlines()]
        assert lines[0]["event"] == "simulate.start"
        assert lines[-1]["event"] == "simulate.done"
        assert lines[-1]["records"] > 0

    def test_progress_lines_on_stderr(self, tmp_path, capsys):
        trace = tmp_path / "t.trc"
        code = main([
            "simulate", "--system", "campus", "--days", "0.2",
            "--users", "2", "--seed", "5", "--out", str(trace), "--progress",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "[repro] sim" in err
        assert "speed" in err


class TestErrors:
    def test_missing_file_is_clean_error(self, capsys):
        assert main(["summary", "--in", "/no/such/file.trace"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_empty_trace_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.trace"
        empty.write_text("")
        assert main(["summary", "--in", str(empty)]) == 2
