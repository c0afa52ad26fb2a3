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

    #: sha256 of the written .rtb, recorded with the client's per-block
    #: read loop and a collector that built every warm-up record: the
    #: bytes must not depend on either shortcut.  Python 3.12 sums
    #: floats with compensated summation (the workloads' diurnal means
    #: use sum()), which moves wire times in the last bits, so each run
    #: has one digest up to 3.11 and one from 3.12 on.
    PINNED = {
        "campus": (
            "7c272c5f6e8aed2979a35344c5638ea9d902a7e78945454d43a9b65951aab0c2",
            "ddee10b3f2059a0332936147ba2e8e9317f44f49c5a24fb00e9ded82c773598f",
        ),
        "eecs": (
            "fcbe80b3e3d979fb77b98f8277c89dcf7d6378096b20acbec6553b91c4e6fa75",
            "d397126290d061f8e201262426b8807491ad1b9d123a9e35a6170bc10dcf98a2",
        ),
    }

    def test_output_matches_pinned_digests(self, tmp_path):
        """The bytes simulate writes do not move: a CAMPUS run whose
        client caches absorb reads and evict blocks, and a faulted,
        sharded EECS run."""
        import hashlib
        import sys

        from repro.trace import read_trace

        runs = {
            "campus": [
                "--system", "campus", "--days", "0.5", "--users", "8",
                "--seed", "5", "--mirror-bandwidth", "30e6",
            ],
            "eecs": [
                "--system", "eecs", "--days", "0.2", "--users", "2",
                "--seed", "3", "--shards", "2", "--faults",
                "drop(p=0.01);dup(p=0.01);reorder(p=0.02,ms=20);"
                "crash(at=90000,down=30)",
            ],
        }
        for name, argv in runs.items():
            out = tmp_path / f"{name}.rtb"
            metrics = tmp_path / f"{name}.json"
            code = main(["simulate", *argv, "--out", str(out),
                         "--metrics-out", str(metrics)])
            assert code == 0
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            assert digest == self.PINNED[name][sys.version_info >= (3, 12)], name
            snap = json.loads(metrics.read_text())
            if name == "campus":
                def total(metric):
                    return sum(v for k, v in snap.items()
                               if k.split("{")[0] == metric)

                assert total("client.block_evictions") > 0
                assert total("client.reads_absorbed") > 0
            else:
                assert len(read_trace(out)) >= 1000


class TestShardedOutput:
    """``simulate --shards`` writes its trace through one merge, and
    ``monitor --shards`` reads the stream that merge writes."""

    ARGS = [
        "--system", "eecs", "--days", "0.1", "--users", "3", "--seed", "4",
        "--faults", "drop(p=0.01);dup(p=0.01);reorder(p=0.02,ms=20)",
    ]

    def test_every_format_holds_the_one_shard_records(self, tmp_path, capsys):
        from repro.trace import read_trace
        from repro.trace.record import record_to_line

        outputs = {}
        reports = []
        for shards in (1, 2):
            for suffix in (".rtb", ".rtb.gz", ".trace"):
                out = tmp_path / f"shards-{shards}{suffix}"
                assert main(["simulate", *self.ARGS, "--shards", str(shards),
                             "--out", str(out)]) == 0
                outputs[shards, suffix] = out
                reports.append(capsys.readouterr().out)
        expected = read_trace(outputs[1, ".rtb"])
        assert len(expected) > 100
        assert all(f"wrote {len(expected)} records" in r for r in reports)
        for suffix in (".rtb", ".rtb.gz", ".trace"):
            one, two = outputs[1, suffix], outputs[2, suffix]
            assert one.read_bytes() == two.read_bytes(), suffix
        assert read_trace(outputs[2, ".rtb.gz"]) == expected
        # the text format keeps wire times to the microsecond
        assert outputs[2, ".trace"].read_text() == "".join(
            record_to_line(record) + "\n" for record in expected)

    @pytest.mark.parametrize("suffix", [".rtb", ".rtb.gz", ".trace"])
    def test_failed_merge_leaves_no_file(self, suffix, tmp_path, monkeypatch,
                                         capsys):
        from itertools import islice

        from repro.errors import TraceFormatError
        from repro.workloads import sharding

        merge_frames = sharding.merge_frames
        merged = sharding.ShardRun.merged

        def fail_mid_merge(payloads):
            yield from merge_frames(payloads[:1])  # bytes reach the file
            raise TraceFormatError("injected merge failure")

        def fail_mid_stream(run):
            yield from islice(merged(run), 1000)
            raise TraceFormatError("injected merge failure")

        if suffix == ".trace":
            monkeypatch.setattr(sharding.ShardRun, "merged", fail_mid_stream)
        else:
            monkeypatch.setattr(sharding, "merge_frames", fail_mid_merge)
        out = tmp_path / f"t{suffix}"
        code = main(["simulate", *self.ARGS, "--shards", "2",
                     "--out", str(out)])
        assert code == 2
        assert "injected merge failure" in capsys.readouterr().err
        assert not out.exists()

    def test_monitor_segments_are_the_simulate_trace(self, tmp_path):
        from repro.obs.rotate import list_segments
        from repro.trace import read_trace

        directory = tmp_path / "segments"
        assert main(["monitor", *self.ARGS, "--shards", "2",
                     "--interval", "86400", "--segment-bytes", "65536",
                     "--dir", str(directory)]) == 0
        simulated = tmp_path / "simulated.rtb.gz"
        assert main(["simulate", *self.ARGS, "--shards", "2",
                     "--out", str(simulated)]) == 0
        paths = list_segments(directory, "trace")
        assert len(paths) > 1
        segments = [record for path in paths for record in read_trace(path)]
        expected = read_trace(simulated)
        assert expected
        assert segments == expected


class TestAnalyzeDigests:
    """The analysis reports do not move either.

    The stream/batch equivalence tests compare two paths that share the
    decoder, ``RunBuilder.feed`` and ``TraceSummary.add``, so a change
    to those moves both sides at once; these digests see it.  The
    inputs are the two traces ``TestSimulate`` pins, and ``--in`` is
    relative, so the report titles do not depend on the temp dir.
    3.11 and 3.12 print the same reports: the traces differ only in the
    last bits of wire times, below every printed figure.
    """

    RUNS = {
        "campus": [
            "--system", "campus", "--days", "0.5", "--users", "8",
            "--seed", "5", "--mirror-bandwidth", "30e6",
        ],
        "eecs": [
            "--system", "eecs", "--days", "0.2", "--users", "2",
            "--seed", "3", "--shards", "2", "--faults",
            "drop(p=0.01);dup(p=0.01);reorder(p=0.02,ms=20);"
            "crash(at=90000,down=30)",
        ],
    }

    #: sha256 of analyze's stdout, per (trace, mode)
    PINNED = {
        ("campus", "--stream"):
            "f0da9e805e29dbb96b9e5fbfa0a83bef56016666791d3ee571c9bc6287ae9e4f",
        ("campus", "--jobs"):
            "907ee47c52f111e76940fbc77db2328ff5955120a5aaef918a7ede6c70d9c466",
        ("eecs", "--stream"):
            "605b23c84aede39f88e4e46d1677720dbb4b027b762a6062e2b76bce89974f82",
        ("eecs", "--jobs"):
            "68c7a5eea6dcf2e43ed19f24b4ee6974c78a47c7136ccd8c5e038eeb9606d2a9",
    }

    #: sha256 of the other reports' stdout, per (trace, command):
    #: lifetimes' own phases, report's characterization, the names
    #: census and predictions, and the stats tallies, which the
    #: engine's ``process_record`` path feeds
    PINNED_REPORTS = {
        ("campus", "stats"):
            "7eca728d9ae6b1fb3e0cdce2db528f9ad6e1ca10a2dd4bb03289c8d8bf451307",
        ("eecs", "stats"):
            "a75172bccf73210c893fb05893f75d87a7a3212179de5a8511ec57e2eec005ec",
        ("campus", "report"):
            "ba06b90a75f5e693cc14b7731543921b095f31057ce48022eb69f0e945ff4d0a",
        ("campus", "lifetimes"):
            "654ae1d7ede7d02f19c1284b85a3bef4a96ce5a06d7292d58eb02d760463c322",
        ("campus", "names"):
            "75818cf65784e82ddba6ff8bc230367662f2608d30c6b793928cdf83a8cbd2e8",
        ("eecs", "report"):
            "52cc3d7fce7cbcc509a985b35331a5f8b25fa8dc3042720718f5926619b7ded7",
        ("eecs", "lifetimes"):
            "bd18de90c9002193702efcdd137b7ad739c89d4faa2fd384a1ff4336d11ac251",
        ("eecs", "names"):
            "1d49f9a79cea27dd1da76f216253813b8957d9ba7b415bd851df4ec4f5380f4e",
    }

    def test_analyze_output_matches_pinned_digests(
        self, tmp_path, monkeypatch, capsys
    ):
        import hashlib
        import sys

        monkeypatch.chdir(tmp_path)
        for name, argv in self.RUNS.items():
            trace = f"{name}.rtb"
            assert main(["simulate", *argv, "--out", trace]) == 0
            digest = hashlib.sha256((tmp_path / trace).read_bytes()).hexdigest()
            assert digest == TestSimulate.PINNED[name][
                sys.version_info >= (3, 12)], name
            capsys.readouterr()
            for mode in (["--stream"], ["--jobs", "1"]):
                assert main(["analyze", "--in", trace, *mode]) == 0
                out = capsys.readouterr().out
                assert (hashlib.sha256(out.encode()).hexdigest()
                        == self.PINNED[name, mode[0]]), (name, mode)
            for command in ("report", "lifetimes", "names", "stats"):
                argv = [trace] if command == "stats" else ["--in", trace]
                assert main([command, *argv]) == 0
                out = capsys.readouterr().out
                assert (hashlib.sha256(out.encode()).hexdigest()
                        == self.PINNED_REPORTS[name, command]), (name, command)


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

    def test_batch_analyses_leave_no_cyclic_garbage(self, campus_trace,
                                                     tmp_path):
        """Batch ``analyze`` runs its analyses with cyclic GC paused,
        which is safe only while they leave no reference cycles."""
        import gc
        import importlib

        from repro.analysis.pairing import pair_trace
        from repro.obs.gcpause import paused_gc

        cli = importlib.import_module("repro.cli.main")
        eecs = tmp_path / "eecs.rtb"
        assert main(["simulate", "--system", "eecs", "--days", "0.6",
                     "--users", "4", "--seed", "9", "--out", str(eecs)]) == 0
        for trace in (campus_trace, eecs):
            ops, _stats = pair_trace(trace)
            assert len(ops) > 1000
            start, end = ops[0].time, ops[-1].time + 1.0
            gc.collect()
            with paused_gc():
                summary = cli.summarize_trace(ops, start, end)
                table = cli._batch_runs_table(ops, start, end, 10.0, 4)
                report = cli._report_text(trace, ops, start, end, summary)
                # the results are still referenced: only what the
                # analyses dropped can be found
                assert gc.collect() == 0
            assert table.total_runs and report

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
        # records stream to the file, and progress still counts them
        last = [line for line in err.splitlines() if "[repro] sim" in line][-1]
        assert int(last.split("records")[1].split()[0].replace(",", "")) > 0


class TestFailedRunLeavesNoTrace:
    """simulate and watch stream the trace while the run goes; a run
    that fails mid-way must not leave a partial file that looks done."""

    @pytest.fixture
    def failing_run(self, monkeypatch):
        from repro.errors import SimulationError
        from repro.workloads import TracedSystem

        run = TracedSystem.run

        def fail_late(system, until):
            run(system, until - 0.05 * 86400.0)  # records already written
            raise SimulationError("injected failure")

        monkeypatch.setattr(TracedSystem, "run", fail_late)

    @pytest.mark.parametrize("command", ["simulate", "watch"])
    def test_partial_trace_is_removed(self, command, tmp_path, capsys,
                                      failing_run):
        trace = tmp_path / "t.rtb"
        code = main([
            command, "--system", "campus", "--days", "0.3", "--users", "2",
            "--seed", "5", "--out", str(trace),
        ])
        assert code == 2
        assert "injected failure" in capsys.readouterr().err
        assert not trace.exists()


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
