"""The repo benchmark: three study workloads, timed from outside.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campus-study --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):

* ``campus-study``  -- ``simulate`` CAMPUS with a lossy mirror port to
  ``.rtb``, then ``analyze --stream``;
* ``eecs-study``    -- ``simulate`` EECS ``--shards 2`` with injected
  faults to ``.rtb.gz``, then ``analyze --jobs 2``;
* ``ingest-replay`` -- ``ingest`` a rendered nfsdump capture (set-up,
  untimed), then batch ``analyze``.

Every stage runs the way a CLI user runs it: a fresh interpreter
imports ``repro.cli.main`` (``setup_s``) and calls ``main(argv)`` (the
stage), one stage at a time, as a closed loop with one client.  The
program sees only the generated input files; the seed is ours.

``--trace 0`` repeats the workload for ``--seconds`` (starting a pass
only while it is expected to end in time) and reports the end-to-end
metrics (medians).  ``--trace 1`` runs each stage untraced
and traced (layer wrappers from :mod:`tracer`), and reports per-layer
metrics and the tracing overhead.  Outputs are checked on every run;
every failed stage or check counts in ``failed``.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STAGE_RUNNER = HERE / "stage.py"
PINNED = HERE / "pinned.json"

DEFAULT_SEED = 1
#: nominal time of stage.py's reference workload; stage timings are
#: scaled by nominal / measured reference time (see README.md)
REFERENCE_SECONDS = 0.008
#: a stage that takes longer than this has hung: kill it and count it
STAGE_TIMEOUT = 150.0
#: CAMPUS mirror-port egress (bytes/s): a few percent of packets lost
MIRROR_BANDWIDTH = "30000000"
#: EECS fault mix: wire drops, capture duplicates, reordering and a
#: 30 s server crash Monday 10:00 (the run starts on Sunday 00:00)
FAULTS = "drop(p=0.01);dup(p=0.01);reorder(p=0.02,ms=20);crash(at=122400,down=30)"
#: nfsdump line disorder (s); below ingest's 5 s reorder window
DISORDER = 1.0
BAD_LINES = 30

SCALES = {
    # users, simulated days (after the warm-up Sunday); "ingest" is
    # the CAMPUS source that ingest-replay renders
    "default": {"campus": ("16", "1"), "eecs": ("8", "1"),
                "ingest": ("8", "1")},
    "tiny": {"campus": ("2", "0.4"), "eecs": ("2", "0.4"),
             "ingest": ("2", "0.4")},
}

END_TO_END = {
    "pass_records_per_s": "1/s",
    "setup_s": "s",
    "produce_records_per_s": "1/s",
    "analyze_records_per_s": "1/s",
    "produce_peak_mb": "MB",
    "analyze_peak_mb": "MB",
}

#: per-layer metrics, reported on every workload (0 where the layer
#: does no work); see README.md for which end-to-end metric each moves
PER_LAYER = {
    "workloads.self_s": "s", "workloads.ops": "count",
    "simcore.self_s": "s", "simcore.events": "count",
    "client.self_s": "s", "client.rpcs": "count",
    "client.cache_hit_ratio": "ratio", "client.readahead_used_ratio": "ratio",
    "client.retransmits": "count",
    "client.nfsiod.self_s": "s", "client.nfsiod.dispatches": "count",
    "netsim.link.self_s": "s", "netsim.link.exchanges": "count",
    "faults.self_s": "s", "faults.injected": "count",
    "server.self_s": "s", "server.calls": "count",
    "fs.self_s": "s", "fs.calls": "count",
    "netsim.mirror.self_s": "s", "netsim.mirror.drop_ratio": "ratio",
    "trace.collector.self_s": "s", "trace.collector.records": "count",
    "trace.writer.self_s": "s", "trace.writer.gzip_s": "s",
    "trace.writer.records": "count", "trace.writer.mb": "MB",
    "parallel.shard.self_s": "s", "parallel.shard.busy_s": "s",
    "parallel.shard.utilization": "ratio", "parallel.shard.merge_s": "s",
    "trace.reader.self_s": "s", "trace.reader.records": "count",
    "analysis.pairing.self_s": "s", "analysis.pairing.paired_ratio": "ratio",
    "analysis.reorder.self_s": "s", "analysis.reorder.peak_buffered": "count",
    "analysis.summary.self_s": "s", "analysis.runs.self_s": "s",
    "analysis.runs.runs": "count", "analysis.characterize.self_s": "s",
    "stream.engine.self_s": "s", "stream.analyses.self_s": "s",
    "stream.peak_items": "count",
    "parallel.pool.wait_s": "s", "parallel.pool.busy_s": "s",
    "parallel.pool.utilization": "ratio", "parallel.pool.merge_s": "s",
    "ingest.sniff_s": "s", "ingest.adapter.self_s": "s",
    "ingest.adapter.lines": "count", "ingest.adapter.bad_lines": "count",
    "ingest.reorder.self_s": "s", "ingest.reorder.out_of_order": "count",
    "ingest.normalize.self_s": "s",
    "stage_s.simulate": "s", "stage_s.ingest": "s", "stage_s.analyze": "s",
    "unattributed_s.simulate": "s", "unattributed_s.ingest": "s",
    "unattributed_s.analyze": "s",
    "tracing.overhead_s": "s", "tracing.overhead_ratio": "ratio",
}

#: tracer layers whose self-time metric is not ``<layer>.self_s``
LAYER_METRIC = {
    "trace.writer.gzip": "trace.writer.gzip_s",
    "parallel.shard.merge": "parallel.shard.merge_s",
    "parallel.pool": "parallel.pool.wait_s",
    "parallel.pool.merge": "parallel.pool.merge_s",
    "ingest.sniff": "ingest.sniff_s",
}

RECORDS_LINE = re.compile(rb"(?:wrote|ingested) (\d+) records")


class StageFailure(Exception):
    """A stage exited nonzero, raised, or timed out."""


@dataclass(frozen=True)
class Stage:
    name: str  # simulate | ingest | analyze, or a check's command
    argv: tuple[str, ...]
    output: str | None = None  # the trace file the stage writes

    def with_metrics(self) -> "Stage":
        return replace(self, argv=self.argv + (
            "--metrics-out", f"{self.name}.metrics.json"))


@dataclass
class StageRun:
    stage: Stage
    setup_s: float  # spawn to CLI imported
    main_s: float  # main(argv)
    wall_s: float  # spawn to exit
    peak_mb: float
    stdout: bytes
    layers: dict | None
    reference_s: float  # reference workload time around this stage
    reference_total_s: float  # time spent on it, inside wall_s

    @property
    def speed(self) -> float:
        """Factor turning this stage's seconds into nominal-machine
        seconds: below 1 while the machine ran slow."""
        return REFERENCE_SECONDS / self.reference_s

    def records(self) -> int:
        match = RECORDS_LINE.search(self.stdout)
        return int(match.group(1)) if match else 0


@dataclass
class Workload:
    name: str
    stages: list[Stage]  # the timed stages, in order
    traced: list[Stage]  # what the traced run runs, in order
    fanout: Stage | None = None  # untraced run giving sim.fanout.*
    source: Stage | None = None  # untimed set-up run

    def pass_stages(self, index: int) -> list[Stage]:
        """The stages of timed pass ``index``.

        Simulated traces differ in size by up to 3x between seeds, so
        one input would make a run's figures depend on which seed it
        drew.  Each pass of a simulating workload therefore simulates
        its own seed, derived from the run's: pass 0 uses the run's
        seed itself, and the medians cover as many inputs as passes.
        """
        if index == 0 or not any("--seed" in st.argv for st in self.stages):
            return self.stages
        return [
            variant(stage, "--seed", f"{seed_of(stage)}{index:03d}")
            if "--seed" in stage.argv else stage
            for stage in self.stages
        ]


def seed_of(stage: Stage) -> str:
    return stage.argv[stage.argv.index("--seed") + 1]


def workloads(seed: int, scale: str) -> dict[str, Workload]:
    campus_users, campus_days = SCALES[scale]["campus"]
    eecs_users, eecs_days = SCALES[scale]["eecs"]
    ingest_users, ingest_days = SCALES[scale]["ingest"]
    s = str(seed)
    campus_sim = Stage("simulate", (
        "simulate", "--scenario", "campus", "--days", campus_days,
        "--users", campus_users, "--seed", s,
        "--mirror-bandwidth", MIRROR_BANDWIDTH, "--out", "campus.rtb",
    ), "campus.rtb")
    eecs_sim = Stage("simulate", (
        "simulate", "--scenario", "eecs", "--days", eecs_days,
        "--users", eecs_users, "--seed", s, "--faults", FAULTS,
        "--shards", "2", "--out", "eecs.rtb.gz",
    ), "eecs.rtb.gz")
    campus = [campus_sim,
              Stage("analyze", ("analyze", "--in", "campus.rtb", "--stream"))]
    eecs = [eecs_sim,
            Stage("analyze", ("analyze", "--in", "eecs.rtb.gz", "--jobs", "2"))]
    ingest = [
        Stage("ingest", ("ingest", "--in", "campus.nfsdump", "--format",
                         "auto", "--out", "ingested.rtb"), "ingested.rtb"),
        Stage("analyze", ("analyze", "--in", "ingested.rtb")),
    ]
    return {
        "campus-study": Workload(
            "campus-study", campus, [st.with_metrics() for st in campus]),
        "eecs-study": Workload(
            "eecs-study", eecs,
            # the in-world split comes from the inline (one-shard) run,
            # whose trace is byte-identical to the two-shard one
            [variant(eecs_sim, "--shards", "1").with_metrics(),
             eecs[1].with_metrics()],
            fanout=replace(variant(eecs_sim, "--out", "eecs-2.rtb.gz"),
                           name="fanout").with_metrics()),
        "ingest-replay": Workload(
            "ingest-replay", ingest, [st.with_metrics() for st in ingest],
            # one source trace for every seed: the seed drives the
            # rendering, so ingest's window occupancy (its cost) is the
            # same on every seed while the input bytes are not
            source=variant(variant(variant(variant(
                campus_sim, "--out", "source.rtb"),
                "--seed", str(DEFAULT_SEED)),
                "--users", ingest_users), "--days", ingest_days)),
    }


def variant(stage: Stage, flag: str, value: str) -> Stage:
    """``stage`` with one flag's value changed."""
    argv = list(stage.argv)
    argv[argv.index(flag) + 1] = value
    output = value if flag == "--out" else stage.output
    return replace(stage, argv=tuple(argv), output=output)


class Bench:
    """Runs stages in a private work directory and counts failures."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(workdir))

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def check(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.fail(f"{what}: {problem}")

    def run(self, stage: Stage, traced: bool = False) -> StageRun | None:
        self.attempted += 1
        try:
            return self._run(stage, traced)
        except StageFailure as exc:
            self.fail(f"{' '.join(stage.argv)}: {exc}")
            return None

    def _run(self, stage: Stage, traced: bool) -> StageRun:
        result_path = self.workdir / "stage.json"
        result_path.unlink(missing_ok=True)
        stdout_path = self.workdir / "stdout.txt"
        stderr_path = self.workdir / "stderr.txt"
        command = [sys.executable, str(STAGE_RUNNER), str(result_path),
                   "1" if traced else "0", *stage.argv]
        spawned = time.monotonic()
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            # own process group: a hung stage is killed with its pool workers
            proc = subprocess.Popen(command, cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=err,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=STAGE_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise StageFailure(f"timed out after {STAGE_TIMEOUT:g}s")
        exited = time.monotonic()
        if code != 0 or not result_path.is_file():
            tail = stderr_path.read_text(errors="replace").strip().splitlines()
            raise StageFailure(f"exit {code}: {tail[-1] if tail else ''}")
        result = json.loads(result_path.read_text())
        return StageRun(
            stage=stage,
            setup_s=result["ready"] - spawned,
            main_s=result["end"] - result["start"],
            wall_s=exited - spawned,
            peak_mb=result["peak_mb"],
            stdout=stdout_path.read_bytes(),
            layers=result.get("layers"),
            reference_s=result["reference_s"],
            reference_total_s=result["reference_total_s"],
        )

    def path(self, name: str) -> Path:
        return self.workdir / name


# -- output checks -------------------------------------------------------------


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def decoded_digest(path: Path) -> str:
    """Digest of the decoded records, independent of container bytes
    (a gzip level change is not an output change)."""
    from repro.trace import TraceReader
    from repro.trace.record import record_to_line

    digest = hashlib.sha256()
    with TraceReader(path) as reader:
        for record in reader:
            digest.update(record_to_line(record).encode() + b"\n")
    return digest.hexdigest()


def section(stdout: bytes, index: int) -> bytes:
    """One blank-line-separated section of a report (empty if absent)."""
    parts = stdout.strip().split(b"\n\n")
    return parts[index] if index < len(parts) else b""


def fingerprint(bench: Bench, runs: list[StageRun]) -> tuple:
    """What must not change between runs of the same stages: every
    trace file written and the analyze report."""
    files = tuple(file_digest(bench.path(r.stage.output))
                  for r in runs if r.stage.output)
    return files + (runs[-1].stdout,)


def check_pinned(bench: Bench, workload: Workload, runs: list[StageRun],
                 pin: bool) -> None:
    digests = {
        "trace": decoded_digest(bench.path(runs[0].stage.output)),
        "analyze_stdout": hashlib.sha256(runs[-1].stdout).hexdigest(),
    }
    pinned = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    if pin:
        pinned[workload.name] = digests
        PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        return
    want = pinned.get(workload.name)
    for key, value in digests.items():
        bench.check(f"pinned {key} digest",
                    None if want and want.get(key) == value
                    else f"got {value}, pinned {want and want.get(key)}")


def check_campus(bench: Bench, runs: list[StageRun]) -> None:
    """``--stream`` sections equal the serial batch ones."""
    stream = runs[-1].stdout
    batch = bench.run(Stage("analyze", ("analyze", "--in", "campus.rtb")))
    serial_runs = bench.run(Stage("runs", ("runs", "--in", "campus.rtb")))
    if batch is None or serial_runs is None:
        return
    bench.check("--stream summary section equals batch analyze",
                None if section(stream, 0) == section(batch.stdout, 0)
                else "summary sections differ")
    bench.check("--stream runs section equals batch 'repro runs'",
                None if section(stream, 1) == serial_runs.stdout.strip()
                else "runs sections differ")
    if section(batch.stdout, 1) != section(stream, 1):
        print("note: batch 'analyze' runs section differs from --stream "
              "and 'repro runs' (it reorders call-time-sorted ops)",
              file=sys.stderr)


def check_eecs(bench: Bench, runs: list[StageRun]) -> None:
    """``--shards 2`` equals ``--shards 1``; ``--jobs 2`` equals ``1``."""
    one = variant(variant(runs[0].stage, "--shards", "1"),
                  "--out", "eecs-1.rtb.gz")
    if bench.run(one) is not None:
        bench.check("--shards 2 trace equals --shards 1",
                    None if decoded_digest(bench.path(one.output))
                    == decoded_digest(bench.path(runs[0].stage.output))
                    else "decoded records differ")
    serial = bench.run(Stage("analyze", ("analyze", "--in", "eecs.rtb.gz")))
    if serial is not None:
        bench.check("analyze --jobs 2 equals --jobs 1",
                    None if serial.stdout == runs[-1].stdout
                    else "reports differ")


class IngestInput:
    """ingest-replay set-up: a CAMPUS trace rendered as nfsdump text."""

    def __init__(self, bench: Bench, source: Stage, seed: int) -> None:
        from nfsdump_render import render
        from repro.trace import TraceReader

        self.ready = bench.run(source) is not None
        if self.ready:
            with TraceReader(bench.path(source.output)) as reader:
                self.records = list(reader)
            self.corrupted = render(
                self.records, bench.path("campus.nfsdump"), seed=seed,
                disorder=DISORDER, bad_lines=BAD_LINES,
            )

    def check(self, bench: Bench, runs: list[StageRun]) -> None:
        from nfsdump_render import check_ingested
        from repro.trace import TraceReader

        with TraceReader(bench.path(runs[0].stage.output)) as reader:
            problem = check_ingested(self.records, self.corrupted, reader)
        bench.check("ingest reproduces the rendered source", problem)


# -- measurement -----------------------------------------------------------------


def run_stages(bench: Bench, stages: list[Stage]) -> list[StageRun] | None:
    runs = []
    for stage in stages:
        run = bench.run(stage)
        if run is None:
            return None
        runs.append(run)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def measure_end_to_end(bench: Bench, workload: Workload, seconds: float,
                       on_first_pass):
    """Repeat the workload for ``seconds``; returns (samples, last runs).
    ``on_first_pass(runs)`` checks the first pass's outputs."""
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    samples["wall_s"] = []
    samples["reference_ms"] = []
    reference = last = None
    deadline = time.monotonic() + seconds
    index = 0
    pass_s = 0.0
    while time.monotonic() + pass_s < deadline or last is None:
        started = time.monotonic()
        stages = workload.pass_stages(index)
        index += 1
        runs = run_stages(bench, stages)
        pass_s = time.monotonic() - started
        if runs is None:
            if last is None:
                break  # failing from the start: stop and report
            continue
        produce, analyze = runs[0], runs[-1]
        records = produce.records()
        bench.check("records written", None if records else "no records")
        if last is None:
            on_first_pass(runs)
        if stages is workload.stages:
            # the same input again: the outputs must not change
            current = fingerprint(bench, runs)
            bench.check("output identical to the first run",
                        None if reference in (None, current)
                        else "trace or report changed between runs")
            reference = reference or current
        last = runs
        samples["wall_s"].append(
            sum(r.wall_s - r.reference_total_s for r in runs))
        samples["reference_ms"].extend(1e3 * r.reference_s for r in runs)
        nominal_wall = sum((r.wall_s - r.reference_total_s) * r.speed
                           for r in runs)
        samples["pass_records_per_s"].append(records / nominal_wall)
        samples["setup_s"].extend(r.setup_s * r.speed for r in runs)
        samples["produce_records_per_s"].append(
            records / (produce.main_s * produce.speed))
        samples["analyze_records_per_s"].append(
            records / (analyze.main_s * analyze.speed))
        samples["produce_peak_mb"].append(produce.peak_mb)
        samples["analyze_peak_mb"].append(analyze.peak_mb)
    return samples, last


def layer_metrics(traced: list[StageRun], plain: list[StageRun],
                  fanout: dict, bench: Bench) -> dict[str, float]:
    """Every per-layer metric for one traced pass over the workload."""
    from tracer import sum_metrics

    values = dict.fromkeys(PER_LAYER, 0.0)
    counters: dict[str, float] = {}
    calls: dict[str, int] = {}
    extra: dict[str, float] = {}
    reader_items = 0
    for run in traced:
        layers = run.layers
        stage = run.stage.name
        attributed = 0.0
        for layer, seconds in layers["self_s"].items():
            seconds_total = seconds + layers["worker_s"].get(layer, 0.0)
            values[LAYER_METRIC.get(layer, f"{layer}.self_s")] += seconds_total
            attributed += seconds
        for layer, count in layers["calls"].items():
            calls[layer] = calls.get(layer, 0) + count
        reader_items += layers["items"].get("trace.reader", 0)
        for key, value in layers["values"].items():
            extra[key] = extra.get(key, 0.0) + value
        metrics_file = bench.path(f"{stage}.metrics.json")
        counters.update(layers["world_metrics"])
        counters.update(sum_metrics(json.loads(metrics_file.read_text())))
        values[f"stage_s.{stage}"] = run.main_s
        values[f"unattributed_s.{stage}"] = (
            run.main_s - attributed - layers["overhead_s"])
        values["tracing.overhead_s"] += layers["overhead_s"]
        if stage == "analyze":
            out = run.stdout
            # the analyze stage's own reorderer, not ingest's time repair
            values["analysis.reorder.peak_buffered"] = layers["values"].get(
                "reorder.peak_buffered", 0.0)
            values["analysis.runs.runs"] = _number(rb"total runs: (\d+)", out)
            values["stream.peak_items"] = _number(
                rb"peak streaming state: ([\d,]+) items", out)
        else:
            values["trace.writer.records"] = run.records()
            values["trace.writer.mb"] = (
                bench.path(run.stage.output).stat().st_size / 1e6)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    get = counters.get
    absorbed = get("client.reads_absorbed", 0.0)
    values.update({
        "workloads.ops": calls.get("client", 0),
        "simcore.events": get("loop.events", 0.0),
        "client.rpcs": get("client.calls_sent", 0.0),
        "client.cache_hit_ratio": ratio(
            absorbed, absorbed + get("client.read_misses", 0.0)),
        "client.readahead_used_ratio": ratio(
            get("client.readahead_used", 0.0),
            get("client.readahead_issued", 0.0)),
        "client.retransmits": get("client.retransmits", 0.0),
        "client.nfsiod.dispatches": calls.get("client.nfsiod", 0),
        "netsim.link.exchanges": calls.get("netsim.link", 0),
        "faults.injected": get("faults.injected", 0.0),
        "server.calls": calls.get("server", 0),
        "fs.calls": calls.get("fs", 0),
        "netsim.mirror.drop_ratio": ratio(
            get("mirror.drops", 0.0), get("mirror.packets_seen", 0.0)),
        "trace.collector.records": get("trace.records", 0.0),
        "trace.reader.records": reader_items,
        "analysis.pairing.paired_ratio": ratio(
            extra.get("pairing.paired", 0.0), extra.get("pairing.calls", 0.0)),
        "ingest.adapter.lines": get("ingest.lines", 0.0),
        "ingest.adapter.bad_lines": get("ingest.skipped", 0.0),
        "ingest.reorder.out_of_order": extra.get("ingest.out_of_order", 0.0),
        "parallel.shard.busy_s": fanout.get("sim.fanout.shard_seconds", 0.0),
        "parallel.shard.utilization": fanout.get("sim.fanout.utilization", 0.0),
        "tracing.overhead_ratio": ratio(
            sum(r.main_s for r in traced), sum(r.main_s for r in plain)) - 1.0,
    })
    if get("analysis.pool.jobs", 0.0) > 1:
        values["parallel.pool.busy_s"] = get("analysis.pool.chunk_seconds", 0.0)
        values["parallel.pool.utilization"] = get("analysis.pool.utilization", 0.0)
    return values


def _number(pattern: bytes, text: bytes) -> float:
    match = re.search(pattern, text)
    return float(match.group(1).replace(b",", b"")) if match else 0.0


def traced_pass(bench: Bench, workload: Workload, traced_first: bool):
    """Each traced stage run untraced and traced; ``None`` on failure."""
    from tracer import sum_metrics

    traced, plain = [], []
    for stage in workload.traced:
        pair = {}
        for flag in (traced_first, not traced_first):
            run = bench.run(stage, traced=flag)
            if run is None:
                return None
            pair[flag] = (run, fingerprint(bench, [run]))
        bench.check(f"traced {stage.name} output equals untraced",
                    None if pair[True][1] == pair[False][1]
                    else "tracing changed the output")
        traced.append(pair[True][0])
        plain.append(pair[False][0])
    fanout = {}
    if workload.fanout is not None:
        if bench.run(workload.fanout) is None:
            return None
        fanout = sum_metrics(json.loads(
            bench.path("fanout.metrics.json").read_text()))
    return traced, plain, fanout


def measure_layers(bench: Bench, workload: Workload, seconds: float):
    """Traced passes for ``seconds``, alternating which side of each
    untraced/traced pair runs first; returns per-layer samples and the
    largest layer of each traced stage."""
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    largest: dict[str, tuple[str, float, float]] = {}
    deadline = time.monotonic() + seconds
    rounds = 0
    round_s = 0.0
    while time.monotonic() + round_s < deadline or rounds == 0:
        rounds += 1
        started = time.monotonic()
        result = traced_pass(bench, workload, traced_first=rounds % 2 == 0)
        round_s = time.monotonic() - started
        if result is None:
            if not samples["tracing.overhead_ratio"]:
                break
            continue
        traced, plain, fanout = result
        for name, value in layer_metrics(traced, plain, fanout, bench).items():
            samples[name].append(value)
        for run in traced:
            layer, layer_s = max(run.layers["self_s"].items(),
                                 key=lambda item: item[1])
            largest[run.stage.name] = (layer, layer_s, run.main_s)
    return samples, largest


# -- reporting ---------------------------------------------------------------


def print_table(samples: dict[str, list[float]], units: dict[str, str],
                labels: dict[str, str]) -> dict[str, dict]:
    """Print median, quartiles and n of every metric in ``units``;
    returns the medians as the result's ``metrics``."""
    print(f"{'metric':34s} {'unit':6s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'n':>4s}")
    metrics = {}
    for name, unit in units.items():
        values = samples.get(name) or [0.0]
        q1, median, q3 = quartiles(values)
        print(f"{labels.get(name, name):34s} {unit:6s} {median:14.6g} "
              f"{q1:14.6g} {q3:14.6g} {len(samples.get(name) or []):4d}")
        if name in END_TO_END or name in PER_LAYER:
            metrics[name] = {"value": median, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campus-study", "eecs-study", "ingest-replay"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="default",
                        help="'tiny' is for the benchmark's own tests")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's output digests as the "
                             "pinned values (default seed and scale only)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli" / "main.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads(args.seed, args.scale)[args.workload]
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _run(args, workload, Bench(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args, workload: Workload, bench: Bench) -> int:
    print(f"perfbench {workload.name} seed={args.seed} scale={args.scale} "
          f"trace={args.trace}: {os.cpu_count()} cores, Python "
          f"{platform.python_version()}, {platform.platform()}")
    ingest_input = None
    if workload.source is not None:
        ingest_input = IngestInput(bench, workload.source, args.seed)
        if not ingest_input.ready:
            return 1
    if args.trace:
        samples, largest = measure_layers(bench, workload, args.seconds)
        metrics = print_table(samples, PER_LAYER, {})
        for stage, (layer, seconds, wall) in largest.items():
            print(f"largest layer in {stage}: {layer} "
                  f"({seconds:.3f} s of {wall:.3f} s traced)")
    else:
        samples, last = measure_end_to_end(
            bench, workload, args.seconds,
            lambda runs: _check_first(args, bench, workload, runs))
        if last is None:
            return 1
        produce = workload.stages[0].name
        # wall_s varies with the seed's input size, so it is shown but
        # the result carries the size-free pass_records_per_s instead
        metrics = print_table(samples, {"wall_s": "s", "reference_ms": "ms",
                                        **END_TO_END}, {
            "produce_records_per_s": f"{produce}_records_per_s",
            "produce_peak_mb": f"{produce}_peak_mb",
        })
        _check_last(bench, workload, last, ingest_input)
    if not any(samples.values()):
        return 1
    print(f"{'error_rate':34s} {'ratio':6s} "
          f"{bench.failed / max(bench.attempted, 1):14.6g} "
          f"({bench.failed} of {bench.attempted} stages and checks failed)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


def _check_first(args, bench: Bench, workload: Workload,
                 runs: list[StageRun]) -> None:
    if args.seed == DEFAULT_SEED and args.scale == "default":
        check_pinned(bench, workload, runs, args.pin)


def _check_last(bench: Bench, workload: Workload, runs: list[StageRun],
                ingest_input) -> None:
    """Checks made once per invocation, on the last pass's outputs."""
    if workload.name == "campus-study":
        check_campus(bench, runs)
    elif workload.name == "eecs-study":
        check_eecs(bench, runs)
    else:
        ingest_input.check(bench, runs)


if __name__ == "__main__":
    sys.exit(main())
