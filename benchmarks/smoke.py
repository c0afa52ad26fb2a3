"""Scaled-down campus bench for CI's bench-smoke job.

Simulates two CAMPUS days at reduced scale, exercises the text and
binary codecs and the parallel pairing fan-out, writes a
``BENCH_smoke.json`` snapshot (uploaded as a CI artifact), and gates
on machine-comparable ratios against the committed baseline
(``BENCH_smoke_baseline.json``): a metric more than 30% below baseline
fails the job.  The wide margin absorbs runner noise; absolute wall
seconds are recorded for humans but never gated, since CI hardware
varies.

The streaming engine rides along twice: the main bench records its
throughput and gates ``stream_mem_ratio`` (peak bytes of the
materialize-everything pipeline over peak bytes of the one-pass
engine, measured with ``tracemalloc``), and ``--stream-smoke`` runs a
standalone, baseline-free gate asserting the streaming pass peaks
strictly below full materialization — the bounded-memory contract of
``repro analyze --stream``.

Usage::

    python benchmarks/smoke.py --out benchmarks/BENCH_smoke.json
    python benchmarks/smoke.py --write-baseline   # refresh the baseline
    python benchmarks/smoke.py --stream-smoke     # CI memory gate only
    python benchmarks/smoke.py --chaos-smoke      # CI fault-injection gate
    python benchmarks/smoke.py --obs-smoke        # CI span/monitor gate
    python benchmarks/smoke.py --speedup-gate     # CI parallel/encode gate
    python benchmarks/smoke.py --shard-smoke      # CI sharded-simulator gate
    python benchmarks/smoke.py --scenario-smoke   # CI scenario-library gate
    python benchmarks/smoke.py --ingest-smoke     # CI foreign-trace ingest gate

``--chaos-smoke`` is the fault-injection counterpart: one faulted
CAMPUS day run twice, gating on byte-identical reruns and on the fault
ledger predicting the pairing stats exactly, serially and through the
chunked pool (see docs/FAULTS.md).
``--obs-smoke`` gates the span layer: sampling must not perturb the
trace bytes or blow its wall-time budget, and ``repro monitor``
segments must rotate and answer ``repro query`` round-trips (see
docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BASELINE = BENCH_DIR / "BENCH_smoke_baseline.json"

#: Gated metrics: all are same-machine ratios, so they transfer across
#: hardware.  Higher is better for every one of them.
GATED = ("sim_wall_ratio", "decode_ratio", "binary_size_ratio",
         "stream_mem_ratio")

#: Fail when a gated metric drops more than this far below baseline.
TOLERANCE = 0.30

DAY = 86400.0


def _stream_pass(path: Path) -> dict:
    """One bounded-memory engine pass over a trace file."""
    from repro.stream import StreamEngine, StreamRuns, StreamSummary
    from repro.trace import TraceReader

    engine = StreamEngine()
    engine.register(StreamSummary())
    engine.register(StreamRuns())
    with TraceReader(path) as reader:
        return engine.run(reader)


def _materialize_pass(path: Path) -> int:
    """The batch shape: every record, then every op, held at once."""
    from repro.analysis.pairing import pair_all
    from repro.trace import read_trace

    records = read_trace(path)
    ops, _stats = pair_all(records)
    return len(ops)


def _traced_peak(fn) -> int:
    """Peak bytes allocated while running ``fn`` (tracemalloc)."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def run_bench() -> dict:
    from repro.analysis.parallel import parallel_pair
    from repro.trace import read_trace, write_trace
    from repro.workloads import CampusEmailWorkload, CampusParams, TracedSystem

    system = TracedSystem(seed=1001, quota_bytes=50 * 1024 * 1024)
    CampusEmailWorkload(CampusParams(users=8)).attach(system)
    started = time.perf_counter()
    system.run(2 * DAY)
    simulate_seconds = time.perf_counter() - started
    records = system.records()

    with tempfile.TemporaryDirectory() as tmp:
        text = Path(tmp) / "smoke.trace"
        binary = Path(tmp) / "smoke.rtb"
        started = time.perf_counter()
        write_trace(text, records)
        encode_text = time.perf_counter() - started
        started = time.perf_counter()
        write_trace(binary, records)
        encode_binary = time.perf_counter() - started

        started = time.perf_counter()
        n_text = len(read_trace(text))
        decode_text = time.perf_counter() - started
        started = time.perf_counter()
        n_binary = len(read_trace(binary))
        decode_binary = time.perf_counter() - started
        assert n_text == n_binary == len(records)

        started = time.perf_counter()
        sequential = parallel_pair(binary, jobs=1, chunk_records=16384)
        pair_seconds = time.perf_counter() - started
        fanned = parallel_pair(binary, jobs=2, chunk_records=16384)
        assert sequential == fanned, "jobs=2 diverged from jobs=1"

        text_bytes = text.stat().st_size
        binary_bytes = binary.stat().st_size

        started = time.perf_counter()
        _stream_pass(binary)
        stream_seconds = time.perf_counter() - started
        stream_peak = _traced_peak(lambda: _stream_pass(binary))
        materialize_peak = _traced_peak(lambda: _materialize_pass(binary))

    return {
        "bench": "smoke",
        "records": len(records),
        "ops": len(sequential[0]),
        "simulate_seconds": round(simulate_seconds, 3),
        "encode_text_seconds": round(encode_text, 3),
        "encode_binary_seconds": round(encode_binary, 3),
        "decode_text_seconds": round(decode_text, 3),
        "decode_binary_seconds": round(decode_binary, 3),
        "pair_seconds": round(pair_seconds, 3),
        "stream_seconds": round(stream_seconds, 3),
        "stream_records_per_second": round(len(records) / stream_seconds, 1),
        "stream_peak_bytes": stream_peak,
        "materialize_peak_bytes": materialize_peak,
        "sim_wall_ratio": round(2 * DAY / simulate_seconds, 1),
        "decode_ratio": round(decode_text / decode_binary, 2),
        "binary_size_ratio": round(text_bytes / binary_bytes, 2),
        "stream_mem_ratio": round(materialize_peak / stream_peak, 2),
    }


def run_stream_smoke() -> int:
    """Baseline-free gate: streaming must peak below materialization.

    The trace must be large enough that the record/op lists dominate
    the decoder's fixed ~1 MB chunk buffer, or both passes just measure
    reader overhead — hence full bench scale (8 users, 2 days).
    """
    from repro.trace import write_trace
    from repro.workloads import CampusEmailWorkload, CampusParams, TracedSystem

    system = TracedSystem(seed=1002, quota_bytes=50 * 1024 * 1024)
    CampusEmailWorkload(CampusParams(users=8)).attach(system)
    system.run(2 * DAY)
    records = system.records()

    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "stream-smoke.rtb.gz"
        write_trace(trace, records)
        del records
        stream_peak = _traced_peak(lambda: _stream_pass(trace))
        materialize_peak = _traced_peak(lambda: _materialize_pass(trace))

    ratio = materialize_peak / stream_peak
    print(
        f"stream-smoke: streaming peak {stream_peak:,} bytes, "
        f"materialized peak {materialize_peak:,} bytes "
        f"(ratio {ratio:.2f}x)"
    )
    if stream_peak >= materialize_peak:
        print("stream-smoke REGRESSION: streaming pass peaked at or above "
              "full materialization")
        return 1
    print("stream-smoke gate passed")
    return 0


def run_chaos_smoke() -> int:
    """Fast fault-injection gate for CI (budget: well under a minute).

    One faulted CAMPUS day, run twice: the runs must agree byte for
    byte, and the injector's ledger must predict the pairing stats
    exactly — the two headline guarantees of ``repro.faults``, checked
    end to end without the full chaos matrix.  The ledger check runs
    the serial loss estimator and ``parallel_pair`` over two pool
    workers, so chunk pairers in worker processes and the boundary
    merge see faulted data too.
    """
    from repro.analysis.loss import estimate_loss
    from repro.analysis.parallel import parallel_pair
    from repro.trace import write_trace
    from repro.trace.record import record_to_line
    from repro.workloads import CampusEmailWorkload, CampusParams, TracedSystem

    spec = ("drop(p=0.02);dup(p=0.01,kind=reply);"
            "reorder(p=0.05,ms=40);crash(at=46800,down=30)")

    started = time.perf_counter()

    def one_run():
        system = TracedSystem(seed=77, quota_bytes=50 * 1024 * 1024,
                              faults=spec)
        CampusEmailWorkload(CampusParams(users=4)).attach(system)
        system.run(DAY)
        records = system.records()
        text = "\n".join(record_to_line(r) for r in records)
        return records, text, system.fault_ledger.expected_stats(), \
            dict(system.faults.injected)

    records, text_a, expected, injected = one_run()
    _, text_b, _, _ = one_run()
    wall = time.perf_counter() - started

    stats = estimate_loss(records)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "chaos.rtb"
        write_trace(path, records)
        _ops, pooled = parallel_pair(path, jobs=2, chunk_records=4096)

    n_injected = sum(injected.values())
    print(f"chaos-smoke: {len(records):,} records, {n_injected} injected "
          f"events, wall {wall:.1f}s")
    if n_injected == 0:
        print("chaos-smoke REGRESSION: the schedule injected nothing")
        return 1
    if text_a != text_b:
        print("chaos-smoke REGRESSION: two identically seeded faulted runs "
              "diverged")
        return 1
    for label, got in (("pairing", stats), ("parallel_pair", pooled)):
        if got != expected:
            print(f"chaos-smoke REGRESSION: {label} stats != fault ledger")
            print(f"  {label}: {got}")
            print(f"  ledger:  {expected}")
            return 1
    if wall > 60.0:
        print(f"chaos-smoke REGRESSION: wall {wall:.1f}s exceeds the 60s "
              "budget")
        return 1
    print("chaos-smoke gate passed")
    return 0


def run_obs_smoke() -> int:
    """Observability gate for CI (budget: well under a minute).

    Three checks end to end:

    * span overhead — a hash-sampled (rate 0.1) faulted CAMPUS day
      must leave the trace byte-identical to the unsampled run and
      cost at most 50% extra wall time.  The budget sounds generous
      but is not: the simulator spends only ~20 us of Python per
      *whole* NFS operation, so the span layer's ~2 us of per-op
      sampling checks plus ~8 us per emitted span measure out around
      +40% here (and would be noise on any real workload); the gate
      catches order-of-magnitude regressions, not microseconds;
    * rotation — ``repro monitor`` with small segments must rotate
      trace/span segments on disk;
    * query round-trip — ``repro query --trace-id`` must reconstruct
      a sampled operation's full hop chain (client, link, server,
      capture, pairer) from the rotated segments.
    """
    import contextlib
    import io

    from repro.cli import main as repro_main
    from repro.obs.eventlog import EventLog
    from repro.obs.rotate import list_segments
    from repro.trace.record import record_to_line
    from repro.workloads import CampusEmailWorkload, CampusParams, TracedSystem

    spec = "drop(p=0.02);dup(p=0.01,kind=reply);reorder(p=0.05,ms=40)"
    started = time.perf_counter()

    def one_run(rate):
        sink = EventLog() if rate > 0 else None
        system = TracedSystem(seed=77, quota_bytes=50 * 1024 * 1024,
                              faults=spec, trace_sample=rate, span_sink=sink)
        CampusEmailWorkload(CampusParams(users=4)).attach(system)
        run_started = time.perf_counter()
        system.run(DAY)
        wall = time.perf_counter() - run_started
        text = "\n".join(record_to_line(r) for r in system.records())
        emitted = system.spans.close() if system.spans is not None else 0
        return text, wall, emitted

    # best-of-3 walls: min is the right noise estimator for a
    # deterministic CPU-bound run on a shared CI runner
    text_off, wall_off, _ = one_run(0.0)
    text_on, wall_on, emitted = one_run(0.1)
    for _ in range(2):
        _, wall, _ = one_run(0.0)
        wall_off = min(wall_off, wall)
        _, wall, _ = one_run(0.1)
        wall_on = min(wall_on, wall)
    overhead = wall_on / wall_off - 1.0
    print(f"obs-smoke: unsampled {wall_off:.2f}s, sampled(0.1) "
          f"{wall_on:.2f}s (+{overhead:.1%}), {emitted:,} spans")
    if text_on != text_off:
        print("obs-smoke REGRESSION: sampling changed the trace bytes")
        return 1
    if emitted == 0:
        print("obs-smoke REGRESSION: rate 0.1 exported no spans")
        return 1
    if overhead > 0.50:
        print(f"obs-smoke REGRESSION: span overhead {overhead:.1%} exceeds "
              "the 50% budget")
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = repro_main([
                "monitor", "--system", "campus", "--days", "0.25",
                "--users", "2", "--seed", "77", "--faults", spec,
                "--dir", tmp, "--segment-bytes", "16384",
                "--trace-sample", "1.0",
            ])
        if code != 0:
            print(f"obs-smoke REGRESSION: repro monitor exited {code}")
            print(out.getvalue())
            return 1
        span_segments = list_segments(tmp, "spans", ".jsonl")
        print(f"obs-smoke: monitor wrote {len(span_segments)} span segments, "
              f"{len(list_segments(tmp, 'trace'))} trace segments")
        if len(span_segments) < 2:
            print("obs-smoke REGRESSION: 16 KiB segments never rotated")
            return 1

        tid = None
        for path in span_segments:
            for line in path.read_text().splitlines():
                record = json.loads(line)
                if record.get("hop") == "pairer":
                    tid = record["trace"]
                    break
            if tid:
                break
        if tid is None:
            print("obs-smoke REGRESSION: no pairer spans in segments")
            return 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = repro_main(["query", "--dir", tmp, "--trace-id", tid,
                               "--json"])
        if code != 0:
            print(f"obs-smoke REGRESSION: repro query exited {code}")
            return 1
        hops = {span["hop"] for span in json.loads(out.getvalue())}
        missing = {"client", "link", "server", "capture", "pairer"} - hops
        if missing:
            print(f"obs-smoke REGRESSION: query round-trip lost hops "
                  f"{sorted(missing)}")
            return 1
        print(f"obs-smoke: query round-tripped trace {tid} "
              f"({len(hops)} hops)")

    wall = time.perf_counter() - started
    if wall > 60.0:
        print(f"obs-smoke REGRESSION: wall {wall:.1f}s exceeds the 60s "
              "budget")
        return 1
    print("obs-smoke gate passed")
    return 0


#: Encode-parity tolerance for the speedup gate.  ``*_encode_mb_s`` is
#: measured on *output* bytes, and the binary container is ~2.4x
#: smaller than text — at equal wall time binary would score ~0.4x the
#: text MB/s.  Requiring binary >= (1 - tolerance) x text MB/s *and*
#: strictly less encode wall time therefore demands that binary encode
#: the same records roughly 2x faster, while the tolerance absorbs the
#: +-10% per-metric jitter shared CI runners show.
ENCODE_MBS_TOLERANCE = 0.15

#: ``speedup_N`` floor when the runner has >= N cores.
SPEEDUP_FLOOR = 1.0

#: Relaxed floor when the runner has fewer than N cores: ``jobs=N`` is
#: then oversubscribed and cannot beat sequential, so the gate only
#: bounds the fan-out's overhead (IPC, pool dispatch, segment
#: encode/decode, merge) to ~40% — measured ~32% on a 1-core runner.
OVERSUBSCRIBED_FLOOR = 0.60


def run_speedup_gate(out_path: str | None = None) -> int:
    """CI gate: parallel pairing must pay, binary encode must beat text.

    Fails when any ``speedup_N`` (N in {2, 4}) lands below its floor —
    :data:`SPEEDUP_FLOOR` on runners with >= N cores,
    :data:`OVERSUBSCRIBED_FLOOR` otherwise — or when the binary
    encoder is not faster than text (wall time strictly, MB/s within
    :data:`ENCODE_MBS_TOLERANCE`; see its docstring for why MB/s alone
    would be the wrong gate).  Each timing is the best of three runs:
    for a deterministic CPU-bound workload, min is the noise-resistant
    estimator on a shared runner.
    """
    import os

    from repro.analysis.parallel import parallel_pair
    from repro.trace import write_trace
    from repro.workloads import CampusEmailWorkload, CampusParams, TracedSystem

    cores = os.cpu_count() or 1
    system = TracedSystem(seed=1001, quota_bytes=50 * 1024 * 1024)
    CampusEmailWorkload(CampusParams(users=8)).attach(system)
    system.run(2 * DAY)
    records = system.records()

    def best_of(fn, repeats=3):
        best = None
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            wall = time.perf_counter() - started
            best = wall if best is None else min(best, wall)
        return best

    with tempfile.TemporaryDirectory() as tmp:
        text = Path(tmp) / "gate.trace"
        binary = Path(tmp) / "gate.rtb"
        encode_text = best_of(lambda: write_trace(text, records))
        encode_binary = best_of(lambda: write_trace(binary, records))
        text_mb_s = text.stat().st_size / 1e6 / encode_text
        binary_mb_s = binary.stat().st_size / 1e6 / encode_binary

        walls: dict[int, float] = {}
        results: dict[int, tuple] = {}
        for jobs in (1, 2, 4):
            # first call per pool size forks and warms the worker pool;
            # best-of-3 then times the steady reused-pool state CI cares
            # about (the cold call is one of the three, so a pool that
            # only wins warm still has to win twice)
            walls[jobs] = best_of(
                lambda j=jobs: results.__setitem__(
                    j, parallel_pair(binary, jobs=j)
                )
            )

        result = {
            "bench": "speedup-gate",
            "cores": cores,
            "records": len(records),
            "ops": len(results[1][0]),
            "text_encode_mb_s": round(text_mb_s, 2),
            "binary_encode_mb_s": round(binary_mb_s, 2),
            "encode_text_seconds": round(encode_text, 3),
            "encode_binary_seconds": round(encode_binary, 3),
            "jobs_1_seconds": round(walls[1], 3),
        }
        for jobs in (2, 4):
            result[f"jobs_{jobs}_seconds"] = round(walls[jobs], 3)
            result[f"speedup_{jobs}"] = round(walls[1] / walls[jobs], 3)

    failures = []
    if results[2] != results[1] or results[4] != results[1]:
        failures.append("parallel_pair results diverged across jobs")
    for jobs in (2, 4):
        floor = SPEEDUP_FLOOR if cores >= jobs else OVERSUBSCRIBED_FLOOR
        speedup = result[f"speedup_{jobs}"]
        verdict = "ok" if speedup >= floor else "REGRESSION"
        print(f"speedup_{jobs}: {speedup} (floor {floor}, {cores} cores) "
              f"{verdict}")
        if speedup < floor:
            failures.append(f"speedup_{jobs} {speedup} < {floor}")
    mbs_floor = text_mb_s * (1.0 - ENCODE_MBS_TOLERANCE)
    verdict = "ok" if binary_mb_s >= mbs_floor else "REGRESSION"
    print(f"binary_encode_mb_s: {result['binary_encode_mb_s']} "
          f"(text {result['text_encode_mb_s']}, floor {mbs_floor:.2f}) "
          f"{verdict}")
    if binary_mb_s < mbs_floor:
        failures.append(
            f"binary_encode_mb_s {binary_mb_s:.2f} < {mbs_floor:.2f}"
        )
    verdict = "ok" if encode_binary < encode_text else "REGRESSION"
    print(f"encode wall: binary {result['encode_binary_seconds']}s vs text "
          f"{result['encode_text_seconds']}s {verdict}")
    if encode_binary >= encode_text:
        failures.append("binary encode wall not faster than text")

    if out_path:
        Path(out_path).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {out_path}")
    if failures:
        print("speedup gate failed: " + "; ".join(failures))
        return 1
    print("speedup gate passed")
    return 0


def check(result: dict, baseline_path: Path) -> int:
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping the gate")
        return 0
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for metric in GATED:
        base = baseline.get(metric)
        current = result.get(metric)
        if base is None or current is None:
            continue
        floor = base * (1.0 - TOLERANCE)
        verdict = "ok" if current >= floor else "REGRESSION"
        print(f"{metric}: {current} (baseline {base}, floor {floor:.2f}) {verdict}")
        if current < floor:
            failures.append(metric)
    if failures:
        print(f"bench-smoke regression gate failed: {', '.join(failures)}")
        return 1
    print("bench-smoke gate passed")
    return 0


def run_scenario_smoke() -> int:
    """Scenario-library gate for CI (budget: well under a minute).

    Every library scenario must validate (round-trip contract
    included), simulate deterministically (two identically seeded
    short runs, byte for byte), and actually generate traffic; the
    ``campus``/``eecs`` entries must additionally stay byte-identical
    to the legacy hand-coded generators — the DSL compatibility
    contract (see docs/SCENARIOS.md).
    """
    from repro.scenarios import (
        ScenarioSpec,
        compile_workload,
        get_scenario,
        scenario_names,
    )
    from repro.trace.record import record_to_line
    from repro.workloads import (
        CampusEmailWorkload,
        CampusParams,
        EecsParams,
        EecsResearchWorkload,
        TracedSystem,
    )

    started = time.perf_counter()
    users = {"campus": 3, "eecs": 2}
    seconds = 0.2 * DAY

    def one_run(name):
        compiled = compile_workload(name, users=users.get(name, 4))
        system = TracedSystem(seed=404, quota_bytes=compiled.quota_bytes)
        compiled.workload.attach(system)
        system.run(seconds)
        return "\n".join(record_to_line(r) for r in system.records())

    failures = []
    for name in scenario_names():
        spec = get_scenario(name)
        if ScenarioSpec.parse(spec.spec()) != spec:
            failures.append(f"{name}: round-trip contract broken")
            continue
        text = one_run(name)
        records = text.count("\n") + 1 if text else 0
        if text != one_run(name):
            failures.append(f"{name}: two identically seeded runs diverged")
        elif not text:
            failures.append(f"{name}: generated no traffic")
        else:
            print(f"scenario-smoke: {name}: ok ({records:,} records, "
                  f"deterministic)")

    def legacy_run(name):
        if name == "campus":
            system = TracedSystem(seed=404, quota_bytes=50 * 1024 * 1024)
            CampusEmailWorkload(CampusParams(users=users[name])).attach(system)
        else:
            system = TracedSystem(seed=404)
            EecsResearchWorkload(EecsParams(users=users[name])).attach(system)
        system.run(seconds)
        return "\n".join(record_to_line(r) for r in system.records())

    for name in ("campus", "eecs"):
        if one_run(name) != legacy_run(name):
            failures.append(
                f"{name}: DSL trace diverged from the legacy generator"
            )
        else:
            print(f"scenario-smoke: {name}: byte-identical to legacy")

    wall = time.perf_counter() - started
    print(f"scenario-smoke: wall {wall:.1f}s")
    if wall > 60.0:
        failures.append(f"wall {wall:.1f}s exceeds the 60s budget")
    if failures:
        print("scenario-smoke REGRESSION: " + "; ".join(failures))
        return 1
    print("scenario-smoke gate passed")
    return 0


def run_shard_smoke(out_path: str | None = None) -> int:
    """CI gate: the sharded simulator must be exact *and* must pay.

    Exactness: the ``.rtb.gz`` file the merged trace is written to,
    the aggregated fault-ledger prediction, and the span stream must
    be byte-identical for ``--shards`` in {1, 2, 4} (see
    docs/PERFORMANCE.md for why the client-group scheme guarantees
    this).  Performance:
    ``shard_speedup_2`` (1-shard wall over 2-shard wall, best of
    three, warm pool) must clear :data:`SPEEDUP_FLOOR` on runners with
    >= 2 cores and :data:`OVERSUBSCRIBED_FLOOR` otherwise.
    """
    import os

    from repro.obs.eventlog import EventLog
    from repro.trace import TraceWriter
    from repro.workloads import run_sharded

    cores = os.cpu_count() or 1
    days = 0.6
    users = 8

    def simulate(shards):
        return run_sharded(
            "campus", users=users, days=days, seed=1001, shards=shards,
            mirror_bandwidth=2e6, faults="drop(p=0.01)", trace_sample=0.25,
        )

    def trace_bytes(run, path):
        # the file a user gets: `simulate --shards N` writes the merged
        # stream through TraceWriter into the gzip container
        with TraceWriter(path) as writer:
            for record in run.merged():
                writer.write(record)
        return path.read_bytes()

    def span_count(run):
        log = EventLog()
        return run.replay_spans(log)

    runs = {}
    walls: dict[int, float] = {}
    for shards in (1, 2, 4):
        # first call per pool size forks and warms the worker pool;
        # best-of-3 then times the steady reused-pool state
        best = None
        for _ in range(3):
            started = time.perf_counter()
            runs[shards] = simulate(shards)
            wall = time.perf_counter() - started
            best = wall if best is None else min(best, wall)
        walls[shards] = best

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        files = {
            shards: trace_bytes(run, Path(tmp) / f"shards-{shards}.rtb.gz")
            for shards, run in runs.items()
        }
    for shards in (2, 4):
        if files[shards] != files[1]:
            failures.append(f"trace bytes diverged at shards={shards}")
        if runs[shards].fault_stats != runs[1].fault_stats:
            failures.append(f"fault stats diverged at shards={shards}")
        if runs[shards].span_events() != runs[1].span_events():
            failures.append(f"span stream diverged at shards={shards}")
    identical = not failures
    print(f"byte-identity across shards 1/2/4: "
          f"{'ok' if identical else 'DIVERGED'} "
          f"({runs[1].record_count} records, {span_count(runs[1])} spans)")

    result = {
        "bench": "shard-smoke",
        "cores": cores,
        "users": users,
        "days": days,
        "groups": runs[1].groups,
        "records": runs[1].record_count,
        "byte_identical": identical,
        "shards_1_seconds": round(walls[1], 3),
    }
    for shards in (2, 4):
        result[f"shards_{shards}_seconds"] = round(walls[shards], 3)
        result[f"shard_speedup_{shards}"] = round(walls[1] / walls[shards], 3)

    floor = SPEEDUP_FLOOR if cores >= 2 else OVERSUBSCRIBED_FLOOR
    speedup = result["shard_speedup_2"]
    verdict = "ok" if speedup >= floor else "REGRESSION"
    print(f"shard_speedup_2: {speedup} (floor {floor}, {cores} cores) "
          f"{verdict}")
    if speedup < floor:
        failures.append(f"shard_speedup_2 {speedup} < {floor}")

    if out_path:
        Path(out_path).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {out_path}")
    if failures:
        print("shard smoke failed: " + "; ".join(failures))
        return 1
    print("shard smoke passed")
    return 0


def run_ingest_smoke(out_path: str | None = None) -> int:
    """CI gate for the foreign-trace ingest pipeline.

    Every golden fixture in ``tests/fixtures/ingest/`` (discovered
    from the adapter registry, not a hand-kept list) must: ingest
    twice to byte-identical ``.rtb.gz`` (determinism gate), pair and
    summarize cleanly, and characterize into a scenario spec that
    validates (round-trips) and re-simulates.  Whole gate under 60 s;
    per-adapter ingest MB/s lands in ``BENCH_ingest.json``.
    """
    import tempfile

    from repro.analysis.pairing import pair_all
    from repro.analysis.summary import summarize_trace
    from repro.ingest import REGISTRY, ingest
    from repro.scenarios import ScenarioSpec, compile_workload, fit_scenario
    from repro.trace.reader import read_trace
    from repro.workloads import TracedSystem

    fixtures_dir = (
        Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "ingest"
    )
    started = time.perf_counter()
    failures = []
    rates = {}
    for name in REGISTRY.names():
        matches = [
            p for p in fixtures_dir.glob(f"{name}.*") if p.suffix != ".json"
        ]
        if len(matches) != 1:
            failures.append(f"{name}: expected one golden fixture, "
                            f"found {len(matches)}")
            continue
        fixture = matches[0]
        source_mb = fixture.stat().st_size / 1e6
        with tempfile.TemporaryDirectory() as tmp:
            outs = []
            ingest_wall = None
            for run in ("a", "b"):
                out = Path(tmp) / f"{run}.rtb.gz"
                t0 = time.perf_counter()
                stats = ingest(str(fixture), str(out), fmt=name)
                wall = time.perf_counter() - t0
                ingest_wall = wall if ingest_wall is None else min(
                    ingest_wall, wall)
                outs.append(out.read_bytes())
            if outs[0] != outs[1]:
                failures.append(f"{name}: two ingest runs diverged")
                continue
            rates[name] = round(source_mb / ingest_wall, 2)
            records = read_trace(Path(tmp) / "a.rtb.gz")
            ops, _ = pair_all(records)
            summary = summarize_trace(
                ops, records[0].time, records[-1].time + 1.0)
            if summary.total_ops == 0:
                failures.append(f"{name}: summary saw zero ops")
                continue
            spec = fit_scenario(ops, name=f"twin-{name}")
            if ScenarioSpec.parse(spec.spec()) != spec:
                failures.append(f"{name}: twin spec failed validation "
                                "round-trip")
                continue
            # the fixtures are sparse (tens of ops over hours), so the
            # twin needs a few simulated hours to show traffic
            compiled = compile_workload(spec.spec(), users=4)
            system = TracedSystem(seed=7, quota_bytes=compiled.quota_bytes)
            compiled.workload.attach(system)
            system.run(6 * 3600.0)
            if not system.records():
                failures.append(f"{name}: twin simulated no traffic")
                continue
            print(f"ingest-smoke: {name}: {stats.records} records "
                  f"({stats.skipped} skipped), {summary.total_ops} ops, "
                  f"twin re-simulates ({len(system.records())} records), "
                  f"{rates[name]} MB/s")

    wall = time.perf_counter() - started
    print(f"ingest-smoke: wall {wall:.1f}s")
    if wall > 60.0:
        failures.append(f"wall {wall:.1f}s exceeds the 60s budget")
    if out_path:
        result = {
            "bench": "ingest-smoke",
            "adapters": sorted(rates),
            "ingest_mb_per_s": rates,
            "wall_seconds": round(wall, 3),
        }
        Path(out_path).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {out_path}")
    if failures:
        print("ingest-smoke REGRESSION: " + "; ".join(failures))
        return 1
    print("ingest-smoke gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(BENCH_DIR / "BENCH_smoke.json"))
    parser.add_argument("--baseline", default=str(BASELINE))
    parser.add_argument("--write-baseline", action="store_true",
                        help="store this run as the committed baseline")
    parser.add_argument("--stream-smoke", action="store_true",
                        help="run only the streaming-memory gate")
    parser.add_argument("--chaos-smoke", action="store_true",
                        help="run only the fault-injection gate")
    parser.add_argument("--obs-smoke", action="store_true",
                        help="run only the span-tracing/monitor gate")
    parser.add_argument("--speedup-gate", action="store_true",
                        help="run only the parallel-speedup/encode gate")
    parser.add_argument("--shard-smoke", action="store_true",
                        help="run only the sharded-simulator gate "
                             "(byte-identity + speedup)")
    parser.add_argument("--scenario-smoke", action="store_true",
                        help="run only the scenario-library gate "
                             "(validation, determinism, legacy parity)")
    parser.add_argument("--ingest-smoke", action="store_true",
                        help="run only the foreign-trace ingest gate "
                             "(determinism, characterize loop, MB/s)")
    args = parser.parse_args(argv)
    if args.ingest_smoke:
        return run_ingest_smoke(str(BENCH_DIR / "BENCH_ingest.json"))
    if args.scenario_smoke:
        return run_scenario_smoke()
    if args.stream_smoke:
        return run_stream_smoke()
    if args.speedup_gate:
        return run_speedup_gate(
            args.out if args.out != str(BENCH_DIR / "BENCH_smoke.json")
            else None
        )
    if args.shard_smoke:
        return run_shard_smoke(
            args.out if args.out != str(BENCH_DIR / "BENCH_smoke.json")
            else None
        )
    if args.chaos_smoke:
        return run_chaos_smoke()
    if args.obs_smoke:
        return run_obs_smoke()
    result = run_bench()
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.write_baseline:
        Path(args.baseline).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote baseline {args.baseline}")
        return 0
    return check(result, Path(args.baseline))


if __name__ == "__main__":
    sys.exit(main())
