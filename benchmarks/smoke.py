"""The CI gate harness: named gates over fixed simulated traces.

Usage::

    python benchmarks/smoke.py [GATE ...] [--out DIR] [--write-baseline]

The named gates (with no GATE, every gate in :data:`GATES`) run in
table order, in one process.  A gate is a function that builds its
world, measures it and returns ``(numbers, failures)``; the runner
prints every verdict and exits 1 if any gate failed.  ``--out DIR``
also writes ``DIR/<gate>.json``; without it the harness writes no
file.  CI runs each gate in a leg of its own ``gates`` matrix job.

``--write-baseline`` stores the ``bench`` gate's numbers in the
committed ``BENCH_smoke_baseline.json`` instead of gating them against
it: do that only after an intentional performance change.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BASELINE = BENCH_DIR / "BENCH_smoke_baseline.json"

#: The ``bench`` gate's metrics held against the baseline; higher is
#: better for each.  ``binary_size_ratio`` and ``stream_mem_ratio`` are
#: byte ratios and ``decode_ratio`` is a ratio of two walls of one run,
#: so all three carry across machines.  ``sim_wall_ratio`` does not: it
#: is simulated seconds per wall second, a speed, held against a
#: baseline recorded on another machine.  On a shared 2-core VM it read
#: 120k-158k for unchanged code against its 131,866 floor, so there its
#: verdict follows the machine's load as much as the code.
GATED = ("sim_wall_ratio", "decode_ratio", "binary_size_ratio",
         "stream_mem_ratio")

#: Fail when a gated metric drops more than this far below baseline.
TOLERANCE = 0.30

#: Wall-time budget of the chaos, obs, scenario and ingest gates.
BUDGET = 60.0

DAY = 86400.0
CAMPUS_QUOTA = 50 * 1024 * 1024

OBS_FAULTS = "drop(p=0.02);dup(p=0.01,kind=reply);reorder(p=0.05,ms=40)"
CHAOS_FAULTS = OBS_FAULTS + ";crash(at=46800,down=30)"

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

def timed(fn, *args, **kwargs):
    """``(wall seconds, result)`` of one call."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - started, result


def best_of(*runs, repeats=3):
    """Call each of ``runs`` ``repeats`` times, round robin.

    Each run returns ``(wall, result)``; the answer is one ``(best
    wall, last result)`` pair per run.  The minimum is the
    noise-resistant estimator for a deterministic CPU-bound run on a
    shared runner.  A pool-backed run's first call forks and warms its
    pool, and best of three then times the warm pool: the cold call is
    one of the three, so a pool that only wins warm still has to win
    twice.
    """
    best = [(math.inf, None)] * len(runs)
    for _ in range(repeats):
        for index, run in enumerate(runs):
            wall, result = run()
            best[index] = (min(wall, best[index][0]), result)
    return best


def run_world(workload, seconds, **system_kw):
    """``workload`` attached to a fresh ``TracedSystem`` and run for
    ``seconds``; returns ``(wall seconds of the run alone, system)``."""
    from repro.workloads import TracedSystem

    system = TracedSystem(**system_kw)
    workload.attach(system)
    wall, _ = timed(system.run, seconds)
    return wall, system


def campus(seed, users, days, **system_kw):
    """A CAMPUS email world of ``users`` users run for ``days`` days."""
    from repro.workloads import CampusEmailWorkload, CampusParams

    return run_world(CampusEmailWorkload(CampusParams(users=users)),
                     days * DAY, seed=seed, quota_bytes=CAMPUS_QUOTA,
                     **system_kw)


def trace_text(system) -> str:
    """A world's records as one text trace, for byte comparisons."""
    from repro.trace.record import record_to_line

    return "\n".join(record_to_line(r) for r in system.records())


def over_budget(wall) -> list[str]:
    """The failure of a gate whose wall exceeded :data:`BUDGET`."""
    return [f"wall {wall:.1f}s exceeds the {BUDGET:.0f}s budget"] \
        if wall > BUDGET else []


class Shared:
    """What the gates of one run share.

    The ``bench`` and ``speedup`` gates read the same world, so a run
    that has both simulates it once.  Each keeps the whole world alive
    while it measures, as a gate in a process of its own always has;
    the last of them to run drops it, so no later gate runs beside it.
    """

    def __init__(self, names, write_baseline=False):
        self.write_baseline = write_baseline
        self._readers = sum(name in ("bench", "speedup") for name in names)
        self._world = None

    def bench_world(self):
        """``(simulate wall seconds, system)``: CAMPUS, seed 1001,
        8 users, 2 days."""
        world = self._world or campus(seed=1001, users=8, days=2)
        self._readers -= 1
        self._world = world if self._readers > 0 else None
        return world


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


def baseline_failures(numbers: dict, path: Path) -> list[str]:
    """Each :data:`GATED` metric more than :data:`TOLERANCE` below the
    baseline at ``path``; a missing baseline is a failure."""
    if not path.exists():
        return [f"no baseline at {path}; record one with --write-baseline"]
    baseline = json.loads(path.read_text())
    failures = []
    for metric in GATED:
        base = baseline.get(metric)
        current = numbers.get(metric)
        if base is None or current is None:
            continue
        floor = base * (1.0 - TOLERANCE)
        if current < floor:
            failures.append(f"{metric} {current} < floor {floor:.2f} "
                            f"(baseline {base})")
    return failures


def gate_bench(shared: Shared):
    """The scaled-down campus bench, held against the committed baseline.

    On the shared bench trace: text and binary encode and decode,
    ``parallel_pair`` at ``jobs`` 1 (the serial pass) and 2, and one
    streaming pass, whose ``tracemalloc`` peak against the
    materialize-everything pipeline's gives ``stream_mem_ratio``.  Each :data:`GATED` metric must stay
    within :data:`TOLERANCE` of ``BENCH_smoke_baseline.json``; the wide
    margin absorbs runner noise.  Absolute seconds are recorded for
    humans but never gated.
    """
    from repro.analysis.parallel import parallel_pair
    from repro.trace import read_trace, write_trace

    simulate_seconds, system = shared.bench_world()
    records = system.records()
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        text = Path(tmp) / "smoke.trace"
        binary = Path(tmp) / "smoke.rtb"
        encode_text, _ = timed(write_trace, text, records)
        encode_binary, _ = timed(write_trace, binary, records)
        decode_text, n_text = timed(lambda: len(read_trace(text)))
        decode_binary, n_binary = timed(lambda: len(read_trace(binary)))
        if not n_text == n_binary == len(records):
            failures.append(f"decoded {n_text} text and {n_binary} binary "
                            f"records of {len(records)}")

        pair_seconds, sequential = timed(
            parallel_pair, binary, jobs=1, chunk_records=16384)
        fanned = parallel_pair(binary, jobs=2, chunk_records=16384)
        if fanned != sequential:
            failures.append("parallel_pair jobs=2 diverged from jobs=1")

        text_bytes = text.stat().st_size
        binary_bytes = binary.stat().st_size

        stream_seconds, _ = timed(_stream_pass, binary)
        stream_peak = _traced_peak(lambda: _stream_pass(binary))
        materialize_peak = _traced_peak(lambda: _materialize_pass(binary))

    numbers = {
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
    if not shared.write_baseline:
        return numbers, failures + baseline_failures(numbers, BASELINE)
    if not failures:
        BASELINE.write_text(
            json.dumps({"bench": "smoke", **numbers}, indent=2) + "\n")
        print(f"wrote baseline {BASELINE}")
    return numbers, failures


def gate_stream(shared: Shared):
    """Streaming must peak below materialization.

    The bounded-memory contract of ``repro analyze --stream``, with no
    baseline.  The trace must be large enough that the record and op
    lists dominate the decoder's fixed ~1 MB chunk buffer, or both
    passes just measure reader overhead — hence full bench scale
    (8 users, 2 days), on a seed of its own, written as ``.rtb.gz``.
    """
    from repro.trace import write_trace

    _, system = campus(seed=1002, users=8, days=2)
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "stream-smoke.rtb.gz"
        write_trace(trace, system.records())
        stream_peak = _traced_peak(lambda: _stream_pass(trace))
        materialize_peak = _traced_peak(lambda: _materialize_pass(trace))
    numbers = {
        "stream_peak_bytes": stream_peak,
        "materialize_peak_bytes": materialize_peak,
        "ratio": round(materialize_peak / stream_peak, 2),
    }
    if stream_peak >= materialize_peak:
        return numbers, ["streaming pass peaked at or above full "
                         "materialization"]
    return numbers, []


def gate_chaos(shared: Shared):
    """Fault injection: reruns agree, and the ledger predicts the loss.

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

    def faulted_day():
        _, system = campus(seed=77, users=4, days=1, faults=CHAOS_FAULTS)
        return (system.records(), trace_text(system),
                system.fault_ledger.expected_stats(),
                sum(system.faults.injected.values()))

    started = time.perf_counter()
    records, text, expected, injected = faulted_day()
    identical = text == faulted_day()[1]
    wall = time.perf_counter() - started

    stats = estimate_loss(records)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "chaos.rtb"
        write_trace(path, records)
        _ops, pooled = parallel_pair(path, jobs=2, chunk_records=4096)

    numbers = {"records": len(records), "injected": injected,
               "wall_seconds": round(wall, 3)}
    failures = []
    if injected == 0:
        failures.append("the schedule injected nothing")
    if not identical:
        failures.append("two identically seeded faulted runs diverged")
    for label, got in (("estimate_loss", stats), ("parallel_pair", pooled)):
        if got != expected:
            failures.append(f"{label} stats {got} != fault ledger {expected}")
    return numbers, failures + over_budget(wall)


def _cli(argv):
    """``repro`` run in-process: ``(exit code, stdout, stderr)``."""
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def gate_obs(shared: Shared):
    """Spans: overhead, segment rotation and the query round trip.

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
    # loaded first, as the gate always has: the analysis stack the CLI
    # imports at start-up is part of the long-lived heap, whose size
    # sets how often the collector runs full passes during the timed
    # days (the simulator's modules load with the first world, before
    # its clock starts)
    import repro.cli.main  # noqa: F401
    from repro.obs.eventlog import EventLog
    from repro.obs.rotate import list_segments

    started = time.perf_counter()

    def sampled_day(rate):
        wall, system = campus(
            seed=77, users=4, days=1, faults=OBS_FAULTS, trace_sample=rate,
            span_sink=EventLog() if rate > 0 else None)
        text = trace_text(system)
        emitted = system.spans.close() if system.spans is not None else 0
        return wall, (text, emitted)

    (wall_off, (text_off, _)), (wall_on, (text_on, emitted)) = best_of(
        lambda: sampled_day(0.0), lambda: sampled_day(0.1))
    overhead = wall_on / wall_off - 1.0
    numbers = {"unsampled_seconds": round(wall_off, 3),
               "sampled_seconds": round(wall_on, 3),
               "overhead": round(overhead, 3), "spans": emitted}
    failures = []
    if text_on != text_off:
        failures.append("sampling changed the trace bytes")
    if emitted == 0:
        failures.append("rate 0.1 exported no spans")
    if overhead > 0.50:
        failures.append(f"span overhead {overhead:.1%} exceeds the 50% "
                        "budget")
    if failures:
        return numbers, failures

    with tempfile.TemporaryDirectory() as tmp:
        code, _out, err = _cli([
            "monitor", "--system", "campus", "--days", "0.25",
            "--users", "2", "--seed", "77", "--faults", OBS_FAULTS,
            "--dir", tmp, "--segment-bytes", "16384",
            "--trace-sample", "1.0",
        ])
        if code != 0:
            last = err.strip().rpartition("\n")[2]
            return numbers, [f"repro monitor exited {code}: {last}"]
        span_segments = list_segments(tmp, "spans", ".jsonl")
        numbers["span_segments"] = len(span_segments)
        numbers["trace_segments"] = len(list_segments(tmp, "trace"))
        if len(span_segments) < 2:
            return numbers, ["16 KiB segments never rotated"]

        spans = (json.loads(line) for path in span_segments
                 for line in path.read_text().splitlines())
        tid = next((span["trace"] for span in spans
                    if span.get("hop") == "pairer"), None)
        if tid is None:
            return numbers, ["no pairer spans in segments"]
        code, out, _err = _cli(["query", "--dir", tmp, "--trace-id", tid,
                                "--json"])
        if code != 0:
            return numbers, [f"repro query exited {code}"]
        hops = {span["hop"] for span in json.loads(out)}
        numbers["query_hops"] = len(hops)
        missing = {"client", "link", "server", "capture", "pairer"} - hops
        if missing:
            return numbers, [f"query round-trip lost hops {sorted(missing)}"]

    wall = time.perf_counter() - started
    numbers["wall_seconds"] = round(wall, 3)
    return numbers, over_budget(wall)


def gate_speedup(shared: Shared):
    """Parallel pairing must pay, and binary encode must beat text.

    On the shared bench trace, fails when any ``speedup_N`` (N in
    {2, 4}: best-of-3 ``parallel_pair`` walls, the fan-out over N jobs
    against the serial pass that jobs 1 runs, identical results
    required) lands below its floor —
    :data:`SPEEDUP_FLOOR` on runners with >= N cores (GitHub's hosted
    ``ubuntu-latest`` runners have 4 vCPUs, so both floors are 1.0
    there), :data:`OVERSUBSCRIBED_FLOOR` otherwise — or when the binary
    encoder is not faster than text: in wall time strictly, and in
    MB/s within :data:`ENCODE_MBS_TOLERANCE` (see there for why MB/s
    alone would be the wrong gate).  Each timing is the best of three
    (:func:`best_of`).  On a shared 2-core VM ``speedup_2`` read
    0.74-1.44 for unchanged code, so there one verdict says little.
    """
    import os

    from repro.analysis.parallel import parallel_pair
    from repro.trace import write_trace

    cores = os.cpu_count() or 1
    _, system = shared.bench_world()
    records = system.records()
    with tempfile.TemporaryDirectory() as tmp:
        text = Path(tmp) / "gate.trace"
        binary = Path(tmp) / "gate.rtb"
        [(encode_text, _)] = best_of(lambda: timed(write_trace, text, records))
        [(encode_binary, _)] = best_of(
            lambda: timed(write_trace, binary, records))
        text_mb_s = text.stat().st_size / 1e6 / encode_text
        binary_mb_s = binary.stat().st_size / 1e6 / encode_binary
        walls, results = {}, {}
        for jobs in (1, 2, 4):
            [(walls[jobs], results[jobs])] = best_of(
                lambda j=jobs: timed(parallel_pair, binary, jobs=j))

    numbers = {
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
        numbers[f"jobs_{jobs}_seconds"] = round(walls[jobs], 3)
        numbers[f"speedup_{jobs}"] = round(walls[1] / walls[jobs], 3)

    failures = []
    if results[2] != results[1] or results[4] != results[1]:
        failures.append("parallel_pair results diverged across jobs")
    for jobs in (2, 4):
        floor = SPEEDUP_FLOOR if cores >= jobs else OVERSUBSCRIBED_FLOOR
        if numbers[f"speedup_{jobs}"] < floor:
            failures.append(f"speedup_{jobs} {numbers[f'speedup_{jobs}']} "
                            f"< {floor} ({cores} cores)")
    mbs_floor = text_mb_s * (1.0 - ENCODE_MBS_TOLERANCE)
    if binary_mb_s < mbs_floor:
        failures.append(
            f"binary_encode_mb_s {binary_mb_s:.2f} < {mbs_floor:.2f}")
    if encode_binary >= encode_text:
        failures.append("binary encode wall not faster than text")
    return numbers, failures


def gate_shard(shared: Shared):
    """The sharded simulator must be exact *and* must pay.

    Exactness: the ``.rtb.gz`` file the merged trace is written to
    (by :meth:`ShardRun.write`, as ``simulate --shards`` writes it),
    the aggregated fault-ledger prediction, and the span stream must
    be byte-identical for ``--shards`` in {1, 2, 4} (see
    docs/PERFORMANCE.md for why the client-group scheme guarantees
    this), and ``TraceWriter`` over the decoded ``merged()`` stream
    must write that file byte for byte.  Performance:
    ``shard_speedup_2`` (1-shard wall over 2-shard wall, best of
    three, warm pool) must clear :data:`SPEEDUP_FLOOR` on runners with
    >= 2 cores — hosted runners have 4 vCPUs, so the full floor
    applies there — and :data:`OVERSUBSCRIBED_FLOOR` otherwise.
    """
    import os

    from repro.obs.eventlog import EventLog
    from repro.trace import TraceWriter
    from repro.workloads import run_sharded

    cores = os.cpu_count() or 1
    days = 0.6
    users = 8

    opened = []

    def simulate(shards):
        wall, run = timed(
            run_sharded, "campus", users=users, days=days, seed=1001,
            shards=shards, mirror_bandwidth=2e6, faults="drop(p=0.01)",
            trace_sample=0.25,
        )
        opened.append(run)
        return wall, run

    walls, runs = {}, {}
    for shards in (1, 2, 4):
        [(walls[shards], runs[shards])] = best_of(lambda s=shards: simulate(s))

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for shards, run in runs.items():
            # the file a user gets: `simulate --shards N` writes it with
            # ShardRun.write, which frame-merges the group payloads into
            # the gzip container without decoding a record
            path = Path(tmp) / f"shards-{shards}.rtb.gz"
            run.write(path)
            files[shards] = path.read_bytes()
        # merged() re-encoded record by record: the stream monitor
        # --shards and text output read must be the file's
        path = Path(tmp) / "records.rtb.gz"
        with TraceWriter(path) as writer:
            for record in runs[1].merged():
                writer.write(record)
        if path.read_bytes() != files[1]:
            failures.append("TraceWriter over merged() diverged from the "
                            "written trace")
    for run in opened:  # each holds its group streams as open files
        run.close()
    for shards in (2, 4):
        if files[shards] != files[1]:
            failures.append(f"trace bytes diverged at shards={shards}")
        if runs[shards].fault_stats != runs[1].fault_stats:
            failures.append(f"fault stats diverged at shards={shards}")
        if runs[shards].span_events() != runs[1].span_events():
            failures.append(f"span stream diverged at shards={shards}")

    numbers = {
        "cores": cores,
        "users": users,
        "days": days,
        "groups": runs[1].groups,
        "records": runs[1].record_count,
        "spans": runs[1].replay_spans(EventLog()),
        "byte_identical": not failures,
        "shards_1_seconds": round(walls[1], 3),
    }
    for shards in (2, 4):
        numbers[f"shards_{shards}_seconds"] = round(walls[shards], 3)
        numbers[f"shard_speedup_{shards}"] = round(walls[1] / walls[shards], 3)
    floor = SPEEDUP_FLOOR if cores >= 2 else OVERSUBSCRIBED_FLOOR
    if numbers["shard_speedup_2"] < floor:
        failures.append(f"shard_speedup_2 {numbers['shard_speedup_2']} "
                        f"< {floor} ({cores} cores)")
    return numbers, failures


def gate_scenario(shared: Shared):
    """The scenario library: valid, deterministic, legacy-compatible.

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
    from repro.workloads import EecsParams, EecsResearchWorkload

    started = time.perf_counter()
    users = {"campus": 3, "eecs": 2}
    days = 0.2

    def library_run(name):
        compiled = compile_workload(name, users=users.get(name, 4))
        return trace_text(run_world(
            compiled.workload, days * DAY, seed=404,
            quota_bytes=compiled.quota_bytes)[1])

    def legacy_run(name):
        if name == "campus":
            return trace_text(campus(seed=404, users=users[name],
                                     days=days)[1])
        workload = EecsResearchWorkload(EecsParams(users=users[name]))
        return trace_text(run_world(workload, days * DAY, seed=404)[1])

    numbers, failures = {}, []
    for name in scenario_names():
        spec = get_scenario(name)
        if ScenarioSpec.parse(spec.spec()) != spec:
            failures.append(f"{name}: round-trip contract broken")
            continue
        text = library_run(name)
        if text != library_run(name):
            failures.append(f"{name}: two identically seeded runs diverged")
        elif not text:
            failures.append(f"{name}: generated no traffic")
        else:
            numbers[f"{name}_records"] = text.count("\n") + 1
    for name in ("campus", "eecs"):
        if library_run(name) != legacy_run(name):
            failures.append(
                f"{name}: DSL trace diverged from the legacy generator")

    wall = time.perf_counter() - started
    numbers["wall_seconds"] = round(wall, 3)
    return numbers, failures + over_budget(wall)


def gate_ingest(shared: Shared):
    """The foreign-trace ingest pipeline.

    Every golden fixture in ``tests/fixtures/ingest/`` (discovered
    from the adapter registry, not a hand-kept list) must: ingest
    twice to byte-identical ``.rtb.gz`` (determinism gate), pair and
    summarize cleanly, and characterize into a scenario spec that
    validates (round-trips) and re-simulates.  The numbers carry each
    adapter's ingest MB/s: the faster of the two ingests of a small
    fixture, which says little about throughput (docs/PERFORMANCE.md).
    """
    from repro.analysis.pairing import pair_all
    from repro.analysis.summary import summarize_trace
    from repro.ingest import REGISTRY, ingest
    from repro.scenarios import ScenarioSpec, compile_workload, fit_scenario
    from repro.trace.reader import read_trace

    fixtures_dir = BENCH_DIR.parent / "tests" / "fixtures" / "ingest"
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
        with tempfile.TemporaryDirectory() as tmp:
            outs = []

            def ingest_once():
                outs.append(Path(tmp) / f"{len(outs)}.rtb.gz")
                return timed(ingest, str(fixture), str(outs[-1]), fmt=name)

            [(wall, _)] = best_of(ingest_once, repeats=2)
            if outs[0].read_bytes() != outs[1].read_bytes():
                failures.append(f"{name}: two ingest runs diverged")
                continue
            rates[name] = round(fixture.stat().st_size / 1e6 / wall, 2)
            records = read_trace(outs[0])
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
            _, twin = run_world(compiled.workload, 6 * 3600.0, seed=7,
                                quota_bytes=compiled.quota_bytes)
            if not twin.records():
                failures.append(f"{name}: twin simulated no traffic")

    wall = time.perf_counter() - started
    numbers = {"adapters": sorted(rates), "ingest_mb_per_s": rates,
               "wall_seconds": round(wall, 3)}
    return numbers, failures + over_budget(wall)


#: Every gate, in the order a run takes them.  ``speedup`` goes first:
#: its serial-against-pool walls move with the state an earlier gate
#: leaves in the process (after ``bench``, ``speedup_2`` read 0.81-0.93
#: in six of seven runs against 0.95-1.58 alone), so it runs as it does
#: alone.  ``bench`` reads the same world next, which is then dropped
#: before the others run.  CI's ``gates`` matrix has one leg per entry.
GATES = {
    "speedup": gate_speedup,
    "bench": gate_bench,
    "stream": gate_stream,
    "chaos": gate_chaos,
    "obs": gate_obs,
    "shard": gate_shard,
    "scenario": gate_scenario,
    "ingest": gate_ingest,
}


def run_gates(names, out: Path | None = None,
              write_baseline: bool = False) -> int:
    """Run the named gates in table order and print each verdict; with
    ``out``, write ``out/<gate>.json``.  Returns 1 if any gate failed."""
    import gc
    import traceback

    from repro.parallel import shutdown_pools

    names = [name for name in GATES if name in names]
    shared = Shared(names, write_baseline)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    failed = []
    for name in names:
        # every gate starts as in a process of its own: no pool that an
        # earlier gate warmed may flatter its timings
        shutdown_pools()
        started = time.perf_counter()
        try:
            numbers, failures = GATES[name](shared)
        except Exception as exc:
            traceback.print_exc()
            numbers, failures = {}, [f"raised {exc!r}"]
        seconds = round(time.perf_counter() - started, 3)
        print(f"{name}: {'FAILED' if failures else 'passed'} in {seconds}s")
        for key, value in numbers.items():
            print(f"  {key}: {value}")
        for failure in failures:
            print(f"  REGRESSION: {failure}")
        if out is not None:
            result = {"gate": name, "passed": not failures,
                      "seconds": seconds, "failures": failures,
                      "numbers": numbers}
            (out / f"{name}.json").write_text(
                json.dumps(result, indent=2) + "\n")
        if failures:
            failed.append(name)
        # nor may this gate's garbage weigh on the next one's timings
        gc.collect()
    print(f"{len(names) - len(failed)} of {len(names)} gates passed"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("gates", nargs="*", metavar="GATE",
                        help=f"gates to run, of: {', '.join(GATES)} "
                             "(default: all)")
    parser.add_argument("--out", type=Path, metavar="DIR",
                        help="write DIR/<gate>.json for each gate run")
    parser.add_argument("--write-baseline", action="store_true",
                        help="store the bench gate's numbers as the "
                             "committed baseline instead of gating them")
    args = parser.parse_args(argv)
    unknown = [name for name in args.gates if name not in GATES]
    if unknown:
        parser.error(f"unknown gate {', '.join(unknown)}; "
                     f"choose from {', '.join(GATES)}")
    names = args.gates or list(GATES)
    if args.write_baseline and "bench" not in names:
        parser.error("--write-baseline needs the bench gate")
    return run_gates(names, args.out, args.write_baseline)


if __name__ == "__main__":
    sys.exit(main())
