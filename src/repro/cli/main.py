"""The ``repro`` command-line entry point.

Subcommands are thin wrappers over the library; all heavy lifting
lives in :mod:`repro.workloads`, :mod:`repro.anonymize`, and
:mod:`repro.analysis`, so everything the CLI does is equally available
programmatically.
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro.analysis.characterize import characterize
from repro.analysis.lifetimes import (
    BIRTH_EXTENSION,
    BIRTH_WRITE,
    DEATH_DELETE,
    DEATH_OVERWRITE,
    DEATH_TRUNCATE,
    BlockLifetimeAnalyzer,
)
from repro.analysis.pairing import pair_trace
from repro.analysis.reorder import reorder_window_sort
from repro.analysis.runs import RunBuilder, classify_runs
from repro.analysis.summary import summarize_trace
from repro.anonymize import Anonymizer, default_rules
from repro.anonymize.rules import omit_rules
from repro.errors import ReproError, StreamMemoryError
from repro.faults import FaultSchedule
from repro.obs import (
    EventLog,
    MetricsRegistry,
    PhaseTimer,
    RotatingEventLog,
    RotatingTraceWriter,
    RotationPolicy,
    SpanRecorder,
    list_segments,
    parse_prom_text,
    partial_segments,
    to_prom_text,
)
from repro.report import format_table
from repro.simcore.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.stream import (
    LiveWatch,
    MonitorServer,
    StreamEngine,
    StreamLatency,
    StreamRates,
    StreamRuns,
    StreamStats,
    StreamSummary,
    StreamTopFiles,
)
from repro.scenarios import (
    compile_workload,
    load_scenario,
    scenario_names,
)
from repro.trace import TraceReader, TraceWriter, is_binary_trace_path
from repro.workloads import TracedSystem, run_sharded


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Passive NFS tracing reproduction toolchain (FAST '03).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic trace")
    _add_scenario_arg(sim)
    sim.add_argument("--days", type=float, default=1.0)
    sim.add_argument("--users", type=int, default=None)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--mirror-bandwidth", type=float, default=None,
                     help="mirror port bytes/s (default: lossless)")
    sim.add_argument("--faults", default=None, metavar="SPEC",
                     help="fault schedule, e.g. "
                          "'drop(p=0.01);crash(at=3600,down=30)'; "
                          "seeded from --seed, so runs reproduce "
                          "byte-identically (see docs/FAULTS.md)")
    sim.add_argument("--shards", type=int, default=None, metavar="N",
                     help="fan the client fleet out over N worker "
                          "processes; the merged trace (and stats, "
                          "ledger, spans) is byte-identical for every N "
                          "(see docs/PERFORMANCE.md)")
    sim.add_argument("--out", required=True)
    sim.add_argument("--metrics-out", default=None,
                     help="write the end-of-run metrics snapshot here "
                          "(.prom -> Prometheus text, else JSON)")
    sim.add_argument("--events-out", default=None,
                     help="write a JSON-lines event log of the run here")
    sim.add_argument("--progress", action="store_true",
                     help="print periodic sim-time/ops progress to stderr")
    _add_span_args(sim)
    sim.set_defaults(func=cmd_simulate)

    watch = sub.add_parser(
        "watch",
        help="simulate with a live streaming analysis attached "
             "(periodic snapshots, bounded memory)",
    )
    _add_scenario_arg(watch)
    watch.add_argument("--days", type=float, default=1.0)
    watch.add_argument("--users", type=int, default=None)
    watch.add_argument("--seed", type=int, default=0)
    watch.add_argument("--mirror-bandwidth", type=float, default=None,
                       help="mirror port bytes/s (default: lossless)")
    watch.add_argument("--faults", default=None, metavar="SPEC",
                       help="fault schedule (same grammar as simulate)")
    watch.add_argument("--shards", type=int, default=None, metavar="N",
                       help="not supported for watch (live snapshots need "
                            "the single in-process event loop); use "
                            "simulate or monitor --shards instead")
    watch.add_argument("--interval", type=float, default=SECONDS_PER_HOUR,
                       help="simulated seconds between snapshots")
    watch.add_argument("--top", type=int, default=5,
                       help="hot files tracked in each snapshot")
    watch.add_argument("--out", default=None,
                       help="also write the trace, streamed to disk as the "
                            "run goes (the file simulate would write)")
    watch.add_argument("--metrics-out", default=None,
                       help="write the end-of-run metrics snapshot here "
                            "(.prom -> Prometheus text, else JSON)")
    _add_span_args(watch)
    watch.set_defaults(func=cmd_watch)

    monitor = sub.add_parser(
        "monitor",
        help="continuous monitoring daemon: rotated trace/span segments "
             "on disk, live /metrics and /spans over a local socket",
    )
    _add_scenario_arg(monitor)
    monitor.add_argument("--days", type=float, default=1.0)
    monitor.add_argument("--users", type=int, default=None)
    monitor.add_argument("--seed", type=int, default=0)
    monitor.add_argument("--mirror-bandwidth", type=float, default=None,
                         help="mirror port bytes/s (default: lossless)")
    monitor.add_argument("--faults", default=None, metavar="SPEC",
                         help="fault schedule (same grammar as simulate)")
    monitor.add_argument("--shards", type=int, default=None, metavar="N",
                         help="simulate over N worker processes, then "
                              "stream the merged trace into segments; "
                              "incompatible with --serve (no live loop)")
    monitor.add_argument("--interval", type=float, default=SECONDS_PER_HOUR,
                         help="simulated seconds between snapshots")
    monitor.add_argument("--top", type=int, default=5,
                         help="hot files tracked in each snapshot")
    monitor.add_argument("--dir", required=True,
                         help="segment directory (trace-*.rtb.gz and, when "
                              "sampling, spans-*.jsonl)")
    monitor.add_argument("--segment-bytes", type=int, default=8 * 1024 * 1024,
                         help="rotate a segment at this many written bytes")
    monitor.add_argument("--segment-age", type=float, default=None,
                         help="rotate a segment after this many simulated "
                              "seconds (default: size-only)")
    monitor.add_argument("--retain", type=int, default=None,
                         help="keep at most N segments per stream, deleting "
                              "the oldest (default: keep all)")
    monitor.add_argument("--trace-sample", type=float, default=0.0,
                         help="span-sampling rate in [0,1]; 0 disables span "
                              "tracing (trace bytes never change)")
    monitor.add_argument("--span-tail", type=int, default=256,
                         help="live span records kept for /spans")
    monitor.add_argument("--serve", action="store_true",
                         help="serve /metrics, /spans, /healthz on 127.0.0.1")
    monitor.add_argument("--port", type=int, default=0,
                         help="port for --serve (default: ephemeral)")
    monitor.add_argument("--max-items", type=int, default=None,
                         help="streaming-state budget; exceeding it stops "
                              "the run with a StreamMemoryError")
    monitor.set_defaults(func=cmd_monitor)

    query = sub.add_parser(
        "query",
        help="query rotated monitor segments: the span chain of one "
             "trace ID, or span/trace stats for one file handle",
    )
    query.add_argument("--dir", required=True,
                       help="segment directory written by repro monitor")
    what = query.add_mutually_exclusive_group(required=True)
    what.add_argument("--trace-id", default=None,
                      help="32-hex trace ID (see repro.obs.spans.trace_id)")
    what.add_argument("--file", dest="file_handle", default=None,
                      help="file handle (hex) to summarize across segments")
    query.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of tables")
    query.set_defaults(func=cmd_query)

    stats = sub.add_parser(
        "stats", help="trace-level statistics (records, op mix, loss)"
    )
    stats.add_argument("trace", help="trace file to summarize")
    stats.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of tables")
    stats.add_argument("--metrics", default=None, metavar="PATH",
                       help="also surface fault-injection/retransmission "
                            "tallies and analysis fan-out health (pool "
                            "utilization, chunks, per-chunk wall) from a "
                            "metrics snapshot (.prom or JSON) written by "
                            "simulate/watch/monitor or analyze --metrics-out")
    stats.set_defaults(func=cmd_stats)

    anon = sub.add_parser("anonymize", help="anonymize a trace for sharing")
    anon.add_argument("--key", type=int, required=True,
                      help="site secret; reuse it for consistent multi-file output")
    anon.add_argument("--omit", action="store_true",
                      help="drop names/UIDs/GIDs/IPs entirely")
    anon.add_argument("--mappings", default=None,
                      help="JSON file to load/store mapping tables")
    anon.add_argument("--in", dest="input", required=True)
    anon.add_argument("--out", required=True)
    anon.set_defaults(func=cmd_anonymize)

    summary = sub.add_parser("summary", help="daily activity summary (Table 2)")
    _add_window_args(summary)
    summary.set_defaults(func=cmd_summary)

    runs = sub.add_parser("runs", help="run-pattern classification (Table 3)")
    _add_window_args(runs)
    runs.add_argument("--window-ms", type=float, default=10.0,
                      help="reorder window (paper: 10 CAMPUS, 5 EECS)")
    runs.add_argument("--jumps", type=int, default=10,
                      help="seek tolerance in blocks (1 = strict)")
    runs.set_defaults(func=cmd_runs)

    lifetimes = sub.add_parser(
        "lifetimes", help="create-based block lifetimes (Table 4 / Figure 3)"
    )
    lifetimes.add_argument("--in", dest="input", required=True)
    lifetimes.add_argument("--phase1-start", type=float, default=0.0)
    lifetimes.add_argument("--phase1-end", type=float, default=None,
                           help="default: midpoint of the trace")
    lifetimes.add_argument("--phase2-end", type=float, default=None,
                           help="default: end of the trace")
    lifetimes.set_defaults(func=cmd_lifetimes)

    report = sub.add_parser("report", help="full characterization (Table 1)")
    _add_window_args(report)
    report.set_defaults(func=cmd_report)

    analyze = sub.add_parser(
        "analyze",
        help="summary + runs + characterization in one pass "
             "(pairs once, optionally in parallel)",
    )
    _add_window_args(analyze)
    analyze.add_argument("--jobs", type=int, default=1,
                         help="worker processes for decode+pairing; "
                              "results are identical for every value")
    analyze.add_argument("--window-ms", type=float, default=10.0,
                         help="reorder window (paper: 10 CAMPUS, 5 EECS)")
    analyze.add_argument("--jumps", type=int, default=10,
                         help="seek tolerance in blocks (1 = strict)")
    analyze.add_argument("--stream", action="store_true",
                         help="one-pass bounded-memory engine, as summary "
                              "and runs use: ops in completion order, so "
                              "the runs section equals batch analyze's "
                              "only when the window covers reorder delays; "
                              "streaming extras replace the characterization")
    analyze.add_argument("--metrics-out", default=None,
                         help="write pool/codec metrics snapshot here "
                              "(.prom -> Prometheus text, else JSON)")
    _add_span_args(analyze)
    analyze.set_defaults(func=cmd_analyze)

    names = sub.add_parser(
        "names", help="filename-category statistics and prediction (Sec 6.3)"
    )
    names.add_argument("--in", dest="input", required=True)
    names.set_defaults(func=cmd_names)

    scen = sub.add_parser(
        "scenarios",
        help="list, show, or validate workload scenarios "
             "(see docs/SCENARIOS.md)",
    )
    scen.add_argument("action", choices=("list", "show", "validate"),
                      help="list the library; show a scenario's canonical "
                           "spec; validate a scenario (or, with no REF, "
                           "the whole library)")
    scen.add_argument("ref", nargs="?", default=None, metavar="REF",
                      help="scenario name, spec file, or inline spec text")
    scen.add_argument("--json", action="store_true",
                      help="emit machine-readable JSON instead of tables")
    scen.set_defaults(func=cmd_scenarios)

    char = sub.add_parser(
        "characterize",
        help="fit a scenario-spec skeleton to a trace so it can "
             "round-trip toward a synthetic twin",
    )
    char.add_argument("--in", dest="input", required=True,
                      help="trace to fit (native text/binary)")
    char.add_argument("--name", default="fitted",
                      help="scenario name for the emitted spec")
    char.add_argument("--out", default=None,
                      help="write the spec here (default: stdout)")
    char.set_defaults(func=cmd_characterize)

    convert = sub.add_parser(
        "convert",
        help="convert between trace formats "
             "(nfsdump import, native text<->binary)",
    )
    convert.add_argument("--from", dest="source_format", default="auto",
                         choices=("auto", "nfsdump", "native"),
                         help="input format (auto: sniff the first line)")
    convert.add_argument("--in", dest="input", required=True)
    convert.add_argument("--out", required=True,
                         help=".rtb/.rtb.gz writes the binary container, "
                              "anything else the text format")
    convert.set_defaults(func=cmd_convert)

    ing = sub.add_parser(
        "ingest",
        help="ingest a foreign trace archive (nfsdump, snia-nfs, "
             "wta-parquet-lite, tracetracker-blk) into the native format",
    )
    ing.add_argument("--in", dest="input", required=True,
                     help="source archive (gzip by .gz suffix) or '-' "
                          "to stream lines from stdin")
    ing.add_argument("--format", default="auto",
                     help="adapter name, or 'auto' to sniff the head "
                          "(see 'repro ingest' docs / docs/INGEST.md)")
    ing.add_argument("--out", required=True,
                     help=".rtb/.rtb.gz writes the binary container, "
                          "anything else the text format")
    ing.add_argument("--on-error", choices=("skip", "fail"), default="skip",
                     help="malformed source lines: count and drop them "
                          "(skip, default) or abort on the first (fail)")
    ing.add_argument("--reorder-window", type=float, default=5.0,
                     metavar="SECONDS",
                     help="bounded window for monotonic-time repair "
                          "(default: 5)")
    ing.add_argument("--metrics-out", default=None,
                     help="write ingest counters here as JSON")
    ing.set_defaults(func=cmd_ingest)

    return parser


def _add_scenario_arg(sub) -> None:
    """``--scenario`` (alias ``--system``) for simulate-style commands.

    Accepts a library scenario name, a spec file path, or inline spec
    text; resolution (and the one-line unknown-name error listing the
    library) happens in :func:`repro.scenarios.load_scenario`, not in
    argparse, so the same registry serves the CLI and the library API.
    """
    sub.add_argument(
        "--scenario", "--system", dest="system", required=True,
        metavar="NAME|FILE",
        help="workload scenario: a library name (see 'repro scenarios "
             "list'), a spec file, or inline spec text",
    )


def _add_window_args(sub) -> None:
    sub.add_argument("--in", dest="input", required=True)
    sub.add_argument("--start", type=float, default=None,
                     help="window start, trace seconds (default: whole trace)")
    sub.add_argument("--end", type=float, default=None,
                     help="window end, exclusive; must be above --start "
                          "(default: whole trace)")


def _add_span_args(sub) -> None:
    sub.add_argument("--trace-sample", type=float, default=0.0,
                     help="span-sampling rate in [0,1]; the decision is a "
                          "hash of (client, xid, proc), so 0 (default) and "
                          "any rate produce byte-identical traces")
    sub.add_argument("--spans-out", default=None,
                     help="write sampled spans here as JSON lines "
                          "(requires --trace-sample > 0)")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, ValueError, ReproError) as exc:
        # every library failure (ReproError covers bad trace bytes and
        # bad fault specs) exits 2 with one clean line, no traceback
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


# -- subcommands -----------------------------------------------------------------


def _build_system(args, *, span_sink=None, span_tail=0):
    """System + workload + compiled scenario for simulate-style commands.

    Dispatch goes through the scenario registry
    (:func:`repro.scenarios.compile_workload`): ``--scenario`` may be a
    library name, a spec file, or inline spec text, and an unknown
    name exits 2 with a one-line error listing the library.  The third
    element keeps the old ``params`` position — callers read
    ``.users`` off it, which :class:`CompiledScenario` carries.
    """
    faults = getattr(args, "faults", None)
    trace_sample = getattr(args, "trace_sample", 0.0)
    spans_out = getattr(args, "spans_out", None)
    if spans_out and trace_sample <= 0:
        raise ValueError("--spans-out requires --trace-sample > 0")
    if span_sink is None and spans_out:
        span_sink = EventLog(spans_out)
    compiled = compile_workload(args.system, users=args.users or None)
    system = TracedSystem(
        seed=args.seed,
        quota_bytes=compiled.quota_bytes,
        mirror_bandwidth=args.mirror_bandwidth,
        faults=faults,
        trace_sample=trace_sample,
        span_sink=span_sink,
        span_tail=span_tail,
    )
    return system, compiled.workload, compiled


def _close_spans(system) -> int | None:
    """Finalize a system's span recorder and its sink; returns the count."""
    spans = getattr(system, "spans", None)
    if spans is None:
        return None
    emitted = spans.close()
    close = getattr(spans.sink, "close", None)
    if close is not None:
        close()
    return emitted


def _span_summary_line(emitted, args) -> str | None:
    """The span report simulate/watch print (None without a recorder)."""
    if emitted is None:
        return None
    destination = args.spans_out if args.spans_out else "memory (no --spans-out)"
    return (
        f"spans: {emitted} emitted at sample rate "
        f"{args.trace_sample:g} -> {destination}"
    )


@contextmanager
def _trace_out(path):
    """A :class:`TraceWriter` on ``path``, closed when the block ends;
    if the block fails, the partial file is removed."""
    writer = TraceWriter(path)
    try:
        yield writer
    except BaseException:
        writer.close()
        Path(path).unlink(missing_ok=True)
        raise
    writer.close()


def _live_engine(metrics, args, *, spans=None, max_items=None) -> StreamEngine:
    """The engine watch and monitor feed, with their snapshot analyses."""
    engine = StreamEngine(metrics=metrics, max_items=max_items, spans=spans)
    engine.register(StreamSummary())
    engine.register(StreamRates())
    engine.register(StreamTopFiles(k=args.top))
    engine.register(StreamLatency())
    return engine


def _run_live(args, system, workload, engine, *, writer=None, server=None):
    """Run watch/monitor's world with a :class:`LiveWatch` attached;
    returns the watch and the engine's results."""
    system.start_measurement(SECONDS_PER_DAY)
    end = (1.0 + args.days) * SECONDS_PER_DAY
    watch = LiveWatch(system, engine, interval=args.interval,
                      start_time=SECONDS_PER_DAY, writer=writer, server=server)
    workload.attach(system)
    watch.start(end)
    system.run(end)
    return watch, watch.finish()


def _print_live_report(label, watch, results, args) -> None:
    """The summary and snapshot lines watch and monitor print."""
    print(_summary_text(f"{label} {args.system} simulation",
                        results["summary"], results["pairing"]))
    engine = watch.engine
    print(
        f"\n{watch.snapshots_rendered} snapshots rendered "
        f"({args.interval:g}s interval), {engine.records:,} records "
        f"streamed, peak state {engine.peak_items:,} items"
    )


def _print_segment_report(writer, span_sink, spans_emitted, args) -> None:
    """The segment lines both monitor paths end with."""
    print(
        f"trace segments: {writer.segments_written} written, "
        f"{writer.segments_retired} retired, "
        f"{len(writer.paths)} on disk in {args.dir} "
        f"({writer.records_written:,} records)"
    )
    if span_sink is not None:
        print(
            f"span segments: {span_sink.segments_written} written, "
            f"{span_sink.segments_retired} retired, "
            f"{len(span_sink.paths)} on disk "
            f"({spans_emitted} spans at rate {args.trace_sample:g})"
        )
    print(f"query with: repro query --dir {args.dir} "
          f"--trace-id ID | --file FH")


def _default_users(args) -> int:
    """The population for simulate-style commands (spec default)."""
    if args.users:
        return args.users
    return load_scenario(args.system).default_users()


def _simulate_sharded(args) -> int:
    """``repro simulate --shards N``: the multi-process fan-out path.

    Same window and output conventions as the in-process path (warm-up
    Sunday excluded, trace windowed at Monday 00:00); the trace, the
    fault ledger, and the span stream are byte-identical for every N.
    """
    if args.spans_out and args.trace_sample <= 0:
        raise ValueError("--spans-out requires --trace-sample > 0")
    if args.progress:
        print("[repro] --progress is per event loop; sharded runs "
              "report per-shard walls in --metrics-out instead",
              file=sys.stderr)
    users = _default_users(args)
    event_log = EventLog(args.events_out) if args.events_out else None
    timer = PhaseTimer()
    if event_log is not None:
        event_log.emit("simulate.start", system=args.system, seed=args.seed,
                       days=args.days, users=users, shards=args.shards)
    try:
        with timer.phase("simulate"):
            run = run_sharded(
                args.system,
                users=users,
                days=args.days,
                seed=args.seed,
                shards=args.shards,
                mirror_bandwidth=args.mirror_bandwidth,
                faults=args.faults,
                trace_sample=args.trace_sample,
            )
        with timer.phase("merge_write"):
            count = run.write(args.out)
        spans_emitted = None
        if args.spans_out:
            with EventLog(args.spans_out) as span_log:
                spans_emitted = run.replay_spans(span_log)
        elif run.spans_emitted:
            spans_emitted = run.spans_emitted
        if args.metrics_out:
            metrics = MetricsRegistry()
            run.publish_metrics(
                metrics, merge_seconds=timer.seconds.get("merge_write")
            )
            _write_metrics(args.metrics_out, metrics)
        if event_log is not None:
            event_log.emit("simulate.done", records=count,
                           drop_rate=run.drop_rate,
                           shards=run.shards, groups=run.groups,
                           wall_seconds=round(timer.total, 3),
                           phases=timer.as_dict()["phases"])
    finally:
        if event_log is not None:
            event_log.close()
    print(
        f"wrote {count} records to {args.out} "
        f"({args.days:g} day(s) from Monday 00:00, {users} users, "
        f"mirror loss {run.drop_rate:.1%})"
    )
    busy = sum(run.shard_walls)
    util = busy / (run.shards * run.fanout_seconds) \
        if run.fanout_seconds > 0 else 0.0
    print(
        f"fan-out: {run.shards} shard(s) over {run.groups} client "
        f"group(s), utilization {util:.0%}"
    )
    span_line = _span_summary_line(spans_emitted, args)
    if span_line is not None:
        print(span_line)
    if args.faults is not None:
        spec = FaultSchedule.parse(args.faults).spec()
        injected = sum(run.injected.values())
        print(
            f"faults: {spec} -> {injected} injected events, "
            f"{run.retransmits} retransmissions"
        )
    return 0


def cmd_simulate(args) -> int:
    """Generate a synthetic trace file."""
    if args.shards is not None:
        return _simulate_sharded(args)
    system, workload, params = _build_system(args)
    # one window for the metrics and the capture: the warm-up Sunday
    # is simulated but neither counted nor captured, so the snapshot
    # agrees with analyses run over the written trace
    system.start_measurement(SECONDS_PER_DAY)
    end = (1.0 + args.days) * SECONDS_PER_DAY
    event_log = EventLog(args.events_out) if args.events_out else None
    timer = PhaseTimer()
    if args.progress:
        _schedule_progress(system, end, event_log)
    workload.attach(system)
    if event_log is not None:
        event_log.emit("simulate.start", system=args.system, seed=args.seed,
                       days=args.days, users=params.users)
    # the simulated week begins on a quiet Sunday; run through it so
    # the requested window starts Monday 00:00 with caches warm
    try:
        with _trace_out(args.out) as writer:
            system.collector.sinks = [writer.write]
            with timer.phase("simulate"):
                system.run(end)
            with timer.phase("write_trace"):
                system.collector.flush()
                writer.close()
        count = writer.records_written
        _write_metrics(args.metrics_out, system.metrics)
        if event_log is not None:
            event_log.emit("simulate.done", time=system.clock.now,
                           records=count,
                           drop_rate=system.mirror.drop_rate,
                           wall_seconds=round(timer.total, 3),
                           phases=timer.as_dict()["phases"])
    finally:
        # abnormal exits too: whatever was logged so far reaches disk
        if event_log is not None:
            event_log.close()
        spans_emitted = _close_spans(system)
    drop = system.mirror.drop_rate
    print(
        f"wrote {count} records to {args.out} "
        f"({args.days:g} day(s) from Monday 00:00, {params.users} users, "
        f"mirror loss {drop:.1%})"
    )
    span_line = _span_summary_line(spans_emitted, args)
    if span_line is not None:
        print(span_line)
    if system.faults is not None:
        injected = sum(system.faults.injected.values())
        retransmits = sum(c.retransmits for c in system.clients.values())
        print(
            f"faults: {system.faults.schedule.spec()} -> "
            f"{injected} injected events, {retransmits} retransmissions"
        )
    return 0


def cmd_watch(args) -> int:
    """Simulate with a live streaming analysis attached.

    The collector streams its released capture into the engine (and
    into the ``--out`` trace file, when asked), so a run holds just the
    engine's bounded state no matter how many simulated days pass.
    Snapshots go to stderr (like ``--progress``); the final Table 2
    summary to stdout.
    """
    if args.shards is not None and args.shards < 1:
        raise ValueError(f"--shards must be >= 1, got {args.shards}")
    if args.shards is not None and args.shards > 1:
        raise ValueError(
            "watch renders live snapshots from inside the event loop and "
            "cannot shard; use simulate --shards or monitor --shards"
        )
    system, workload, params = _build_system(args)
    engine = _live_engine(system.metrics, args, spans=system.spans)
    try:
        with (_trace_out(args.out) if args.out else nullcontext()) as writer:
            watch, results = _run_live(args, system, workload, engine,
                                       writer=writer)
    finally:
        spans_emitted = _close_spans(system)
    _print_live_report("live", watch, results, args)
    span_line = _span_summary_line(spans_emitted, args)
    if span_line is not None:
        print(span_line)
    if writer is not None:
        print(f"wrote {writer.records_written} records to {args.out}")
    _write_metrics(args.metrics_out, system.metrics)
    return 0


def cmd_monitor(args) -> int:
    """The continuous monitoring daemon.

    Like ``repro watch`` but built to be left running: records stream
    into rotated ``.rtb.gz`` segments (size/age policy, retention
    budget), sampled spans into rotated ``.jsonl`` segments, and
    ``--serve`` exposes ``/metrics`` (Prometheus text) and ``/spans``
    (live span tail) on a loopback socket.  Memory is bounded: the
    collector holds only records the clock has not yet passed and
    streams the rest to the segments and the engine, the engine
    enforces ``--max-items`` (a :class:`~repro.errors.StreamMemoryError`
    stops the run loudly with all segments closed), and the span tail
    is a fixed deque.
    The segment directory is queryable afterwards with ``repro query``.
    """
    if args.shards is not None:
        return _monitor_sharded(args)
    policy = RotationPolicy(
        max_bytes=args.segment_bytes,
        max_age=args.segment_age,
        retain=args.retain,
    )
    span_sink = None
    if args.trace_sample > 0:
        span_sink = RotatingEventLog(args.dir, policy=policy)
    args.spans_out = None  # sink is managed here, not via --spans-out
    system, workload, params = _build_system(
        args, span_sink=span_sink,
        span_tail=args.span_tail if args.trace_sample > 0 else 0,
    )
    if span_sink is not None:
        span_sink.bind_metrics(system.metrics)
    writer = RotatingTraceWriter(
        args.dir, policy=policy, metrics=system.metrics
    )
    # the live engine pairs too: with sampling on, its pairer emits
    # verdict spans inline, completing each sampled trace's hop chain
    engine = _live_engine(system.metrics, args, spans=system.spans,
                          max_items=args.max_items)
    server = None
    if args.serve:
        server = MonitorServer(port=args.port)
        server.start()
        print(f"[monitor] serving http://{server.address}/metrics "
              f"/spans /healthz", file=sys.stderr)
    try:
        watch, results = _run_live(args, system, workload, engine,
                                   writer=writer, server=server)
    finally:
        # every exit path — including StreamMemoryError from the
        # engine's budget — leaves only closed, scannable segments
        writer.close()
        spans_emitted = _close_spans(system)
        if server is not None:
            server.close()
    _print_live_report("monitored", watch, results, args)
    _print_segment_report(writer, span_sink, spans_emitted, args)
    return 0


def _monitor_sharded(args) -> int:
    """``repro monitor --shards N``: fan out, then segment the merge.

    The simulation runs sharded exactly as ``simulate --shards`` does;
    the merged record stream is then fed through the rotating trace
    writer and the streaming engine post-hoc, so the segment directory
    (and the final summary) is the same as a live run's — only the
    periodic snapshots and ``--serve``, which need a live in-process
    event loop, are unavailable.
    """
    if args.serve:
        raise ValueError(
            "--serve needs the live in-process event loop; "
            "drop --serve or run without --shards"
        )
    policy = RotationPolicy(
        max_bytes=args.segment_bytes,
        max_age=args.segment_age,
        retain=args.retain,
    )
    metrics = MetricsRegistry()
    run = run_sharded(
        args.system,
        users=_default_users(args),
        days=args.days,
        seed=args.seed,
        shards=args.shards,
        mirror_bandwidth=args.mirror_bandwidth,
        faults=args.faults,
        trace_sample=args.trace_sample,
    )
    span_sink = None
    spans_emitted = 0
    writer = RotatingTraceWriter(args.dir, policy=policy, metrics=metrics)
    engine = _live_engine(metrics, args, max_items=args.max_items)
    try:
        for record in run.merged():
            writer.write(record)
            engine.feed(record)
        results = engine.finish()
        if args.trace_sample > 0:
            span_sink = RotatingEventLog(args.dir, policy=policy)
            span_sink.bind_metrics(metrics)
            spans_emitted = run.replay_spans(span_sink)
    finally:
        writer.close()
        if span_sink is not None:
            span_sink.close()
    run.publish_metrics(metrics)
    print(_summary_text(f"monitored {args.system} simulation",
                        results["summary"], results["pairing"]))
    print(
        f"\nsharded run: {run.shards} shard(s) over {run.groups} client "
        f"group(s), {engine.records:,} records streamed post-merge, "
        f"peak state {engine.peak_items:,} items"
    )
    _print_segment_report(writer, span_sink, spans_emitted, args)
    return 0


def _scan_span_segments(directory, keep) -> list[dict]:
    """All span records in rotated ``spans-*.jsonl`` matching ``keep``."""
    matches: list[dict] = []
    for path in list_segments(directory, "spans", ".jsonl"):
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if record.get("event") == "span" and keep(record):
                    matches.append(record)
    return matches


#: Sort spans of one trace into pipeline order for display.
_QUERY_HOP_ORDER = {"client": 0, "link": 1, "server": 2,
                    "capture": 3, "pairer": 4}


def _query_trace(args, directory) -> int:
    wanted = args.trace_id
    spans = _scan_span_segments(directory, lambda r: r.get("trace") == wanted)
    if not spans:
        raise ValueError(
            f"no spans for trace {wanted} in {args.dir} (is the ID right, "
            f"was the run sampled, did retention delete its segment?)"
        )
    spans.sort(key=lambda r: (
        r.get("start", 0.0), _QUERY_HOP_ORDER.get(r.get("hop"), 9),
        r.get("end", 0.0),
    ))
    if args.json:
        print(json.dumps(spans, indent=2, sort_keys=True))
        return 0
    rows = []
    for span in spans:
        attrs = span.get("attrs") or {}
        events = span.get("events") or []
        detail = attrs.get("verdict") or ",".join(
            e.get("name", "?") for e in events
        )
        rows.append([
            span.get("hop"), span.get("name"),
            f"{span.get('start', 0.0):.6f}", f"{span.get('end', 0.0):.6f}",
            span.get("status"), detail or "-",
        ])
    print(format_table(
        ["Hop", "Name", "Start", "End", "Status", "Detail"],
        rows,
        title=f"Trace {wanted} ({len(spans)} spans)",
    ))
    root = next((s for s in spans if s.get("hop") == "client"), None)
    if root is not None:
        attrs = root.get("attrs") or {}
        print(f"\nclient={attrs.get('client')} xid={attrs.get('xid')} "
              f"proc={attrs.get('proc')} fh={attrs.get('fh', '-')}")
    return 0


def _query_file(args, directory) -> int:
    wanted = args.file_handle
    per_proc: dict[str, int] = {}
    records = calls = replies = 0
    bytes_read = bytes_written = 0
    first = last = None
    from repro.nfs.procedures import NfsProc
    from repro.trace.record import Direction

    for path in list_segments(directory, "trace"):
        with TraceReader(path) as reader:
            for record in reader:
                if record.fh != wanted:
                    continue
                records += 1
                name = record.proc._value_
                per_proc[name] = per_proc.get(name, 0) + 1
                if record.direction == Direction.CALL:
                    calls += 1
                    if record.proc is NfsProc.WRITE and record.count:
                        bytes_written += record.count
                else:
                    replies += 1
                    if record.proc is NfsProc.READ and record.count:
                        bytes_read += record.count
                if first is None or record.time < first:
                    first = record.time
                if last is None or record.time > last:
                    last = record.time
    spans = _scan_span_segments(
        directory, lambda r: (r.get("attrs") or {}).get("fh") == wanted
    )
    traces = sorted({s["trace"] for s in spans})
    if records == 0 and not spans:
        raise ValueError(f"no records or spans for file {wanted} in {args.dir}")
    if args.json:
        print(json.dumps({
            "file": wanted,
            "records": records,
            "calls": calls,
            "replies": replies,
            "bytes_read": bytes_read,
            "bytes_written": bytes_written,
            "first_time": first,
            "last_time": last,
            "per_proc": dict(sorted(per_proc.items())),
            "sampled_traces": traces,
        }, indent=2))
        return 0
    rows = [
        ["Records", records],
        ["Calls / replies", f"{calls} / {replies}"],
        ["Bytes read", bytes_read],
        ["Bytes written", bytes_written],
        ["First seen", f"{first:.3f}" if first is not None else "-"],
        ["Last seen", f"{last:.3f}" if last is not None else "-"],
        ["Sampled traces", len(traces)],
    ]
    for proc, count in sorted(per_proc.items()):
        rows.append([f"  {proc}", count])
    print(format_table(
        ["Metric", "Value"], rows,
        title=f"File {wanted} across segments in {args.dir}",
    ))
    if traces:
        shown = ", ".join(traces[:3])
        print(f"\nsampled trace IDs (first 3 of {len(traces)}): {shown}")
        print("follow one with: repro query --dir "
              f"{args.dir} --trace-id {traces[0]}")
    return 0


def cmd_query(args) -> int:
    """Query rotated monitor segments by trace ID or file handle;
    open or abandoned (``partial-*``) segments are skipped, on stderr."""
    directory = Path(args.dir)
    if not directory.is_dir():
        raise FileNotFoundError(f"segment directory not found: {args.dir}")
    skipped = (partial_segments(directory, "trace")
               + partial_segments(directory, "spans", ".jsonl"))
    if skipped:
        names = ", ".join(path.name for path in skipped)
        print(f"repro: skipped {len(skipped)} incomplete segment(s): "
              f"{names}", file=sys.stderr)
    if args.trace_id:
        return _query_trace(args, directory)
    return _query_file(args, directory)


#: Simulated seconds between --progress reports.
PROGRESS_INTERVAL = SECONDS_PER_HOUR


def _schedule_progress(system, end: float, event_log=None) -> None:
    """Arrange periodic progress lines on stderr while simulating."""
    loop = system.loop
    collector = system.collector

    def tick() -> None:
        loop.sync_metrics()
        now = loop.clock.now
        wall = loop.wall_seconds
        speed = now / wall if wall > 0 else float("inf")
        records = collector.calls_seen + collector.replies_seen
        line = (
            f"[repro] sim {now / SECONDS_PER_DAY:6.2f}d  "
            f"events {loop.events_run:>9,}  "
            f"records {records:>9,}  "
            f"wall {wall:7.1f}s  speed {speed:,.0f}x"
        )
        print(line, file=sys.stderr)
        if event_log is not None:
            event_log.emit("progress", time=now, events=loop.events_run,
                           records=records, wall_seconds=round(wall, 3))
        if now + PROGRESS_INTERVAL <= end:
            loop.schedule_in(PROGRESS_INTERVAL, tick)

    loop.schedule(PROGRESS_INTERVAL, tick)


def _metric_samples(samples: dict, name: str) -> list[tuple[dict, float]]:
    """Extract ``(labels, value)`` pairs for one metric from a snapshot.

    Accepts both snapshot key styles: the JSON form
    ``faults.injected{fault=drop,kind=call,where=wire}`` and the
    Prometheus form ``faults_injected{fault="drop",...}``.
    """
    names = (name, name.replace(".", "_").replace("-", "_"))
    out: list[tuple[dict, float]] = []
    for key, value in samples.items():
        base, _, label_part = key.partition("{")
        if base not in names:
            continue
        if isinstance(value, dict):  # gauge/histogram snapshot objects
            continue
        labels: dict[str, str] = {}
        if label_part:
            for pair in label_part.rstrip("}").split(","):
                k, _, v = pair.partition("=")
                labels[k] = v.strip('"')
        out.append((labels, value))
    return out


def _load_metrics_snapshot(path: str) -> dict:
    """A metrics snapshot file as ``{sample_key: value}`` (either format)."""
    text = Path(path).read_text()
    if path.endswith(".prom"):
        return parse_prom_text(text)
    return json.loads(text)


def _fault_stats_report(path: str) -> tuple[list[list], int]:
    """Fault-injection rows and the retransmission total from a snapshot."""
    samples = _load_metrics_snapshot(path)
    rows = []
    for labels, value in _metric_samples(samples, "faults.injected"):
        rows.append([
            labels.get("fault", "?"), labels.get("kind", "?"),
            labels.get("where", "?"), int(value),
        ])
    rows.sort()
    retransmits = int(sum(
        value for _labels, value in _metric_samples(
            samples, "client.retransmits"
        )
    ))
    return rows, retransmits


def _scalar_sample(samples: dict, name: str):
    """One gauge/counter value from a snapshot, either key style."""
    for key in (name, name.replace(".", "_")):
        value = samples.get(key)
        if isinstance(value, dict):  # JSON gauge: {value, high_water}
            return value.get("value")
        if value is not None:
            return value
    return None


def _histogram_sample(samples: dict, name: str):
    """A histogram's ``(count, sum)`` from a snapshot, either format."""
    value = samples.get(name)
    if isinstance(value, dict) and "count" in value:
        return int(value["count"]), float(value["sum"])
    flat = name.replace(".", "_")
    count = samples.get(f"{flat}_count")
    if count is None:
        return None
    return int(count), float(samples.get(f"{flat}_sum", 0.0))


def _pool_stats_report(path: str) -> dict | None:
    """Fan-out health from an ``analyze --metrics-out`` snapshot.

    Returns None when the snapshot has no ``analysis.pool.*`` samples
    (e.g. it came from a simulation run instead of an analysis).
    """
    samples = _load_metrics_snapshot(path)
    jobs = _scalar_sample(samples, "analysis.pool.jobs")
    if jobs is None:
        return None
    report = {
        "jobs": int(jobs),
        "chunks": int(_scalar_sample(samples, "analysis.pool.chunks") or 0),
        "utilization": float(
            _scalar_sample(samples, "analysis.pool.utilization") or 0.0
        ),
        "records": int(_scalar_sample(samples, "analysis.pool.records") or 0),
        "ops": int(_scalar_sample(samples, "analysis.pool.ops") or 0),
    }
    chunk_wall = _histogram_sample(samples, "analysis.pool.chunk_seconds")
    if chunk_wall is not None:
        count, total = chunk_wall
        report["chunk_wall_seconds_total"] = total
        report["chunk_wall_seconds_mean"] = total / count if count else 0.0
    return report


def _sim_stats_report(path: str) -> dict | None:
    """Sharded-simulation fan-out health from a metrics snapshot.

    Returns None when the snapshot has no ``sim.fanout.*`` samples
    (e.g. it came from an unsharded run or an analysis).
    """
    samples = _load_metrics_snapshot(path)
    shards = _scalar_sample(samples, "sim.fanout.shards")
    if shards is None:
        return None
    report = {
        "shards": int(shards),
        "groups": int(_scalar_sample(samples, "sim.fanout.groups") or 0),
        "utilization": float(
            _scalar_sample(samples, "sim.fanout.utilization") or 0.0
        ),
        "records": int(_scalar_sample(samples, "sim.fanout.records") or 0),
    }
    shard_wall = _histogram_sample(samples, "sim.fanout.shard_seconds")
    if shard_wall is not None:
        count, total = shard_wall
        report["shard_wall_seconds_total"] = total
        report["shard_wall_seconds_mean"] = total / count if count else 0.0
    merge = _scalar_sample(samples, "sim.fanout.merge_seconds")
    if merge is not None:
        report["merge_seconds"] = float(merge)
    return report


def cmd_stats(args) -> int:
    """Trace-level statistics: record mix, per-procedure ops, loss.

    Runs through the streaming engine: one pass over the reader, no
    record or op list materialized, so ``.rtb.gz`` traces far larger
    than RAM summarize in bounded memory.  The tallies are exact — the
    push-based pairer accounts loss identically to the batch pairer.
    """
    engine = StreamEngine()
    tally = engine.register(StreamStats())
    with TraceReader(args.trace) as reader:
        results = engine.run(reader)
    if tally.records == 0:
        raise ValueError(f"no records in {args.trace}")
    stats = results["pairing"]
    calls, replies = tally.calls, tally.replies
    paired, errors = tally.paired, tally.errors
    first, last = tally.first, tally.last
    if args.json:
        payload = {
            "trace": args.trace,
            "records": tally.records,
            "first_time": first,
            "last_time": last,
            "span_seconds": last - first,
            "clients": len(tally.clients),
            "calls": dict(sorted(calls.items())),
            "replies": dict(sorted(replies.items())),
            "paired": dict(sorted(paired.items())),
            "errors": dict(sorted(errors.items())),
            "orphan_replies": stats.orphan_replies,
            "unanswered_calls": stats.unanswered_calls,
            "duplicate_replies": stats.duplicate_replies,
            "estimated_loss_rate": stats.estimated_loss_rate,
        }
        if args.metrics:
            fault_rows, retransmits = _fault_stats_report(args.metrics)
            payload["faults_injected"] = [
                {"fault": fault, "kind": kind, "where": where, "count": count}
                for fault, kind, where, count in fault_rows
            ]
            payload["client_retransmits"] = retransmits
            pool = _pool_stats_report(args.metrics)
            if pool is not None:
                payload["analysis_pool"] = pool
            fanout = _sim_stats_report(args.metrics)
            if fanout is not None:
                payload["simulation_fanout"] = fanout
        print(json.dumps(payload, indent=2))
        return 0
    rows = [
        [proc, calls[proc], replies.get(proc, 0), paired.get(proc, 0),
         errors.get(proc, 0)]
        for proc in sorted(set(calls) | set(replies))
    ]
    rows.append(["total", sum(calls.values()), sum(replies.values()),
                 sum(paired.values()), sum(errors.values())])
    print(format_table(
        ["Procedure", "Calls", "Replies", "Paired", "Errors"],
        rows,
        title=f"Stats of {args.trace}",
    ))
    print()
    print(format_table(
        ["Metric", "Value"],
        [
            ["Records", tally.records],
            ["Clients", len(tally.clients)],
            ["First timestamp", f"{first:.3f}"],
            ["Last timestamp", f"{last:.3f}"],
            ["Span (days)", f"{(last - first) / SECONDS_PER_DAY:.3f}"],
            ["Orphan replies", stats.orphan_replies],
            ["Unanswered calls", stats.unanswered_calls],
            ["Duplicate replies", stats.duplicate_replies],
            ["Estimated capture loss", f"{stats.estimated_loss_rate:.3%}"],
        ],
    ))
    if args.metrics:
        fault_rows, retransmits = _fault_stats_report(args.metrics)
        print()
        if fault_rows:
            total = sum(row[3] for row in fault_rows)
            print(format_table(
                ["Fault", "Kind", "Where", "Count"],
                fault_rows + [["total", "", "", total]],
                title=f"Injected faults ({args.metrics})",
            ))
        else:
            print(f"no fault-injection samples in {args.metrics}")
        print(f"client retransmissions: {retransmits}")
        pool = _pool_stats_report(args.metrics)
        if pool is not None:
            rows = [
                ["Pool jobs", pool["jobs"]],
                ["Chunks", pool["chunks"]],
                ["Pool utilization", f"{pool['utilization']:.1%}"],
                ["Records fanned out", pool["records"]],
                ["Ops merged", pool["ops"]],
            ]
            if "chunk_wall_seconds_total" in pool:
                rows.append([
                    "Chunk wall (total s)",
                    f"{pool['chunk_wall_seconds_total']:.3f}",
                ])
                rows.append([
                    "Chunk wall (mean s)",
                    f"{pool['chunk_wall_seconds_mean']:.4f}",
                ])
            print()
            print(format_table(
                ["Fan-out", "Value"], rows,
                title=f"Analysis fan-out ({args.metrics})",
            ))
        fanout = _sim_stats_report(args.metrics)
        if fanout is not None:
            rows = [
                ["Shards", fanout["shards"]],
                ["Client groups", fanout["groups"]],
                ["Merge utilization", f"{fanout['utilization']:.1%}"],
                ["Records merged", fanout["records"]],
            ]
            if "shard_wall_seconds_total" in fanout:
                rows.append([
                    "Shard wall (total s)",
                    f"{fanout['shard_wall_seconds_total']:.3f}",
                ])
                rows.append([
                    "Shard wall (mean s)",
                    f"{fanout['shard_wall_seconds_mean']:.4f}",
                ])
            if "merge_seconds" in fanout:
                rows.append([
                    "Merge wall (s)", f"{fanout['merge_seconds']:.3f}",
                ])
            print()
            print(format_table(
                ["Fan-out", "Value"], rows,
                title=f"Simulation fan-out ({args.metrics})",
            ))
    return 0


def cmd_anonymize(args) -> int:
    """Anonymize a trace file (optionally with persistent mappings)."""
    rules = omit_rules() if args.omit else default_rules()
    anonymizer = Anonymizer(key=args.key, rules=rules)
    mapping_path = Path(args.mappings) if args.mappings else None
    if mapping_path is not None and mapping_path.exists():
        anonymizer.import_mappings(json.loads(mapping_path.read_text()))
    count = 0
    with _trace_out(args.out) as writer:
        with TraceReader(args.input) as reader:
            for record in reader:
                writer.write(anonymizer.anonymize_record(record))
                count += 1
    if mapping_path is not None:
        mapping_path.write_text(json.dumps(anonymizer.export_mappings()))
    print(f"anonymized {count} records -> {args.out}")
    return 0


def _require_ops(ops, path) -> None:
    """The error every batch command gives a trace where nothing pairs."""
    if not ops:
        raise ValueError(f"no pairable operations in {path}")


def _stream_trace(path, analyses, *, metrics=None, spans=None):
    """One engine pass over a trace file with ``analyses`` registered;
    ``(results, engine)``, erroring when nothing pairs."""
    engine = StreamEngine(metrics=metrics, spans=spans)
    for analysis in analyses:
        engine.register(analysis)
    with TraceReader(path) as reader:
        results = engine.run(reader)
    if results["pairing"].paired == 0:
        raise ValueError(f"no pairable operations in {path}")
    return results, engine


def _window(args, ops=None):
    """The analysis window ``(start, end)`` of ``--start``/``--end``.

    Given call-time-ordered ``ops``, an unset bound defaults to the
    first call time or just past the last; without them it stays None.
    A window that is empty once the defaults apply is an error naming
    the flags, raised before the command prints anything.
    """
    start, end = args.start, args.end
    if ops:
        start = start if start is not None else ops[0].time
        end = end if end is not None else ops[-1].time + 1e-6
    if start is not None and end is not None and start >= end:
        first = "" if args.start is not None else " (the first call)"
        last = "" if args.end is not None else " (just past the last call)"
        raise ValueError(
            f"empty window: --start {start!r}{first} must be below "
            f"--end {end!r}{last}"
        )
    return start, end


def _summary_text(input_path, s, stats) -> str:
    return format_table(
        ["Metric", "Value"],
        [
            ["Window (days)", f"{s.days:.3f}"],
            ["Total ops", s.total_ops],
            ["Ops/day", f"{s.ops_per_day:,.0f}"],
            ["Read ops/day", f"{s.read_ops_per_day:,.0f}"],
            ["Write ops/day", f"{s.write_ops_per_day:,.0f}"],
            ["GB read/day", f"{s.gb_read_per_day:.4f}"],
            ["GB written/day", f"{s.gb_written_per_day:.4f}"],
            ["R/W bytes ratio", f"{s.rw_byte_ratio:.3f}"],
            ["R/W ops ratio", f"{s.rw_op_ratio:.3f}"],
            ["Metadata fraction", f"{s.metadata_fraction:.3f}"],
            ["Estimated capture loss", f"{stats.estimated_loss_rate:.3%}"],
        ],
        title=f"Summary of {input_path}",
    )


def _batch_runs_table(ops, start, end, window_ms, jumps):
    data = [
        op for op in ops
        if start <= op.time < end and (op.is_read() or op.is_write())
    ]
    data = reorder_window_sort(data, window_ms / 1000.0)
    return classify_runs(
        RunBuilder().feed_all(data).finish(), jump_blocks=jumps
    )


def _runs_text(input_path, table, window_ms, jumps) -> str:
    body = format_table(
        ["Access pattern", "%"],
        [[label, f"{value:.1f}"] for label, value in table.as_rows()],
        title=(
            f"Run patterns of {input_path} "
            f"(window {window_ms:g}ms, jumps<{jumps})"
        ),
    )
    return f"{body}\ntotal runs: {table.total_runs}"


def cmd_summary(args) -> int:
    """Print a Table 2-style summary: ``analyze --stream``'s summary
    section, from one bounded-memory pass on the streaming engine."""
    _window(args)
    results, _engine = _stream_trace(
        args.input, [StreamSummary(start=args.start, end=args.end)]
    )
    print(_summary_text(args.input, results["summary"], results["pairing"]))
    return 0


def cmd_runs(args) -> int:
    """Print a Table 3-style run classification: ``analyze --stream``'s
    runs section, from one bounded-memory pass on the streaming engine."""
    _window(args)
    results, _engine = _stream_trace(args.input, [_stream_runs(args)])
    print(_runs_text(args.input, results["runs"], args.window_ms, args.jumps))
    return 0


def _stream_runs(args) -> StreamRuns:
    """The run analysis ``runs`` and ``analyze --stream`` register."""
    return StreamRuns(window=args.window_ms / 1000.0, jump_blocks=args.jumps,
                      start=args.start, end=args.end)


def cmd_lifetimes(args) -> int:
    """Print Table 4 numbers and a Figure 3-style CDF."""
    ops, _stats = pair_trace(args.input)
    _require_ops(ops, args.input)
    phase1_start = args.phase1_start
    phase2_end = (
        args.phase2_end if args.phase2_end is not None else ops[-1].time
    )
    phase1_end = (
        args.phase1_end
        if args.phase1_end is not None
        else phase1_start + (phase2_end - phase1_start) / 2
    )
    analyzer = BlockLifetimeAnalyzer(phase1_start, phase1_end, phase2_end)
    analyzer.observe_all(ops)
    report = analyzer.report()
    rows = [
        ["Total births", report.total_births],
        ["  by write", f"{report.birth_fraction(BIRTH_WRITE):.1%}"],
        ["  by extension", f"{report.birth_fraction(BIRTH_EXTENSION):.1%}"],
        ["Total deaths", report.total_deaths],
        ["  by overwrite", f"{report.death_fraction(DEATH_OVERWRITE):.1%}"],
        ["  by truncate", f"{report.death_fraction(DEATH_TRUNCATE):.1%}"],
        ["  by deletion", f"{report.death_fraction(DEATH_DELETE):.1%}"],
        ["End surplus", f"{report.end_surplus_fraction:.1%}"],
    ]
    median = report.median_lifetime()
    if median is not None:
        rows.append(["Median lifetime (s)", f"{median:.2f}"])
    print(format_table(["Statistic", "Value"], rows,
                       title=f"Block lifetimes of {args.input}"))
    cdf = report.lifetime_cdf([1, 30, 300, 3600, 86400])
    print()
    print(format_table(
        ["Lifetime <=", "cum %"],
        [[f"{int(p)}s", f"{pct:.1f}"] for p, pct in cdf],
        title="Lifetime CDF",
    ))
    return 0


def _report_text(input_path, ops, start, end, summary=None) -> str:
    c = characterize(ops, start, end, summary=summary)
    rows = [
        ["Dominant call type", c.dominant_call_type()],
        ["Metadata fraction", f"{c.metadata_fraction:.1%}"],
        ["Read/write balance", c.read_write_balance()],
        ["R/W bytes ratio", f"{c.rw_byte_ratio:.2f}"],
        ["Mailbox byte share", f"{c.mailbox_byte_share:.1%}"],
        ["Lock file share (unique files)", f"{c.lock_file_share:.1%}"],
        ["Mailbox file share (unique files)", f"{c.mailbox_file_share:.1%}"],
        [
            "Median block lifetime (s)",
            f"{c.median_block_lifetime:.2f}" if c.median_block_lifetime else "-",
        ],
        ["Blocks dead within 1s", f"{c.fraction_blocks_dead_within_1s:.1%}"],
        ["Dominant death cause", c.dominant_death_cause()],
        ["Peak variance reduction", f"{c.peak_variance_reduction:.2f}x"],
    ]
    return format_table(["Characteristic", "Value"], rows,
                        title=f"Characterization of {input_path}")


def cmd_report(args) -> int:
    """Print the full Table 1-style characterization."""
    _window(args)
    ops, _stats = pair_trace(args.input)
    _require_ops(ops, args.input)
    start, end = _window(args, ops)
    print(_report_text(args.input, ops, start, end))
    return 0


def cmd_analyze(args) -> int:
    """Run the whole analysis suite off one pairing pass.

    Pairing is the expensive part, so it happens exactly once, via
    :func:`repro.analysis.parallel.parallel_pair`: at ``--jobs 1`` the
    serial pass every batch command reads
    (:func:`~repro.analysis.pairing.pair_trace`), at ``--jobs N`` the
    same ops fanned over N worker processes.  The call-ordered
    operation list feeds the summary, run-pattern, and
    characterization reports; the characterization reuses the printed
    summary.  Output is byte-identical for every ``--jobs`` value.
    """
    from repro.analysis.parallel import parallel_pair

    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    _window(args)
    if args.stream:
        return _cmd_analyze_stream(args)
    metrics = MetricsRegistry()
    spans, span_sink = _analysis_spans(args, metrics)
    try:
        ops, stats = parallel_pair(
            args.input, jobs=args.jobs, metrics=metrics, spans=spans
        )
        _require_ops(ops, args.input)
        start, end = _window(args, ops)
        summary = summarize_trace(ops, start, end)
        print(_summary_text(args.input, summary, stats))
        print()
        table = _batch_runs_table(ops, start, end, args.window_ms, args.jumps)
        print(_runs_text(args.input, table, args.window_ms, args.jumps))
        print()
        print(_report_text(args.input, ops, start, end, summary))
    finally:
        spans_emitted = _finish_analysis_spans(spans, span_sink)
    if spans_emitted is not None:
        print(f"\nwrote {spans_emitted} pairer spans to {args.spans_out}")
    _write_metrics(args.metrics_out, metrics)
    return 0


def _analysis_spans(args, metrics):
    """The buffered pairer-span recorder for analyze, or ``(None, None)``.

    Buffering matters: spans are sorted canonically at close, so the
    exported stream is byte-identical whether pairing ran serially,
    chunked over ``--jobs N``, or through ``--stream``.
    """
    rate = getattr(args, "trace_sample", 0.0)
    spans_out = getattr(args, "spans_out", None)
    if rate <= 0:
        if spans_out:
            raise ValueError("--spans-out requires --trace-sample > 0")
        return None, None
    if not spans_out:
        raise ValueError("analyze --trace-sample requires --spans-out")
    sink = EventLog(spans_out)
    recorder = SpanRecorder(sink, sample=rate, buffered=True, metrics=metrics)
    return recorder, sink


def _finish_analysis_spans(spans, sink) -> int | None:
    """Flush and close an analysis span recorder; returns the count."""
    if spans is None:
        return None
    emitted = spans.close()
    sink.close()
    return emitted


def _write_metrics(path, metrics) -> None:
    if not path:
        return
    if path.endswith(".prom"):
        Path(path).write_text(to_prom_text(metrics))
    else:
        Path(path).write_text(json.dumps(metrics.snapshot(), indent=2) + "\n")


def _cmd_analyze_stream(args) -> int:
    """``repro analyze --stream``: the one-pass bounded-memory suite.

    Its summary and runs sections are ``repro summary``'s and ``repro
    runs``' text (all three see ops in completion order).  Batch
    ``analyze`` reads them in call-time order: its summary section
    always agrees, its runs section when the window covers the reorder
    delays.  Sketch-backed streaming extras replace the
    characterization, inherently a multi-structure batch computation.
    """
    metrics = MetricsRegistry()
    spans, span_sink = _analysis_spans(args, metrics)
    top = StreamTopFiles()
    latency = StreamLatency()
    try:
        results, engine = _stream_trace(
            args.input,
            [StreamSummary(start=args.start, end=args.end),
             _stream_runs(args), top, latency],
            metrics=metrics, spans=spans,
        )
    finally:
        spans_emitted = _finish_analysis_spans(spans, span_sink)
    stats = results["pairing"]
    print(_summary_text(args.input, results["summary"], stats))
    print()
    print(_runs_text(args.input, results["runs"], args.window_ms, args.jumps))
    print()
    top_rows = [
        [fh, f"{int(count):,}", f"<= {int(error):,}"]
        for fh, count, error in top.by_ops.top(5)
    ]
    print(format_table(
        ["File handle", "Ops", "Count error"],
        top_rows,
        title=f"Hot files of {args.input} (space-saving sketch)",
    ))
    lat = latency.result()
    print()
    print(format_table(
        ["Latency", "Value"],
        [
            ["p50 (ms)", f"{(lat['quantiles'][0.5] or 0.0) * 1000:.3f}"],
            ["p99 (ms)", f"{(lat['quantiles'][0.99] or 0.0) * 1000:.3f}"],
            ["mean (ms)", f"{lat['mean'] * 1000:.3f}"],
            ["max (ms)", f"{lat['max'] * 1000:.3f}"],
        ],
        title="Reply latency (P2 estimates)",
    ))
    print(f"\npeak streaming state: {engine.peak_items:,} items")
    if spans_emitted is not None:
        print(f"wrote {spans_emitted} pairer spans to {args.spans_out}")
    _write_metrics(args.metrics_out, metrics)
    return 0


def cmd_names(args) -> int:
    """Print name-category census and prediction accuracies."""
    from repro.analysis.names import NameCategoryAnalyzer

    ops, _stats = pair_trace(args.input)
    _require_ops(ops, args.input)
    analyzer = NameCategoryAnalyzer().observe_all(ops)
    census = analyzer.category_census()
    total = sum(census.values()) or 1
    print(
        format_table(
            ["Category", "Files", "Share"],
            [
                [category, count, f"{count / total:.1%}"]
                for category, count in census.most_common()
            ],
            title=f"Name categories in {args.input}",
        )
    )
    dead = analyzer.created_and_deleted()
    if dead:
        lock_share = analyzer.category_share("lock", dead)
        print(f"\nfiles created+deleted in trace: {len(dead)} "
              f"({lock_share:.0%} locks)")
    print()
    rows = []
    for attribute in ("size", "lifetime", "pattern"):
        result = analyzer.predict(attribute)
        rows.append(
            [
                attribute,
                f"{result.name_based_accuracy:.0%}",
                f"{result.baseline_accuracy:.0%}",
                result.test_files,
            ]
        )
    print(
        format_table(
            ["Attribute", "Name-based accuracy", "Baseline", "Test files"],
            rows,
            title="Prediction from filenames",
        )
    )
    return 0


def cmd_scenarios(args) -> int:
    """List, show, or validate workload scenarios."""
    from repro.scenarios import ScenarioSpec, get_scenario

    if args.action == "list":
        rows = []
        payload = []
        for name in scenario_names():
            spec = get_scenario(name)
            kind = spec.model.kind if spec.model is not None else "flowops"
            rows.append([
                name, kind, spec.default_users(), len(spec.flowops) or "-",
                spec.title or "-",
            ])
            payload.append({
                "name": name, "kind": kind,
                "users": spec.default_users(),
                "flowops": len(spec.flowops), "title": spec.title,
            })
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(format_table(
                ["Name", "Kind", "Users", "Flowops", "Title"], rows,
                title="Scenario library",
            ))
            print("\nrun one with: repro simulate --scenario NAME "
                  "--days 1 --out trace.txt")
        return 0
    if args.ref is None and args.action == "show":
        raise ValueError("scenarios show needs a scenario name or file")
    if args.action == "show":
        print(load_scenario(args.ref).spec())
        return 0
    # validate: one reference, or the whole library when none is given
    refs = [args.ref] if args.ref is not None else scenario_names()
    results = []
    for ref in refs:
        spec = load_scenario(ref)
        # the round-trip contract is part of "valid": canonical text
        # must re-parse to an equal object
        reparsed = ScenarioSpec.parse(spec.spec())
        if reparsed != spec:
            raise ValueError(
                f"scenario {spec.name!r} fails the round-trip contract"
            )
        results.append(spec)
    if args.json:
        print(json.dumps(
            [{"name": s.name, "clauses": len(s.clauses), "valid": True}
             for s in results], indent=2,
        ))
    else:
        for spec in results:
            print(f"{spec.name}: ok ({len(spec.clauses)} clauses)")
    return 0


def cmd_characterize(args) -> int:
    """Fit a scenario-spec skeleton to a trace (the synthetic twin)."""
    from repro.scenarios import fit_scenario

    ops, _stats = pair_trace(args.input)
    _require_ops(ops, args.input)
    spec = fit_scenario(ops, name=args.name)
    text = spec.spec() + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote scenario {spec.name!r} ({len(spec.clauses)} clauses, "
              f"fitted from {len(ops)} ops) to {args.out}")
        print(f"simulate it with: repro simulate --scenario {args.out} "
              f"--days 1 --out twin.txt")
    else:
        print(text, end="")
    return 0


def cmd_ingest(args) -> int:
    """Ingest a foreign trace archive through a registered adapter.

    ``--format auto`` sniffs the head lines against every adapter in
    the registry (works on stdin too — the head is buffered and
    replayed); an explicit ``--format`` must name a registered adapter.
    The output is deterministic: the same input produces byte-identical
    ``.rtb``/``.rtb.gz`` whether it came from a file or ``--in -``.
    """
    from repro.ingest import ingest

    if args.input != "-" and not Path(args.input).is_file():
        raise FileNotFoundError(f"trace not found: {args.input}")
    metrics = MetricsRegistry() if args.metrics_out else None
    stats = ingest(
        args.input,
        args.out,
        fmt=args.format,
        on_error=args.on_error,
        window=args.reorder_window,
        metrics=metrics,
    )
    if args.metrics_out:
        _write_metrics(args.metrics_out, metrics)
    skipped = (
        f", {stats.skipped} skipped" if stats.skipped else ""
    )
    print(
        f"ingested {stats.records} records from {stats.lines} "
        f"{stats.adapter} line(s){skipped} -> {args.out}"
    )
    return 0


def cmd_convert(args) -> int:
    """Convert between trace formats.

    nfsdump captures are imported through the ingest pipeline's
    ``nfsdump`` adapter (``repro ingest`` is the general form — this
    alias survives for scripts); native traces are transcoded
    record-for-record.  ``--from auto`` takes a binary suffix as
    native and otherwise asks the nfsdump adapter's sniffer.  ``--out``
    picks the container: ``.rtb``/``.rtb.gz`` binary, anything else
    text.
    """
    from repro.ingest import REGISTRY, ingest

    if not Path(args.input).is_file():
        # one message for a missing input, whichever branch reads it
        raise FileNotFoundError(f"trace not found: {args.input}")
    source_format = args.source_format
    if source_format == "auto":
        source_format = "native"
        if not is_binary_trace_path(args.input):
            try:
                if REGISTRY.get("nfsdump").sniff(args.input) > 0.0:
                    source_format = "nfsdump"
            except (EOFError, OSError, zlib.error):
                pass  # unreadable head: the native reader names the fault
    if source_format == "nfsdump":
        stats = ingest(args.input, args.out, fmt="nfsdump")
        print(
            f"converted {stats.records} of {stats.lines} lines "
            f"({stats.skipped} skipped) -> {args.out}"
        )
        return 0
    with _trace_out(args.out) as writer:
        with TraceReader(args.input) as reader:
            for record in reader:
                writer.write(record)
        writer.close()  # the count is final once closed
        if writer.records_written == 0:
            raise ValueError(f"no records in {args.input}")
    print(f"converted {writer.records_written} records -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
