"""The ``repro`` command-line entry point.

Subcommands are thin wrappers over the library; all heavy lifting
lives in :mod:`repro.workloads`, :mod:`repro.anonymize`, and
:mod:`repro.analysis`, so everything the CLI does is equally available
programmatically.

Each command imports only what it runs.  This module holds the parser
and the analysis commands (``analyze`` in every mode, ``summary``,
``runs``, ``report``, ``lifetimes`` and ``names``), which are short,
run often, and need nothing else.  The other families live in their
own modules, imported when one of their commands runs: simulate,
watch and monitor in :mod:`repro.cli.simulate`; ingest, convert and
anonymize in :mod:`repro.cli.ingest`; scenarios and characterize in
:mod:`repro.cli.scenarios`; query and stats in :mod:`repro.cli.query`.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.analysis import parallel
from repro.analysis.characterize import characterize
from repro.analysis.lifetimes import (
    BIRTH_EXTENSION,
    BIRTH_WRITE,
    DEATH_DELETE,
    DEATH_OVERWRITE,
    DEATH_TRUNCATE,
    BlockLifetimeAnalyzer,
)
from repro.analysis.names import NameCategoryAnalyzer
from repro.analysis.pairing import pair_trace
from repro.analysis.reorder import reorder_window_sort
from repro.analysis.runs import RunBuilder, classify_runs
from repro.analysis.summary import summarize_trace
from repro.cli.common import require_ops, summary_text, write_metrics
from repro.errors import ReproError
from repro.obs import EventLog, MetricsRegistry, SpanRecorder, paused_gc
from repro.report import format_table
from repro.simcore.clock import SECONDS_PER_HOUR
from repro.stream import (
    StreamEngine,
    StreamLatency,
    StreamRuns,
    StreamSummary,
    StreamTopFiles,
)
from repro.trace import TraceReader


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
    sim.set_defaults(func=_family("simulate", "cmd_simulate"))

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
    watch.set_defaults(func=_family("simulate", "cmd_watch"))

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
    monitor.set_defaults(func=_family("simulate", "cmd_monitor"))

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
    query.set_defaults(func=_family("query", "cmd_query"))

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
    stats.set_defaults(func=_family("query", "cmd_stats"))

    anon = sub.add_parser("anonymize", help="anonymize a trace for sharing")
    anon.add_argument("--key", type=int, required=True,
                      help="site secret; reuse it for consistent multi-file output")
    anon.add_argument("--omit", action="store_true",
                      help="drop names/UIDs/GIDs/IPs entirely")
    anon.add_argument("--mappings", default=None,
                      help="JSON file to load/store mapping tables")
    anon.add_argument("--in", dest="input", required=True)
    anon.add_argument("--out", required=True)
    anon.set_defaults(func=_family("ingest", "cmd_anonymize"))

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
                              "results are identical for every value "
                              "(ignored with --stream, which is one pass)")
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
    scen.set_defaults(func=_family("scenarios", "cmd_scenarios"))

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
    char.set_defaults(func=_family("scenarios", "cmd_characterize"))

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
    convert.set_defaults(func=_family("ingest", "cmd_convert"))

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
    ing.set_defaults(func=_family("ingest", "cmd_ingest"))

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


def _family(module: str, command: str):
    """The ``func`` of a command in another family: it imports
    ``repro.cli.<module>`` when the command runs, not at start-up."""

    def run(args) -> int:
        family = importlib.import_module(f"repro.cli.{module}")
        return getattr(family, command)(args)

    return run


# -- the analysis commands -------------------------------------------------------


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
    print(summary_text(args.input, results["summary"], results["pairing"]))
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
    require_ops(ops, args.input)
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
    require_ops(ops, args.input)
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
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    _window(args)
    if args.stream:
        return _cmd_analyze_stream(args)
    metrics = MetricsRegistry()
    spans, span_sink = _analysis_spans(args, metrics)
    try:
        # looked up as it runs: the name may be wrapped after import
        ops, stats = parallel.parallel_pair(
            args.input, jobs=args.jobs, metrics=metrics, spans=spans
        )
        require_ops(ops, args.input)
        start, end = _window(args, ops)
        # like pairing, the analyses allocate many objects and leave no
        # reference cycles, so collections would only rescan the ops
        with paused_gc():
            summary = summarize_trace(ops, start, end)
            print(summary_text(args.input, summary, stats))
            print()
            table = _batch_runs_table(ops, start, end, args.window_ms,
                                      args.jumps)
            print(_runs_text(args.input, table, args.window_ms, args.jumps))
            print()
            print(_report_text(args.input, ops, start, end, summary))
    finally:
        spans_emitted = _finish_analysis_spans(spans, span_sink)
    if spans_emitted is not None:
        print(f"\nwrote {spans_emitted} pairer spans to {args.spans_out}")
    write_metrics(args.metrics_out, metrics)
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
    print(summary_text(args.input, results["summary"], stats))
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
    write_metrics(args.metrics_out, metrics)
    return 0


def cmd_names(args) -> int:
    """Print name-category census and prediction accuracies."""
    ops, _stats = pair_trace(args.input)
    require_ops(ops, args.input)
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


if __name__ == "__main__":
    sys.exit(main())
