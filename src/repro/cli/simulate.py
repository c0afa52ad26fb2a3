"""``repro simulate``, ``watch`` and ``monitor``: the simulator commands.

They import the simulator (workloads, scenarios, faults, the event
loop) and the segment writers; the analysis commands never load them.
``monitor --serve`` alone loads the HTTP server.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext

from repro.cli.common import summary_text, trace_out, write_metrics
from repro.faults import FaultSchedule
from repro.obs import (
    EventLog,
    MetricsRegistry,
    PhaseTimer,
    RotatingEventLog,
    RotatingTraceWriter,
    RotationPolicy,
)
from repro.scenarios import compile_workload, load_scenario
from repro.simcore.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.stream import (
    LiveWatch,
    StreamEngine,
    StreamLatency,
    StreamRates,
    StreamSummary,
    StreamTopFiles,
)
from repro.workloads import TracedSystem, run_sharded


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
    print(summary_text(f"{label} {args.system} simulation",
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
        with run, timer.phase("merge_write"):
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
            write_metrics(args.metrics_out, metrics)
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
        with trace_out(args.out) as writer:
            system.collector.sinks = [writer.write]
            with timer.phase("simulate"):
                system.run(end)
            with timer.phase("write_trace"):
                system.collector.flush()
                writer.close()
        count = writer.records_written
        write_metrics(args.metrics_out, system.metrics)
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
        with (trace_out(args.out) if args.out else nullcontext()) as writer:
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
    write_metrics(args.metrics_out, system.metrics)
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
        # the HTTP stack loads only for a daemon that serves
        from repro.stream.monitor import MonitorServer

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
        with run:
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
    print(summary_text(f"monitored {args.system} simulation",
                        results["summary"], results["pairing"]))
    print(
        f"\nsharded run: {run.shards} shard(s) over {run.groups} client "
        f"group(s), {engine.records:,} records streamed post-merge, "
        f"peak state {engine.peak_items:,} items"
    )
    _print_segment_report(writer, span_sink, spans_emitted, args)
    return 0


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
