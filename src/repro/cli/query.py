"""``repro query`` and ``repro stats``: segment queries and trace tallies.

``stats`` also renders the fault, pool and fan-out sections of a
``--metrics-out`` snapshot; ``query`` reads a monitor's rotated
segments.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.nfs.procedures import NfsProc
from repro.obs import list_segments, parse_prom_text, partial_segments
from repro.report import format_table
from repro.simcore.clock import SECONDS_PER_DAY
from repro.stream import StreamEngine, StreamStats
from repro.trace import TraceReader
from repro.trace.record import Direction


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
