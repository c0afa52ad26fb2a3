"""``repro ingest``, ``convert`` and ``anonymize``: traces in, traces out.

``ingest`` and ``convert`` import :mod:`repro.ingest`, whose import
builds the adapter registry, when they run, and look ``ingest`` up
there as they call it (it may be wrapped after start-up);
``anonymize`` needs only the anonymizer and the native reader and
writer.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from repro.anonymize import Anonymizer, default_rules
from repro.anonymize.rules import omit_rules
from repro.cli.common import trace_out, write_metrics
from repro.obs import MetricsRegistry
from repro.trace import TraceReader, is_binary_trace_path


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
        write_metrics(args.metrics_out, metrics)
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
    with trace_out(args.out) as writer:
        with TraceReader(args.input) as reader:
            for record in reader:
                writer.write(record)
        writer.close()  # the count is final once closed
        if writer.records_written == 0:
            raise ValueError(f"no records in {args.input}")
    print(f"converted {writer.records_written} records -> {args.out}")
    return 0


def cmd_anonymize(args) -> int:
    """Anonymize a trace file (optionally with persistent mappings)."""
    rules = omit_rules() if args.omit else default_rules()
    anonymizer = Anonymizer(key=args.key, rules=rules)
    mapping_path = Path(args.mappings) if args.mappings else None
    if mapping_path is not None and mapping_path.exists():
        anonymizer.import_mappings(json.loads(mapping_path.read_text()))
    count = 0
    with trace_out(args.out) as writer:
        with TraceReader(args.input) as reader:
            for record in reader:
                writer.write(anonymizer.anonymize_record(record))
                count += 1
    if mapping_path is not None:
        mapping_path.write_text(json.dumps(anonymizer.export_mappings()))
    print(f"anonymized {count} records -> {args.out}")
    return 0
