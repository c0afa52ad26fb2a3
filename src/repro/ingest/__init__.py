"""repro.ingest — pluggable foreign-trace adapters.

A :class:`TraceAdapter` turns one foreign archive dialect into the
repo's native :class:`~repro.trace.record.TraceRecord` stream; the
shared core (:mod:`repro.ingest.core`) then applies one normalization
pass — monotonic-time repair, string interning, skip/fail error
policy — and writes ``.rtb``/``.rtb.gz`` through the ordinary
:class:`~repro.trace.writer.TraceWriter`.  ``REGISTRY`` holds the four
built-in adapters; registering a fifth makes it reachable from
``repro ingest``, auto-sniffing, and the conformance test harness with
no further wiring.
"""

from __future__ import annotations

from repro.ingest.adapters import register_builtin
from repro.ingest.base import (
    RECORD_FIELDS,
    SNIFF_LINES,
    AdapterEvent,
    BadLine,
    TraceAdapter,
    XidSynth,
    synth_handle,
)
from repro.ingest.core import (
    DEFAULT_REORDER_WINDOW,
    IngestStats,
    ingest,
    normalize,
    open_lines,
)
from repro.ingest.registry import AdapterRegistry

#: The process-wide registry the CLI and tests discover adapters from.
REGISTRY = AdapterRegistry()
register_builtin(REGISTRY)


__all__ = [
    "AdapterEvent",
    "AdapterRegistry",
    "BadLine",
    "DEFAULT_REORDER_WINDOW",
    "IngestStats",
    "RECORD_FIELDS",
    "REGISTRY",
    "SNIFF_LINES",
    "TraceAdapter",
    "XidSynth",
    "ingest",
    "normalize",
    "open_lines",
    "synth_handle",
]
