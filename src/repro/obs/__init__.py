"""Observability for the simulator itself.

The paper's method is watching a system from the outside; this package
lets you watch the *simulator* the same way.  Five zero-dependency
pieces:

* :mod:`repro.obs.metrics` — :class:`Counter`, :class:`Gauge`,
  :class:`Histogram` (fixed log-scale buckets), and the
  :class:`MetricsRegistry` every simulated component registers into
  (``server.*``, ``client.*``, ``mirror.*``, ``loop.*``, ``trace.*``).
* :mod:`repro.obs.promtext` — Prometheus-style text exposition plus a
  parser, so snapshots are diffable across runs.
* :mod:`repro.obs.eventlog` — a structured JSON-lines event stream.
* :mod:`repro.obs.spans` — operation-level span tracing: stable
  hash-derived trace IDs, deterministic hash-ratio sampling (zero RNG
  draws), one span per pipeline hop.
* :mod:`repro.obs.rotate` — size/age segment rotation with retention
  for long-running capture (``repro monitor``).
* :mod:`repro.obs.timers` — wall-clock phase timers for benchmarks and
  the CLI.
* :mod:`repro.obs.gcpause` — cyclic-GC suspension for the
  allocation-heavy simulate/pair phases.

See ``docs/OBSERVABILITY.md`` for the metric namespace and examples.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "EventLog",
    "PhaseTimer",
    "DEFAULT_TIME_BUCKETS",
    "HOPS",
    "RotatingEventLog",
    "RotatingTraceWriter",
    "RotationPolicy",
    "SpanRecorder",
    "escape_label_value",
    "format_sample_name",
    "prom_name",
    "list_segments",
    "log_buckets",
    "partial_segments",
    "parse_prom_text",
    "paused_gc",
    "sample_decision",
    "span_id",
    "to_prom_text",
    "trace_id",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "eventlog": ("EventLog",),
    "gcpause": ("paused_gc",),
    "metrics": ("DEFAULT_TIME_BUCKETS", "Counter", "Gauge", "Histogram",
                "MetricsRegistry", "format_sample_name", "log_buckets"),
    "promtext": ("escape_label_value", "parse_prom_text", "prom_name",
                 "to_prom_text"),
    "rotate": ("RotatingEventLog", "RotatingTraceWriter", "RotationPolicy",
               "list_segments", "partial_segments"),
    "spans": ("HOPS", "SpanRecorder", "sample_decision", "span_id",
              "trace_id"),
    "timers": ("PhaseTimer",),
})
