"""Bounded-memory streaming analysis (``repro watch``, ``analyze --stream``).

Three layers:

* :mod:`~repro.stream.operators` — one-pass primitives (space-saving
  top-K, reservoir sampling, P² quantiles, Welford stats, tumbling and
  sliding time windows, exponential-decay rates), each with a memory
  bound fixed at construction;
* :mod:`~repro.stream.engine` — :class:`StreamEngine` fans one record
  pass (a :class:`~repro.trace.TraceReader` or a live collector tap)
  into N registered :class:`StreamAnalysis` instances, pairing on the
  fly and flushing windows by watermark;
* :mod:`~repro.stream.analyses` — streaming ports of the headline
  analyses, exact where the batch computation is order-insensitive and
  within documented sketch error elsewhere (see ``docs/STREAMING.md``).

:mod:`~repro.stream.live` adds :class:`LiveWatch`, which drives the
engine from a running simulation and renders periodic snapshots;
:mod:`~repro.stream.monitor` adds the loopback :class:`MonitorServer`
it publishes ``/metrics`` and ``/spans`` to in the ``repro monitor``
daemon.
"""

from repro._lazy import lazy_exports

__all__ = [
    "StreamAnalysis",
    "StreamEngine",
    "LIFETIME_BUCKET_BOUNDS",
    "StreamLatency",
    "StreamLifetimeReport",
    "StreamLifetimes",
    "StreamRates",
    "StreamRuns",
    "StreamStats",
    "StreamSummary",
    "StreamTopFiles",
    "LiveWatch",
    "MonitorServer",
    "ExpDecayRate",
    "P2Quantile",
    "ReservoirSample",
    "RunningStats",
    "SlidingWindow",
    "SpaceSaving",
    "TumblingWindow",
    "fold_stream",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "engine": ("StreamAnalysis", "StreamEngine"),
    "analyses": ("LIFETIME_BUCKET_BOUNDS", "StreamLatency",
                 "StreamLifetimeReport", "StreamLifetimes", "StreamRates",
                 "StreamRuns", "StreamStats", "StreamSummary",
                 "StreamTopFiles"),
    "live": ("LiveWatch",),
    "monitor": ("MonitorServer",),
    "operators": ("ExpDecayRate", "P2Quantile", "ReservoirSample",
                  "RunningStats", "SlidingWindow", "SpaceSaving",
                  "TumblingWindow", "fold_stream"),
})
