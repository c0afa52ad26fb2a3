"""The trace analysis toolkit — the paper's analytical contribution.

Every module consumes :class:`~repro.trace.record.TraceRecord` streams
(from :mod:`repro.trace`), so the analyses run identically on synthetic
traces from :mod:`repro.workloads` and on any real trace converted to
the format.

Pipeline building blocks:

* :mod:`pairing` — match calls to replies (and count what the mirror
  port lost, Section 4.1.4).
* :mod:`parallel` — chunked multiprocessing fan-out for decode+pair,
  with a deterministic boundary merge (``repro analyze --jobs N``).
* :mod:`hierarchy` — reconstruct the active file-system tree from
  lookup traffic (Section 4.1.1).
* :mod:`reorder` — the reorder-window sort and swapped-access
  measurement (Section 4.2, Figure 1).
* :mod:`runs` — run detection and entire/sequential/random
  classification (Section 4.2, Table 3).
* :mod:`size_patterns` — bytes-accessed-by-file-size curves (Figure 2).
* :mod:`lifetimes` — create-based block lifetime accounting
  (Section 5.2, Table 4, Figure 3).
* :mod:`activity` — hourly load and peak-hour variance (Section 6.2,
  Figure 4, Table 5).
* :mod:`sequentiality` — the block sequentiality metric (Section 6.4,
  Figure 5).
* :mod:`names` — filename-category attribute prediction (Section 6.3).
* :mod:`summary` — daily activity summaries (Table 2).
* :mod:`characterize` — the qualitative system comparison (Table 1).
"""

from repro._lazy import lazy_exports

__all__ = [
    "PairedOp",
    "pair_records",
    "pair_all",
    "pair_trace",
    "PairingStats",
    "StreamPairer",
    "ChunkSpec",
    "parallel_pair",
    "plan_chunks",
    "HierarchyReconstructor",
    "StreamReorderer",
    "reorder_window_sort",
    "swapped_fraction",
    "Run",
    "RunBuilder",
    "RunPatternTally",
    "classify_runs",
    "BlockLifetimeAnalyzer",
    "ActivityAnalyzer",
    "best_peak_window",
    "sequentiality_metric",
    "bytes_by_file_size",
    "summarize_trace",
    "TraceSummary",
    "NameCategoryAnalyzer",
    "Characterization",
    "characterize",
    "estimate_loss",
    "writeback_savings",
    "delegation_savings",
    "working_set_series",
    "cumulative_working_set",
    "block_cache_counterfactual",
    "infer_sessions",
    "survey_random_runs",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "pairing": ("PairedOp", "PairingStats", "StreamPairer", "pair_all",
                "pair_records", "pair_trace"),
    "parallel": ("ChunkSpec", "parallel_pair", "plan_chunks"),
    "hierarchy": ("HierarchyReconstructor",),
    "reorder": ("StreamReorderer", "reorder_window_sort", "swapped_fraction"),
    "runs": ("Run", "RunBuilder", "RunPatternTally", "classify_runs"),
    "lifetimes": ("BlockLifetimeAnalyzer",),
    "activity": ("ActivityAnalyzer", "best_peak_window"),
    "sequentiality": ("sequentiality_metric",),
    "size_patterns": ("bytes_by_file_size",),
    "summary": ("summarize_trace", "TraceSummary"),
    "names": ("NameCategoryAnalyzer",),
    "characterize": ("Characterization", "characterize"),
    "loss": ("estimate_loss",),
    "writeback": ("writeback_savings",),
    "delegation": ("delegation_savings",),
    "workingset": ("cumulative_working_set", "working_set_series"),
    "cache_model": ("block_cache_counterfactual",),
    "sessions": ("infer_sessions",),
    "patterns": ("survey_random_runs",),
})
