"""Time-varying load analysis (Section 6.2, Figure 4, Table 5).

Buckets operations by hour, producing the Figure 4 series (hourly op
counts and hourly read/write ratios across a week) and the Table 5
statistics: hourly means with standard deviations (expressed as a
percentage of the mean), for all hours and for the peak window
(9am-6pm weekdays), whose variance reduction is the section's point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.pairing import PairedOp
from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc
from repro.simcore.clock import SECONDS_PER_HOUR, is_peak_hour

_READ, _WRITE, _OK = NfsProc.READ, NfsProc.WRITE, NfsStatus.OK


@dataclass
class HourBucket:
    """Aggregates for one hour of trace."""

    start: float
    ops: int = 0
    read_ops: int = 0
    write_ops: int = 0
    read_bytes: int = 0
    write_bytes: int = 0

    @property
    def rw_op_ratio(self) -> float:
        """Read/write op ratio; inf when nothing was written."""
        if self.write_ops == 0:
            return math.inf if self.read_ops else 0.0
        return self.read_ops / self.write_ops


@dataclass
class HourlyStat:
    """Mean and stddev-as-%-of-mean for one metric (Table 5 cell)."""

    mean: float
    std_pct: float

    def __str__(self) -> str:
        return f"{self.mean:.4g} ({self.std_pct:.0f}%)"


@dataclass
class ActivityTable:
    """Table 5 for one trace: all-hours and peak-hours statistics."""

    all_hours: dict[str, HourlyStat]
    peak_hours: dict[str, HourlyStat]

    def variance_reduction(self, metric: str) -> float:
        """all-hours std% divided by peak std% (paper: >= 4 on CAMPUS)."""
        peak = self.peak_hours[metric].std_pct
        if peak == 0:
            return math.inf
        return self.all_hours[metric].std_pct / peak


class ActivityAnalyzer:
    """Buckets paired operations by hour of trace."""

    def __init__(self) -> None:
        self._buckets: dict[int, HourBucket] = {}

    def observe(self, op: PairedOp) -> None:
        """Feed one operation."""
        index = int(op.time // SECONDS_PER_HOUR)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = HourBucket(start=index * SECONDS_PER_HOUR)
            self._buckets[index] = bucket
        bucket.ops += 1
        if op.status is not _OK:
            return
        proc = op.proc
        if proc is _READ:
            bucket.read_ops += 1
            bucket.read_bytes += op.count or 0
        elif proc is _WRITE:
            bucket.write_ops += 1
            bucket.write_bytes += op.count or 0

    def observe_all(self, ops: Iterable[PairedOp]) -> "ActivityAnalyzer":
        """Feed a whole stream; returns self."""
        for op in ops:
            self.observe(op)
        return self

    def hourly_series(self, start: float, end: float) -> list[HourBucket]:
        """Figure 4: one bucket per hour in [start, end), zero-filled."""
        first = int(start // SECONDS_PER_HOUR)
        last = int(math.ceil(end / SECONDS_PER_HOUR))
        return [
            self._buckets.get(i, HourBucket(start=i * SECONDS_PER_HOUR))
            for i in range(first, last)
        ]

    def table5(
        self,
        start: float,
        end: float,
        *,
        peak_start_hour: int = 9,
        peak_end_hour: int = 18,
    ) -> ActivityTable:
        """Table 5: hourly averages ± stddev, all hours vs peak hours."""
        buckets = self.hourly_series(start, end)
        peak = [
            b
            for b in buckets
            if is_peak_hour(
                b.start, start_hour=peak_start_hour, end_hour=peak_end_hour
            )
        ]
        return ActivityTable(
            all_hours=_stats(buckets),
            peak_hours=_stats(peak),
        )


def best_peak_window(
    analyzer: ActivityAnalyzer,
    start: float,
    end: float,
    *,
    min_length: int = 6,
    max_length: int = 14,
    metric: str = "total_ops",
) -> tuple[int, int, float]:
    """Find the weekday window with the least normalized variance.

    Reproduces the Section 6.2 methodology: "We examined a range of
    possibilities for the peak hours for CAMPUS and found that using
    9am-6pm resulted in the least variance."  Sweeps all weekday
    windows of ``min_length``..``max_length`` hours and returns
    ``(start_hour, end_hour, std_pct)`` minimizing the stddev-as-%-of-
    mean of ``metric``.
    """
    buckets = analyzer.hourly_series(start, end)
    best: tuple[int, int, float] | None = None
    for length in range(min_length, max_length + 1):
        for start_hour in range(0, 24 - length + 1):
            end_hour = start_hour + length
            window = [
                b
                for b in buckets
                if is_peak_hour(b.start, start_hour=start_hour, end_hour=end_hour)
            ]
            if len(window) < 2:
                continue
            stat = _stats(window)[metric]
            if stat.mean <= 0:
                continue  # an idle window is trivially "low variance"
            if best is None or stat.std_pct < best[2]:
                best = (start_hour, end_hour, stat.std_pct)
    if best is None:
        return (9, 18, 0.0)
    return best


_METRICS = (
    ("total_ops", lambda b: float(b.ops)),
    ("read_mb", lambda b: b.read_bytes / 1e6),
    ("read_ops", lambda b: float(b.read_ops)),
    ("written_mb", lambda b: b.write_bytes / 1e6),
    ("write_ops", lambda b: float(b.write_ops)),
    ("rw_op_ratio", lambda b: b.rw_op_ratio),
)


def _stats(buckets: list[HourBucket]) -> dict[str, HourlyStat]:
    out: dict[str, HourlyStat] = {}
    for name, extract in _METRICS:
        values = [extract(b) for b in buckets]
        values = [v for v in values if math.isfinite(v)]
        if not values:
            out[name] = HourlyStat(mean=0.0, std_pct=0.0)
            continue
        mean = sum(values) / len(values)
        if len(values) > 1:
            var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            std = math.sqrt(var)
        else:
            std = 0.0
        out[name] = HourlyStat(
            mean=mean, std_pct=(100.0 * std / mean) if mean else 0.0
        )
    return out
