"""Streaming ports of the headline analyses.

Each class here is a :class:`~repro.stream.engine.StreamAnalysis` that
reproduces a batch analysis in one bounded-memory pass:

* :class:`StreamSummary` — Table 2 daily activity.  **Exact**: it
  accumulates through the same :meth:`TraceSummary.add
  <repro.analysis.summary.TraceSummary.add>` the batch path uses, so
  totals are identical field-for-field; per-day sub-summaries flush
  through a tumbling window.
* :class:`StreamRuns` — Table 3 run patterns.  **Exact**: ops flow
  through :class:`~repro.analysis.reorder.StreamReorderer` (the one
  reorder pass) into a sink-mode :class:`~repro.analysis.runs.RunBuilder`
  and a shared :class:`~repro.analysis.runs.RunPatternTally`, so the
  table equals ``classify_runs`` on the batch pipeline fed the same
  op order.
* :class:`StreamLifetimes` — Table 4 / Figure 3 block lifetimes.
  Birth/death **counts are exact** (same create-based mechanics,
  inherited); the lifetime *distribution* is a fixed log-bucket
  histogram — exact at bucket edges, since both sides count
  ``lifetime <= edge`` — plus a P² median estimate; the per-file state
  table is capped, with evictions counted as censored.
* :class:`StreamStats` — the ``repro stats`` record/op tallies.
  **Exact** (all plain counters).
* :class:`StreamTopFiles` / :class:`StreamLatency` /
  :class:`StreamRates` — live-watch extras built on the sketch
  operators (space-saving, P², exponential decay); approximate with
  the error bounds documented in :mod:`repro.stream.operators`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from repro.analysis.lifetimes import BlockLifetimeAnalyzer, _FileState
from repro.analysis.pairing import PairedOp
from repro.analysis.reorder import StreamReorderer
from repro.analysis.runs import (
    DEFAULT_IDLE_GAP,
    RunBuilder,
    RunPatternTable,
    RunPatternTally,
)
from repro.analysis.summary import TraceSummary
from repro.obs.metrics import Histogram
from repro.simcore.clock import SECONDS_PER_DAY
from repro.stream.engine import StreamAnalysis
from repro.stream.operators import (
    ExpDecayRate,
    P2Quantile,
    RunningStats,
    SpaceSaving,
    TumblingWindow,
)
from repro.trace.record import TraceRecord


class StreamSummary(StreamAnalysis):
    """Online Table 2: exact totals plus per-day tumbling summaries.

    With ``start``/``end`` unset the window is learned from the data —
    ``[min(op.time), max(op.time) + 1e-6)`` — which is exactly the
    default the batch CLI uses, so the finished summary matches
    :func:`~repro.analysis.summary.summarize_trace` byte-for-byte.
    """

    name = "summary"

    def __init__(
        self,
        *,
        start: float | None = None,
        end: float | None = None,
        day_width: float = SECONDS_PER_DAY,
        lateness: float = 60.0,
        max_days: int = 4096,
    ) -> None:
        self.start = start
        self.end = end
        self.totals = TraceSummary(start=start or 0.0, end=end or 0.0)
        #: flushed (start, end, TraceSummary) per-day rows, in order
        self.daily: list[tuple[float, float, TraceSummary]] = []
        self._min = math.inf
        self._max = -math.inf
        self._days = TumblingWindow(
            day_width,
            lambda s, e: TraceSummary(start=s, end=e),
            sink=lambda s, e, acc: self.daily.append((s, e, acc)),
            lateness=lateness,
            max_open=max_days,
        )

    def process_op(self, op: PairedOp) -> None:
        time = op.time
        if self.start is not None and time < self.start:
            return
        if self.end is not None and time >= self.end:
            return
        if time < self._min:
            self._min = time
        if time > self._max:
            self._max = time
        self.totals.add(op)
        self._days.add(time, op)

    def advance(self, watermark: float) -> None:
        self._days.advance(watermark)

    def finish(self) -> None:
        self._days.finish()
        if self.totals.total_ops:
            self.totals.start = self.start if self.start is not None else self._min
            self.totals.end = self.end if self.end is not None else self._max + 1e-6
        elif self.start is not None and self.end is not None:
            self.totals.start, self.totals.end = self.start, self.end

    def result(self) -> TraceSummary:
        return self.totals

    def memory_items(self) -> int:
        return len(self._days)


class StreamRuns(StreamAnalysis):
    """Online Table 3: reorder → build runs → tally, all push-based.

    Memory: the reorder buffer spans one look-ahead window per client,
    open runs are bounded by concurrently-active files, and completed
    runs collapse into the (kind, pattern) tally immediately.
    """

    name = "runs"

    def __init__(
        self,
        *,
        window: float = 0.010,
        jump_blocks: int = 10,
        idle_gap: float = DEFAULT_IDLE_GAP,
        start: float | None = None,
        end: float | None = None,
    ) -> None:
        self.start = start
        self.end = end
        self.tally = RunPatternTally(jump_blocks=jump_blocks)
        self._builder = RunBuilder(idle_gap=idle_gap, sink=self.tally.add)
        self._reorderer = StreamReorderer(window, self._builder.feed)

    def process_op(self, op: PairedOp) -> None:
        if not (op.is_read() or op.is_write()):
            return
        time = op.time
        if self.start is not None and time < self.start:
            return
        if self.end is not None and time >= self.end:
            return
        self._reorderer.push(op)

    def finish(self) -> None:
        self._reorderer.close()
        self._builder.finish()

    def result(self) -> RunPatternTable:
        return self.tally.table()

    def memory_items(self) -> int:
        return self._reorderer.buffered() + self._builder.open_runs()


#: Lifetime histogram edges (seconds).  They include the CLI's CDF
#: points (1, 30, 300, 3600, 86400) so those cumulative fractions are
#: *exact*, not interpolated.
LIFETIME_BUCKET_BOUNDS = (
    0.1, 0.4, 1.0, 5.0, 30.0, 60.0, 300.0, 600.0,
    3600.0, 14400.0, 43200.0, 86400.0, 604800.0,
)


@dataclass
class StreamLifetimeReport:
    """Bounded-memory analogue of :class:`~repro.analysis.lifetimes.LifetimeReport`."""

    total_births: int
    births_by_cause: dict[str, int]
    total_deaths: int
    deaths_by_cause: dict[str, int]
    histogram: Histogram
    median_estimate: float | None
    end_surplus: int
    phase2_seconds: float
    censored_files: int

    def birth_fraction(self, cause: str) -> float:
        """Share of births with ``cause`` (0..1)."""
        if self.total_births == 0:
            return 0.0
        return self.births_by_cause.get(cause, 0) / self.total_births

    def death_fraction(self, cause: str) -> float:
        """Share of deaths with ``cause`` (0..1)."""
        if self.total_deaths == 0:
            return 0.0
        return self.deaths_by_cause.get(cause, 0) / self.total_deaths

    def fraction_dead_within(self, seconds: float) -> float:
        """Share of deaths with lifetime <= ``seconds``.

        Exact when ``seconds`` is a bucket edge; otherwise rounded up
        to the next edge (a documented overestimate within one bucket).
        """
        if self.total_deaths == 0:
            return 0.0
        for bound, cumulative in self.histogram.cumulative():
            if bound >= seconds:
                return cumulative / self.total_deaths
        return 1.0

    def lifetime_cdf(self, points) -> list[tuple[float, float]]:
        """Figure 3 points: cumulative % of deaths per lifetime bound."""
        return [
            (point, 100.0 * self.fraction_dead_within(point))
            for point in points
        ]


class _CappedFiles(dict):
    """Insertion-order-capped per-file state table.

    When full, inserting a new key evicts the oldest entry and hands it
    to ``on_evict`` — turning unbounded file-population growth into a
    counted approximation instead of unbounded memory.
    """

    def __init__(self, cap: int, on_evict) -> None:
        super().__init__()
        self.cap = cap
        self.on_evict = on_evict

    def __setitem__(self, key, value) -> None:
        if key not in self and len(self) >= self.cap:
            oldest = next(iter(self))
            evicted = super().pop(oldest)
            self.on_evict(oldest, evicted)
        super().__setitem__(key, value)


class StreamLifetimes(StreamAnalysis, BlockLifetimeAnalyzer):
    """Online Table 4: create-based lifetimes with bounded state.

    Inherits the full birth/death mechanics of
    :class:`~repro.analysis.lifetimes.BlockLifetimeAnalyzer`; what
    changes is storage.  Deaths fold into a fixed-bucket histogram and
    a P² median at the moment they happen (the end-margin filter is a
    pure predicate on the lifespan, so it applies online), and the
    per-file block table is capped at ``max_files`` entries with
    oldest-first eviction.  Evicted files' phase-1 births are counted
    into the end surplus as censored-alive — the one approximation,
    and only under eviction pressure (``censored_files`` reports it).
    """

    name = "lifetimes"

    def __init__(
        self,
        phase1_start: float,
        phase1_end: float,
        phase2_end: float,
        *,
        max_files: int = 100_000,
        bounds: tuple[float, ...] = LIFETIME_BUCKET_BOUNDS,
    ) -> None:
        BlockLifetimeAnalyzer.__init__(self, phase1_start, phase1_end, phase2_end)
        self._phase2_len = phase2_end - phase1_end
        self._hist = Histogram("stream.lifetime_seconds", bounds=bounds)
        self._median = P2Quantile(0.5)
        self._stream_deaths: Counter[str] = Counter()
        self._overlong = 0
        self.censored_files = 0
        self._censored_alive = 0
        self.max_files = max_files
        self._files = _CappedFiles(max_files, self._on_evict)

    def _on_evict(self, fh: str, state: _FileState) -> None:
        self.censored_files += 1
        self._censored_alive += sum(
            1 for birth in state.births.values() if self._in_phase1(birth)
        )

    def _death(self, state: _FileState, block: int, t: float, cause: str) -> None:
        birth = state.births.pop(block, None)
        if birth is None:
            return  # pre-existing block: create-based method ignores it
        if not self._in_phase1(birth):
            return
        lifetime = t - birth
        if lifetime > self._phase2_len:
            self._overlong += 1  # end-margin filter, applied online
            return
        self._stream_deaths[cause] += 1
        self._hist.observe(lifetime)
        self._median.add(lifetime)

    def process_op(self, op: PairedOp) -> None:
        self.observe(op)

    def result(self) -> StreamLifetimeReport:
        alive = sum(
            1
            for state in self._files.values()
            for birth in state.births.values()
            if self._in_phase1(birth)
        )
        return StreamLifetimeReport(
            total_births=self._total_births,
            births_by_cause=dict(self._births_by_cause),
            total_deaths=self._hist.count,
            deaths_by_cause=dict(self._stream_deaths),
            histogram=self._hist,
            median_estimate=self._median.value(),
            end_surplus=alive + self._censored_alive + self._overlong,
            phase2_seconds=self._phase2_len,
            censored_files=self.censored_files,
        )

    def memory_items(self) -> int:
        return len(self._files)


class StreamStats(StreamAnalysis):
    """Record/op tallies behind ``repro stats`` — exact, one pass."""

    name = "stats"

    def __init__(self) -> None:
        self.records = 0
        self.first = math.inf
        self.last = -math.inf
        self.calls: Counter[str] = Counter()
        self.replies: Counter[str] = Counter()
        self.paired: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.clients: set[str] = set()

    def process_record(self, record: TraceRecord) -> None:
        self.records += 1
        time = record.time
        if time < self.first:
            self.first = time
        if time > self.last:
            self.last = time
        if record.is_call():
            self.calls[record.proc.value] += 1
            self.clients.add(record.client)
        else:
            self.replies[record.proc.value] += 1

    def process_op(self, op: PairedOp) -> None:
        self.paired[op.proc.value] += 1
        if not op.ok():
            self.errors[op.proc.value] += 1

    def result(self) -> "StreamStats":
        return self


class StreamTopFiles(StreamAnalysis):
    """Heavy-hitter file handles by op count and by bytes moved."""

    name = "top_files"

    def __init__(self, *, capacity: int = 256, k: int = 10) -> None:
        self.k = k
        self.by_ops = SpaceSaving(capacity)
        self.by_bytes = SpaceSaving(capacity)

    def process_op(self, op: PairedOp) -> None:
        fh = op.reply_fh or op.fh
        if fh is None:
            return
        self.by_ops.add(fh)
        if (op.is_read() or op.is_write()) and op.ok() and op.count:
            self.by_bytes.add(fh, op.count)

    def result(self) -> dict:
        return {
            "by_ops": self.by_ops.top(self.k),
            "by_bytes": self.by_bytes.top(self.k),
        }

    def memory_items(self) -> int:
        return len(self.by_ops) + len(self.by_bytes)


class StreamLatency(StreamAnalysis):
    """Reply-latency distribution: Welford stats plus P² quantiles."""

    name = "latency"

    def __init__(self, quantiles: tuple[float, ...] = (0.5, 0.9, 0.99)) -> None:
        self.stats = RunningStats()
        self._estimators = {q: P2Quantile(q) for q in quantiles}

    def process_op(self, op: PairedOp) -> None:
        latency = op.reply_time - op.time
        if latency < 0:
            return
        self.stats.add(latency)
        for estimator in self._estimators.values():
            estimator.add(latency)

    def quantile(self, q: float) -> float | None:
        """The tracked ``q`` quantile estimate (None before any data)."""
        return self._estimators[q].value()

    def result(self) -> dict:
        return {
            "count": self.stats.count,
            "mean": self.stats.mean,
            "max": self.stats.maximum if self.stats.count else 0.0,
            "quantiles": {q: e.value() for q, e in self._estimators.items()},
        }


class StreamRates(StreamAnalysis):
    """Exponentially-decayed op and byte rates, for live snapshots."""

    name = "rates"

    def __init__(self, *, halflife: float = 300.0) -> None:
        self.halflife = halflife
        self.ops = ExpDecayRate(halflife)
        self.bytes = ExpDecayRate(halflife)
        self._watermark = 0.0

    def process_op(self, op: PairedOp) -> None:
        self.ops.observe(op.time)
        if (op.is_read() or op.is_write()) and op.ok() and op.count:
            self.bytes.observe(op.time, op.count)

    def advance(self, watermark: float) -> None:
        self._watermark = watermark

    def ops_per_second(self) -> float:
        """Decayed operations/second as of the last watermark."""
        return self.ops.rate(self._watermark or None)

    def bytes_per_second(self) -> float:
        """Decayed bytes/second as of the last watermark."""
        return self.bytes.rate(self._watermark or None)

    def result(self) -> dict:
        return {
            "ops_per_second": self.ops_per_second(),
            "bytes_per_second": self.bytes_per_second(),
            "halflife": self.halflife,
        }
