"""The streaming analysis engine: one pass, many analyses.

:class:`StreamEngine` fans a single record stream — a
:class:`~repro.trace.reader.TraceReader`, a live
:class:`~repro.trace.collector.TraceCollector` tap, anything that
yields :class:`~repro.trace.record.TraceRecord` — into every registered
:class:`StreamAnalysis`.  Records are paired into operations on the fly
by a :class:`~repro.analysis.pairing.StreamPairer` (the pairer batch
and chunked pairing run too, so the loss accounting is theirs), and
each analysis chooses its granularity: raw wire records
(``process_record``), paired operations (``process_op``), or both.

Progress is tracked by a *watermark* — the largest wire timestamp seen.
Every ``advance_every`` records the engine pushes the watermark to all
analyses, which is when window operators flush closed windows; this is
what keeps memory proportional to the open-window span rather than the
trace length.  The engine publishes its own gauges and counters under
``stream.*`` in the shared :class:`~repro.obs.metrics.MetricsRegistry`,
and an optional ``max_items`` budget turns unbounded state growth into
a loud :class:`~repro.errors.StreamMemoryError` instead of a silent
out-of-memory.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.analysis.pairing import (
    DEFAULT_REPLY_TIMEOUT,
    PairedOp,
    PairingStats,
    StreamPairer,
)
from repro.errors import StreamMemoryError
from repro.obs.metrics import MetricsRegistry
from repro.trace.record import TraceRecord


class StreamAnalysis:
    """Base class for one bounded-memory streaming analysis.

    Subclasses override ``process_record`` and/or ``process_op``; the
    engine only dispatches to hooks a subclass actually overrides, so
    an op-level analysis costs nothing on the record path.  State kept
    between calls should be bounded (windows, sketches, caps) and its
    approximate size reported via :meth:`memory_items` so the engine's
    memory budget can see it.
    """

    #: key under which the engine reports this analysis's result
    name = "analysis"

    def process_record(self, record: TraceRecord) -> None:
        """Consume one raw wire record (override when needed)."""

    def process_op(self, op: PairedOp) -> None:
        """Consume one paired operation (override when needed)."""

    def advance(self, watermark: float) -> None:
        """Watermark moved: flush anything closed before it."""

    def finish(self) -> None:
        """End of stream: flush all remaining windows/state."""

    def result(self) -> Any:
        """The current result object (final once finished)."""
        return None

    def memory_items(self) -> int:
        """Approximate retained item count, for the memory budget."""
        return 0


class StreamEngine:
    """Runs N registered analyses over one record stream in one pass.

    Args:
        reply_timeout: passed to the internal pairer.
        metrics: registry for the ``stream.*`` instruments; pass the
            simulation's own registry to see engine state in its
            snapshots, or omit for a private one.
        advance_every: records between watermark notifications (and
            memory-budget checks).
        max_items: optional cap on total retained items — outstanding
            calls plus every analysis's :meth:`~StreamAnalysis.memory_items`.
            Exceeding it raises :class:`~repro.errors.StreamMemoryError`.
        spans: optional :class:`~repro.obs.spans.SpanRecorder` handed
            to the internal pairer for verdict spans.
    """

    def __init__(
        self,
        *,
        reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
        metrics: MetricsRegistry | None = None,
        advance_every: int = 1024,
        max_items: int | None = None,
        spans=None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.pairer = StreamPairer(reply_timeout=reply_timeout, spans=spans)
        self.advance_every = advance_every
        self.max_items = max_items
        self.analyses: list[StreamAnalysis] = []
        self.watermark = 0.0
        self.records = 0
        self.ops = 0
        self.peak_items = 0
        self.finished = False
        self._record_handlers: list[Callable[[TraceRecord], None]] = []
        self._op_handlers: list[Callable[[PairedOp], None]] = []
        self._m_records = self.metrics.counter("stream.records")
        self._m_ops = self.metrics.counter("stream.ops")
        self._g_watermark = self.metrics.gauge("stream.watermark")
        self._g_outstanding = self.metrics.gauge("stream.outstanding_calls")
        self._g_items = self.metrics.gauge("stream.state_items")
        self.metrics.add_sync(self._sync)

    def _sync(self) -> None:
        self._m_records.inc(self.records - self._m_records.value)
        self._m_ops.inc(self.ops - self._m_ops.value)
        self._g_watermark.set(self.watermark)
        self._g_outstanding.set(len(self.pairer))
        self._g_items.set(self.state_items())

    # -- wiring ----------------------------------------------------------------

    def register(self, analysis: StreamAnalysis) -> StreamAnalysis:
        """Attach one analysis; returns it for convenient assignment.

        Dispatch lists are built here from which hooks the subclass
        overrides, so the per-record loop never calls empty methods.
        """
        self.analyses.append(analysis)
        cls = type(analysis)
        if cls.process_record is not StreamAnalysis.process_record:
            self._record_handlers.append(analysis.process_record)
        if cls.process_op is not StreamAnalysis.process_op:
            self._op_handlers.append(analysis.process_op)
        return analysis

    def analysis(self, name: str) -> StreamAnalysis | None:
        """The registered analysis called ``name``, or None."""
        for analysis in self.analyses:
            if analysis.name == name:
                return analysis
        return None

    # -- the pass --------------------------------------------------------------

    def feed(self, record: TraceRecord) -> None:
        """Consume one record (live-tap entry point)."""
        self.records += 1
        time = record.time
        if time > self.watermark:
            self.watermark = time
        for handler in self._record_handlers:
            handler(record)
        op = self.pairer.push(record)
        if op is not None:
            self.ops += 1
            for handler in self._op_handlers:
                handler(op)
        if self.records % self.advance_every == 0:
            self._advance()

    def run(self, records: Iterable[TraceRecord]) -> dict[str, Any]:
        """Feed a whole stream, finish, and return all results."""
        feed = self.feed
        for record in records:
            feed(record)
        return self.finish()

    def finish(self) -> dict[str, Any]:
        """Close the stream; returns ``{analysis.name: result, ...}``.

        The pairing loss accounting is included under ``"pairing"``.
        Idempotent: a second call returns the same results.
        """
        if not self.finished:
            self.finished = True
            items = self.state_items()
            if items > self.peak_items:
                self.peak_items = items
            self.pairer.close()
            for analysis in self.analyses:
                analysis.finish()
        results: dict[str, Any] = {a.name: a.result() for a in self.analyses}
        results["pairing"] = self.pairer.stats
        return results

    @property
    def stats(self) -> PairingStats:
        """The pairer's loss accounting (live view)."""
        return self.pairer.stats

    # -- housekeeping ----------------------------------------------------------

    def state_items(self) -> int:
        """Total retained items across the pairer and all analyses."""
        return len(self.pairer) + sum(a.memory_items() for a in self.analyses)

    def _advance(self) -> None:
        watermark = self.watermark
        for analysis in self.analyses:
            analysis.advance(watermark)
        items = self.state_items()
        if items > self.peak_items:
            self.peak_items = items
        if self.max_items is not None and items > self.max_items:
            raise StreamMemoryError(
                f"streaming engine holds {items} items, over the "
                f"max_items budget of {self.max_items}"
            )
