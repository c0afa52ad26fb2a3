"""The trace collector — the simulated tracing host.

Installed as a tap on a network path (usually behind a
:class:`~repro.netsim.mirror.MirrorPort`), it converts observed
calls/replies into :class:`TraceRecord` objects.  Records accumulate in
memory in capture order; ``sorted_records()`` — and ``write()`` —
return them in wire-timestamp order, which is the order a real capture
file would have after the sniffer's internal reordering buffer.  The
sort is computed once and cached until the next capture.

Live-capture retention follows the measurement window: a packet whose
wire time is before ``measure_from`` (see
:meth:`~repro.workloads.harness.TracedSystem.start_measurement`) is
neither tallied nor retained, and its record is not built at all
unless a subscriber wants it.  So a warm-up day is simulated but never
materialized, and the retained capture is exactly the windowed trace.
:meth:`~TraceCollector.ingest` is the exception: it retains every
record it is given and windows only the tallies.

Live consumers (the streaming engine behind ``repro watch``) can
:meth:`~TraceCollector.subscribe` a callback that receives every record
— before the window too — at capture time; with ``retain=False`` the
collector becomes a pure tap — nothing accumulates, so a watched
simulation runs in bounded memory no matter how long it goes.

Metrics (under ``trace.*``): records and approximate wire bytes
captured, per direction.
"""

from __future__ import annotations

import operator
from pathlib import Path
from typing import Callable

from repro.netsim.link import HEADER_BYTES
from repro.nfs.messages import NfsCall, NfsReply
from repro.nfs.procedures import NfsProc
from repro.obs.metrics import MetricsRegistry
from repro.trace.record import Direction, TraceRecord
from repro.trace.writer import TraceWriter

#: C-level sort key for the wire-time sort of a whole capture.
_BY_TIME = operator.attrgetter("time")


class TraceCollector:
    """Accumulates trace records from a live simulation."""

    def __init__(
        self,
        *,
        metrics: MetricsRegistry | None = None,
        retain: bool = True,
        spans=None,
    ) -> None:
        self.records: list[TraceRecord] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: optional repro.obs.spans.SpanRecorder; one capture span per
        #: packet of a sampled operation (duplicates captured twice get
        #: two spans, dropped packets get none — exactly what the trace
        #: itself shows)
        self._spans = spans
        self.measure_from = 0.0
        #: keep captured records in ``self.records``; turn off when a
        #: subscriber is the only consumer (live watch) to cap memory
        self.retain = retain
        self._subscribers: list[Callable[[TraceRecord], None]] = []
        # per-packet tallies stay plain integers; _sync publishes them
        self._n_calls = 0
        self._n_replies = 0
        self._n_bytes = 0
        self._m_calls = self.metrics.counter("trace.records", direction="call")
        self._m_replies = self.metrics.counter("trace.records", direction="reply")
        self._m_bytes = self.metrics.counter("trace.bytes")
        self.metrics.add_sync(self._sync)
        self._sorted: list[TraceRecord] | None = None

    def _sync(self) -> None:
        self._m_calls.inc(self._n_calls - self._m_calls.value)
        self._m_replies.inc(self._n_replies - self._m_replies.value)
        self._m_bytes.inc(self._n_bytes - self._m_bytes.value)

    @property
    def calls_seen(self) -> int:
        """Call packets captured."""
        return self._n_calls

    @property
    def replies_seen(self) -> int:
        """Reply packets captured."""
        return self._n_replies

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Deliver every captured record to ``callback`` as it happens.

        Records are delivered in capture order — each call precedes its
        own reply, so a push-based pairer sees a valid stream.  The
        callback runs on the simulation's critical path; keep it cheap.
        """
        self._subscribers.append(callback)

    # -- tap interface (called by the network path / mirror port) ------------

    def on_call(self, call: NfsCall) -> None:
        """Capture one call packet."""
        measured = call.time >= self.measure_from
        keep = measured and self.retain
        if keep or self._subscribers:
            record = TraceRecord.from_call(call)
            if keep:
                self.records.append(record)
                self._sorted = None
            for callback in self._subscribers:
                callback(record)
        spans = self._spans
        if spans is not None:
            tid = spans.wire_trace()  # taps run inside the exchange
            if tid is not None:
                spans.capture_span(tid, "call", call.time)
        if measured:
            self._n_calls += 1
            # wire_size(call), inlined for the per-packet path
            size = HEADER_BYTES
            if call.proc is NfsProc.WRITE and call.count:
                size += call.count
            if call.name:
                size += len(call.name)
            self._n_bytes += size

    def on_reply(self, reply: NfsReply) -> None:
        """Capture one reply packet."""
        measured = reply.time >= self.measure_from
        keep = measured and self.retain
        if keep or self._subscribers:
            record = TraceRecord.from_reply(reply)
            if keep:
                self.records.append(record)
                self._sorted = None
            for callback in self._subscribers:
                callback(record)
        spans = self._spans
        if spans is not None:
            tid = spans.wire_trace()  # taps run inside the exchange
            if tid is not None:
                spans.capture_span(tid, "reply", reply.time)
        if measured:
            self._n_replies += 1
            size = HEADER_BYTES
            if reply.proc is NfsProc.READ and reply.count:
                size += reply.count
            self._n_bytes += size

    def ingest(self, records) -> int:
        """Bulk-append already-captured :class:`TraceRecord` objects.

        Merge-side entry point for sharded simulations: the parent
        feeds the wire-time-merged stream here so the merged capture is
        queryable (and writable) through the same collector interface a
        live world offers.  Subscribers receive every record, and the
        measured-window call/reply/byte tallies follow the same rules
        as the live taps.  Returns the count ingested.
        """
        count = 0
        for record in records:
            count += 1
            if self.retain:
                self.records.append(record)
            if self._subscribers:
                for callback in self._subscribers:
                    callback(record)
            if record.time < self.measure_from:
                continue
            size = HEADER_BYTES
            if record.direction == Direction.CALL:
                self._n_calls += 1
                if record.proc is NfsProc.WRITE and record.count:
                    size += record.count
                if record.name:
                    size += len(record.name)
            else:
                self._n_replies += 1
                if record.proc is NfsProc.READ and record.count:
                    size += record.count
            self._n_bytes += size
        if count and self.retain:
            self._sorted = None
        return count

    # -- consumption -----------------------------------------------------------

    def sorted_records(self) -> list[TraceRecord]:
        """All records in wire-timestamp order (stable for ties).

        The returned list is cached and shared — treat it as read-only.
        """
        if self._sorted is None:
            self._sorted = sorted(self.records, key=_BY_TIME)
        return self._sorted

    def write(self, path: str | Path) -> int:
        """Write the capture to ``path`` in wire-timestamp order.

        Records stream through :meth:`TraceWriter.write` one at a time,
        so the writer encodes them in blocks rather than as one block
        the size of the capture.  Returns the record count.
        """
        records = self.sorted_records()
        with TraceWriter(path) as writer:
            for record in records:
                writer.write(record)
        return len(records)

    def clear(self) -> None:
        """Drop all captured records (between experiment phases)."""
        self.records.clear()
        self._sorted = None
        self._n_calls = 0
        self._n_replies = 0
        self._n_bytes = 0
        self._m_calls.reset()
        self._m_replies.reset()
        self._m_bytes.reset()

    def __len__(self) -> int:
        return len(self.records)
