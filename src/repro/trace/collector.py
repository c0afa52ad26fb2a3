"""The trace collector — the simulated tracing host.

Installed as a tap on a network path (usually behind a
:class:`~repro.netsim.mirror.MirrorPort`), it turns observed calls and
replies into :class:`TraceRecord` objects and releases them to its
:attr:`~TraceCollector.sinks` in wire order: by :data:`record_key`,
arrival breaking exact ties.

The release rule is a watermark.  No packet is captured with a wire
time below the event loop's clock (a tap runs inside the event that
puts the packet on the wire), so once ``clock.now`` has passed a
pending record's wire time nothing can still arrive ahead of it: each
capture releases every pending record whose time is below the clock,
and :meth:`~TraceCollector.flush` releases the rest at the end of a
run.  A capture behind the last released record raises
:class:`~repro.errors.SimulationError` instead of landing out of
order.  A collector without a clock releases nothing before
``flush()``.

The default sink is the collector's own :attr:`~TraceCollector.records`
list.  Streaming callers (``repro simulate``, ``watch``, ``monitor``,
each ``--shards`` group world) replace it with a writer, encoder or
engine; then only the pending records, about one reply latency of
traffic, are held.  A packet before ``measure_from`` (see
:meth:`~repro.workloads.harness.TracedSystem.start_measurement`) is
neither tallied nor built, so a warm-up day is never materialized.

Metrics (under ``trace.*``): records and approximate wire bytes
captured, per direction.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable

from repro.errors import SimulationError
from repro.netsim.link import HEADER_BYTES
from repro.nfs.messages import NfsCall, NfsReply
from repro.nfs.procedures import NfsProc
from repro.obs.metrics import MetricsRegistry
from repro.simcore.clock import SimClock
from repro.trace.record import Direction, TraceRecord

#: The capture order: wire time, then the pairing key.  The ``--shards``
#: merge orders group streams by it too; pending entries spell it out
#: inline, as their leading fields, for speed.
record_key = attrgetter("time", "client", "xid")

#: Below every real entry: nothing has been released yet.
_NOTHING_RELEASED = (float("-inf"),)


class TraceCollector:
    """Captures trace records from a live simulation, in wire order."""

    def __init__(
        self,
        *,
        metrics: MetricsRegistry | None = None,
        spans=None,
        clock: SimClock | None = None,
    ) -> None:
        #: the released capture, in order (filled by the default sink)
        self.records: list[TraceRecord] = []
        #: callables receiving each released record, in release order
        self.sinks: list[Callable[[TraceRecord], None]] = [self.records.append]
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: optional repro.obs.spans.SpanRecorder; one capture span per
        #: packet of a sampled operation (duplicates captured twice get
        #: two spans, dropped packets get none — exactly what the trace
        #: itself shows)
        self._spans = spans
        #: the event loop's clock, the release watermark
        self._clock = clock
        self.measure_from = 0.0
        #: a heap of (time, client, xid, arrival, record) not yet released
        self._pending: list[tuple] = []
        self._arrivals = 0
        #: the entry released last; a capture below it raises
        self._released: tuple = _NOTHING_RELEASED
        # per-packet tallies stay plain integers; _sync publishes them
        self._n_calls = 0
        self._n_replies = 0
        self._n_bytes = 0
        self._m_calls = self.metrics.counter("trace.records", direction="call")
        self._m_replies = self.metrics.counter("trace.records", direction="reply")
        self._m_bytes = self.metrics.counter("trace.bytes")
        self.metrics.add_sync(self._sync)

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

    # -- tap interface (called by the network path / mirror port) ------------

    def on_call(self, call: NfsCall) -> None:
        """Capture one call packet."""
        spans = self._spans
        if spans is not None:
            tid = spans.wire_trace()  # taps run inside the exchange
            if tid is not None:
                spans.capture_span(tid, "call", call.time)
        if call.time >= self.measure_from:
            self._capture(TraceRecord.from_call(call))
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
        spans = self._spans
        if spans is not None:
            tid = spans.wire_trace()  # taps run inside the exchange
            if tid is not None:
                spans.capture_span(tid, "reply", reply.time)
        if reply.time >= self.measure_from:
            self._capture(TraceRecord.from_reply(reply))
            self._n_replies += 1
            size = HEADER_BYTES
            if reply.proc is NfsProc.READ and reply.count:
                size += reply.count
            self._n_bytes += size

    def _capture(self, record: TraceRecord) -> None:
        """Queue ``record``; release everything the clock has passed."""
        entry = (record.time, record.client, record.xid, self._arrivals,
                 record)
        self._arrivals += 1
        if entry < self._released:
            raise SimulationError(
                f"capture out of order: record at t={record.time!r} "
                f"arrived after t={self._released[0]!r} was released"
            )
        pending = self._pending
        heappush(pending, entry)
        clock = self._clock
        if clock is not None:
            now = clock.now
            if pending[0][0] < now:
                sinks = self.sinks
                while pending and pending[0][0] < now:
                    entry = heappop(pending)
                    for sink in sinks:
                        sink(entry[4])
                self._released = entry

    def flush(self) -> None:
        """Release every pending record (the end of a run)."""
        pending = self._pending
        if not pending:
            return
        pending.sort()  # the order heappop would release them in
        sinks = self.sinks
        for entry in pending:
            for sink in sinks:
                sink(entry[4])
        self._released = pending[-1]
        pending.clear()

    def ingest(self, records) -> int:
        """Capture already-captured :class:`TraceRecord` objects.

        Merge-side entry point for sharded simulations: the parent
        feeds the wire-time-merged stream here so the merged capture is
        queryable (and writable) through the same collector interface a
        live world offers.  Every record is captured; the window
        applies only to the call/reply/byte tallies, which follow the
        live taps' rules.  Returns the count ingested.
        """
        count = 0
        for record in records:
            count += 1
            self._capture(record)
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
        return count

    # -- consumption -----------------------------------------------------------

    def sorted_records(self) -> list[TraceRecord]:
        """Flush, then :attr:`records` — in wire order by construction.

        The list is the collector's own; treat it as read-only.
        """
        self.flush()
        return self.records

    def clear(self) -> None:
        """Drop all captured records (between experiment phases)."""
        self.records.clear()
        self._pending.clear()
        self._released = _NOTHING_RELEASED
        self._n_calls = 0
        self._n_replies = 0
        self._n_bytes = 0
        self._m_calls.reset()
        self._m_replies.reset()
        self._m_bytes.reset()

    def __len__(self) -> int:
        """Records held: released into :attr:`records` or still pending."""
        return len(self.records) + len(self._pending)
