"""Operation-level span tracing (zero-dependency, OTel-style).

A passive tracer can already *count* everything; spans let it *follow*
one logical NFS operation across every hop of the simulated pipeline:

    client (issue/retransmit) -> link transit -> server dispatch
        -> capture (mirror tap -> collector) -> pairer verdict

Every operation derives a stable 128-bit **trace ID** from
``(client, xid, proc)`` via BLAKE2b — the same recipe Mailtrace uses to
hash a stable message ID into a trace ID.  XIDs are never reused within
a run, so the triple is unique; and because the ID is a pure hash of
wire-visible fields, every hop — the live client, the fault injector,
and an analysis pass running days later in another process — derives
the *same* ID with no context propagation at all.

Sampling follows the same philosophy (OTel's ``TraceIdRatioBased``):
the decision is a deterministic 64-bit hash of the triple compared
against ``rate * 2**64``.  No RNG stream is ever consulted, so enabling
sampling perturbs nothing — traces stay byte-identical with sampling
on, off, or at any rate, and every hop independently agrees on which
operations are sampled.

Span IDs are also deterministic: ``hash(trace_id, hop, occurrence)``.
The client's root span for a trace is always occurrence 0, so any hop
(even an offline pairer) can compute its parent span ID locally.

Spans are exported as JSON-lines through the existing
:class:`~repro.obs.eventlog.EventLog` machinery (``event="span"``).
See ``docs/OBSERVABILITY.md`` for the span model and field reference.
"""

from __future__ import annotations

import json
from collections import deque
from functools import lru_cache
from hashlib import blake2b
from typing import Any

__all__ = [
    "HOPS",
    "SpanRecorder",
    "sample_decision",
    "span_id",
    "trace_id",
]

#: Hop names in pipeline order (also the canonical sort order used when
#: a buffered recorder finalizes analysis-side spans).
HOPS = ("client", "link", "server", "capture", "pairer")

_HOP_ORDER = {hop: index for index, hop in enumerate(HOPS)}

_U64 = (1 << 64) - 1

#: Traces whose per-hop occurrence counters a recorder will retain at
#: once.  Live recorders release a trace when its root span closes, so
#: they never approach this; analysis-side recorders (pairer hop only)
#: evict oldest-first, which is harmless because a trace's spans arrive
#: clustered in time.
MAX_OPEN_TRACES = 65536

#: Sentinel distinguishing "not memoized" from a memoized ``None``
#: (unsampled) in the per-recorder decision cache.
_MISS = object()


def trace_id(client: str, xid: int, proc: str) -> str:
    """The stable 128-bit trace ID of one logical operation (32 hex).

    Deterministic in ``(client, xid, proc)`` only — byte-identical
    reruns produce identical IDs, and every pipeline hop derives the
    same ID independently.
    """
    return blake2b(
        f"{client}/{xid}/{proc}".encode(), digest_size=16
    ).hexdigest()


def span_id(tid: str, hop: str, occurrence: int) -> str:
    """The 64-bit span ID of one hop occurrence within a trace (16 hex).

    ``span_id(tid, "client", 0)`` is always the root span, so child
    hops compute their parent locally without propagation.
    """
    return blake2b(
        f"{tid}/{hop}/{occurrence}".encode(), digest_size=8
    ).hexdigest()


@lru_cache(maxsize=4096)
def _host_hash(text: str) -> int:
    """64-bit hash of a client host / proc name (cached: few distinct)."""
    return int.from_bytes(
        blake2b(text.encode(), digest_size=8).digest(), "little"
    )


def _mix(x: int) -> int:
    """splitmix64 finalizer: full-avalanche 64-bit mixing."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _U64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _U64
    return x ^ (x >> 31)


def sample_threshold(rate: float) -> int:
    """The 64-bit comparison threshold for a sampling ``rate`` in [0, 1].

    Raises:
        ValueError: when ``rate`` is outside [0, 1].
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"trace sample rate must be in [0, 1], got {rate}")
    return int(rate * (1 << 64))


def sample_decision(client: str, xid: int, proc: str, threshold: int) -> bool:
    """Deterministic hash-ratio sampling decision (no RNG draws).

    Every process and every hop computes the same answer for the same
    operation, so a sampled trace is sampled *everywhere* — the
    analysis-side pairer agrees with the live client without any
    context travelling in the trace.
    """
    if threshold <= 0:
        return False
    if threshold > _U64:
        return True
    key = _host_hash(client) ^ (xid * 0x9E3779B97F4A7C15) ^ _host_hash(proc)
    return _mix(key & _U64) < threshold


class Span:
    """One completed hop of one traced operation."""

    __slots__ = (
        "trace", "span", "parent", "hop", "name",
        "start", "end", "status", "attrs", "events",
    )

    def __init__(
        self,
        trace: str,
        span: str | None,
        parent: str | None,
        hop: str,
        name: str,
        start: float,
        end: float,
        status: str,
        attrs: dict[str, Any],
        events: list[dict[str, Any]],
    ) -> None:
        self.trace = trace
        self.span = span
        self.parent = parent
        self.hop = hop
        self.name = name
        self.start = start
        self.end = end
        self.status = status
        self.attrs = attrs
        self.events = events


class SpanRecorder:
    """Derives, samples, and emits spans for one pipeline.

    Args:
        sink: an :class:`~repro.obs.eventlog.EventLog`-compatible object
            (``emit(event, *, time, **fields)``); spans are emitted as
            ``event="span"`` JSON-lines records.
        sample: sampling rate in [0, 1].  The decision is a
            deterministic hash of ``(client, xid, proc)`` — zero RNG
            draws at any rate.
        buffered: collect spans and emit them canonically sorted at
            :meth:`close` instead of immediately.  Used by analysis
            paths so serial, ``--jobs N``, and ``--stream`` pairing all
            export byte-identical span streams regardless of internal
            completion order.
        metrics: optional registry for ``spans.emitted{hop=...}``.
        tail: keep the last ``tail`` emitted span records in memory
            (for the monitor's live span tail endpoint).
    """

    def __init__(
        self,
        sink,
        *,
        sample: float = 1.0,
        buffered: bool = False,
        metrics=None,
        tail: int = 0,
    ) -> None:
        self.sink = sink
        self.sample = sample
        self._threshold = sample_threshold(sample)
        self._buffered = buffered
        self._buffer: list[Span] = []
        self.metrics = metrics
        self._m_emitted: dict[str, Any] = {}
        self.tail: deque | None = deque(maxlen=tail) if tail > 0 else None
        self.emitted = 0
        #: per-trace per-hop occurrence counters: {tid: {hop: next}}
        self._occ: dict[str, dict[str, int]] = {}
        #: memoized sampling decisions: every op is checked once per
        #: hop (~5x), and the hash is the layer's hot path; bounded
        #: FIFO like ``_occ`` — eviction just means a recompute
        self._decisions: dict[tuple[str, int, str], str | None] = {}
        #: memoized root span IDs (every child hop parents the root)
        self._roots: dict[str, str] = {}
        #: the link span currently in flight (the simulator is single
        #: threaded and exchanges never nest, so one slot suffices)
        self._open_link: Span | None = None

    # -- sampling --------------------------------------------------------------

    def trace_of(self, client: str, xid: int, proc: str) -> str | None:
        """The trace ID when the operation is sampled, else ``None``.

        This is the single gate every instrumentation site uses; at
        rate 0 it returns immediately and nothing downstream runs.
        """
        key = (client, xid, proc)
        decisions = self._decisions
        tid = decisions.get(key, _MISS)
        if tid is not _MISS:
            return tid
        if sample_decision(client, xid, proc, self._threshold):
            tid = trace_id(client, xid, proc)
        else:
            tid = None
        if len(decisions) >= MAX_OPEN_TRACES:
            decisions.pop(next(iter(decisions)))
        decisions[key] = tid
        return tid

    def wire_trace(self) -> str | None:
        """The trace ID of the exchange currently on the wire, if sampled.

        The simulator is single threaded and the server dispatch and
        capture taps run strictly inside the link exchange, so the open
        link span *is* the authoritative sampling answer for those hops
        — an attribute read instead of a hash per packet.  ``None``
        means the in-flight operation is unsampled (or no exchange is
        open, as in analysis-side recorders, which must use
        :meth:`trace_of`).
        """
        link = self._open_link
        return None if link is None else link.trace

    # -- occurrence bookkeeping ------------------------------------------------

    def _occurrence(self, tid: str, hop: str) -> int:
        per_trace = self._occ.get(tid)
        if per_trace is None:
            if len(self._occ) >= MAX_OPEN_TRACES:
                self._occ.pop(next(iter(self._occ)))
            per_trace = {}
            self._occ[tid] = per_trace
        n = per_trace.get(hop, 0)
        per_trace[hop] = n + 1
        return n

    def release(self, tid: str) -> None:
        """Drop a trace's occurrence counters (its root span closed)."""
        self._occ.pop(tid, None)
        self._roots.pop(tid, None)

    def _root_id(self, tid: str) -> str:
        """``span_id(tid, "client", 0)``, memoized per open trace."""
        roots = self._roots
        rid = roots.get(tid)
        if rid is None:
            if len(roots) >= MAX_OPEN_TRACES:
                roots.pop(next(iter(roots)))
            rid = span_id(tid, "client", 0)
            roots[tid] = rid
        return rid

    # -- hop emission ----------------------------------------------------------

    def client_span(
        self,
        tid: str,
        name: str,
        start: float,
        end: float,
        *,
        status: str = "ok",
        attrs: dict | None = None,
        events: list | None = None,
    ) -> None:
        """The root span: one logical client RPC, issue to reply."""
        occurrence = self._occurrence(tid, "client")
        own = self._root_id(tid) if occurrence == 0 else \
            span_id(tid, "client", occurrence)
        self._emit(Span(
            tid, own, None, "client", name,
            start, end, status, attrs or {}, events or [],
        ))
        self.release(tid)

    def link_open(self, tid: str, name: str, start: float) -> Span:
        """Open the link span for one wire exchange attempt."""
        occurrence = self._occurrence(tid, "link")
        span = Span(
            tid, span_id(tid, "link", occurrence), self._root_id(tid),
            "link", name, start, start, "ok", {}, [],
        )
        self._open_link = span
        return span

    def link_close(self, span: Span, end: float, status: str) -> None:
        """Close an open link span (``status``: ok / lost / reply_lost)."""
        span.end = end
        span.status = status
        self._open_link = None
        self._emit(span)

    def exchange_event(self, name: str, time: float, **attrs: Any) -> None:
        """Attach an event to the in-flight link span, if any.

        The fault injector calls this from every injection site, so a
        sampled operation's span carries exactly the drop/dup/delay
        verdicts the ledger recorded for it.
        """
        span = self._open_link
        if span is not None:
            event: dict[str, Any] = {"name": name, "time": time}
            if attrs:
                event.update(attrs)
            span.events.append(event)

    def server_span(
        self,
        tid: str,
        name: str,
        time: float,
        *,
        status: str = "ok",
        attrs: dict | None = None,
        events: list | None = None,
    ) -> None:
        """Server dispatch for one call (instantaneous: the simulator
        models service latency on the link, not in the server)."""
        occurrence = self._occurrence(tid, "server")
        link = self._open_link
        parent = link.span if link is not None else self._root_id(tid)
        self._emit(Span(
            tid, span_id(tid, "server", occurrence), parent, "server", name,
            time, time, status, attrs or {}, events or [],
        ))

    def capture_span(self, tid: str, name: str, time: float) -> None:
        """One packet reaching the collector (``name``: call / reply)."""
        occurrence = self._occurrence(tid, "capture")
        link = self._open_link
        parent = link.span if link is not None else self._root_id(tid)
        self._emit(Span(
            tid, span_id(tid, "capture", occurrence), parent, "capture",
            name, time, time, "ok", {}, [],
        ))

    def pairer_span(
        self,
        tid: str,
        name: str,
        start: float,
        end: float,
        verdict: str,
    ) -> None:
        """The analysis verdict: paired / orphan_reply / duplicate_reply."""
        span = Span(
            tid, None, self._root_id(tid), "pairer", name,
            start, end, "ok", {"verdict": verdict}, [],
        )
        if not self._buffered:
            span.span = span_id(tid, "pairer", self._occurrence(tid, "pairer"))
        self._emit(span)

    # -- handing buffered spans between recorders ------------------------------

    def take_pending(self) -> list[Span]:
        """Remove and return the spans a buffered recorder holds."""
        pending, self._buffer = self._buffer, []
        return pending

    def adopt(self, spans: list[Span]) -> None:
        """Buffer spans another buffered recorder collected."""
        self._buffer.extend(spans)

    # -- the write path --------------------------------------------------------

    def _emit(self, span: Span) -> None:
        if self._buffered:
            self._buffer.append(span)
            return
        self._write(span)

    def _write(self, span: Span) -> None:
        self.emitted += 1
        start = round(span.start, 6)
        record = self.sink.emit(
            "span",
            time=start,
            trace=span.trace,
            span=span.span,
            parent=span.parent,
            hop=span.hop,
            name=span.name,
            start=start,
            end=round(span.end, 6),
            status=span.status,
            attrs=span.attrs,
            events=span.events,
        )
        if self.tail is not None:
            self.tail.append(record)
        if self.metrics is not None:
            counter = self._m_emitted.get(span.hop)
            if counter is None:
                counter = self.metrics.counter("spans.emitted", hop=span.hop)
                self._m_emitted[span.hop] = counter
            counter.inc()

    @staticmethod
    def _canonical_key(span: Span):
        return (
            span.start,
            span.trace,
            _HOP_ORDER.get(span.hop, len(HOPS)),
            span.end,
            span.name,
            json.dumps(span.attrs, sort_keys=True),
        )

    def close(self) -> int:
        """Finalize: flush buffered spans in canonical order.

        Buffered mode sorts by ``(start, trace, hop, ...)`` and only
        *then* assigns occurrence-based span IDs — so the byte stream
        is a pure function of span content, independent of the order
        pairing completed them in (serial, chunked, or streaming).
        Returns the total spans emitted.
        """
        if self._buffered and self._buffer:
            spans = sorted(self._buffer, key=self._canonical_key)
            self._buffer = []
            self._occ.clear()
            for span in spans:
                if span.span is None:
                    span.span = span_id(
                        span.trace, span.hop,
                        self._occurrence(span.trace, span.hop),
                    )
                self._write(span)
        flush = getattr(self.sink, "flush", None)
        if flush is not None:
            flush()
        return self.emitted

    def tail_text(self) -> str:
        """The retained span tail as JSON lines (newest last)."""
        if not self.tail:
            return ""
        return "\n".join(
            json.dumps(record, separators=(",", ":"), sort_keys=True)
            for record in self.tail
        ) + "\n"
