"""Call/reply pairing.

A passive tracer sees calls and replies as separate packets; analyses
want one object per operation.  Pairing also surfaces the capture-loss
phenomenon of Section 4.1.4: a reply whose call was dropped cannot be
decoded (it is counted, not used), and a call with no reply within the
timeout was either dropped on the mirror or never answered.

:class:`StreamPairer` is the one pairing state machine: batch pairing,
the streaming engine and the chunked fan-out in
:mod:`repro.analysis.parallel` all drive it, and :func:`pair_trace` is
the one serial pass from a trace file to call-ordered ops.  Its rules:

* a call whose key is already outstanding is a retransmission: the
  earlier call is charged as unanswered and the newest one kept;
* a reply within ``reply_timeout`` of its key's outstanding call pairs
  it; a later one charges the call as unanswered, then is judged as if
  no call were outstanding: a duplicate when its key paired (or
  duplicated) within ``reply_timeout``, else an orphan;
* calls still outstanding at the end are unanswered.

Every 4,096 calls the pairer drops entries older than ``reply_timeout``.
On a wire-time-ordered stream these rules already give such entries no
say in a later verdict, so the sweep only reclaims memory.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Iterator

from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc
from repro.obs.gcpause import paused_gc
from repro.trace.reader import TraceReader
from repro.trace.record import Direction, TraceRecord

#: A reply arriving this long after its call is assumed lost (the
#: paper's nfsiod delays top out at 1 s; retransmission adds a little).
DEFAULT_REPLY_TIMEOUT = 8.0

#: Calls between expiry sweeps of the outstanding and recent tables.
_EXPIRE_EVERY = 4096

_CALL = Direction.CALL
_OK = NfsStatus.OK
_READ = NfsProc.READ


@dataclass(slots=True)
class PairedOp:
    """One matched NFS operation.

    ``time`` is the call's wire time (what run/lifetime analyses key
    on); ``reply_time`` the reply's.  ``count`` is the *actual* byte
    count: for reads, the reply's short-read-aware count; for writes,
    the call's.  ``post_size``/``post_mtime`` come from the reply's
    post-op attributes.
    """

    time: float
    reply_time: float
    proc: NfsProc
    client: str
    xid: int
    status: NfsStatus
    version: int = 3
    uid: int | None = None
    fh: str | None = None
    name: str | None = None
    target_fh: str | None = None
    target_name: str | None = None
    offset: int | None = None
    count: int | None = None
    size: int | None = None
    eof: bool | None = None
    reply_fh: str | None = None
    post_size: int | None = None
    post_mtime: float | None = None
    post_ftype: str | None = None

    def ok(self) -> bool:
        """True when the operation succeeded."""
        return self.status is NfsStatus.OK

    def is_read(self) -> bool:
        """True for READ operations."""
        return self.proc is NfsProc.READ

    def is_write(self) -> bool:
        """True for WRITE operations."""
        return self.proc is NfsProc.WRITE


#: Call-time order, ``(time, client, xid)``: how :func:`pair_trace` and
#: ``parallel_pair`` list ops and batch analyses read them (the pairer
#: emits reply order).
call_order_key = attrgetter("time", "client", "xid")


@dataclass
class PairingStats:
    """What pairing saw — including what it could not pair."""

    calls: int = 0
    replies: int = 0
    paired: int = 0
    orphan_replies: int = 0  # reply seen, call packet lost
    unanswered_calls: int = 0  # call seen, reply packet lost
    errors: int = 0  # paired ops with non-OK status
    duplicate_replies: int = 0  # reply re-captured after its pair completed

    def __add__(self, other: PairingStats) -> PairingStats:
        """Field-wise sum: the accounting of two disjoint streams."""
        return PairingStats(*(
            getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        ))

    @property
    def estimated_loss_rate(self) -> float:
        """Estimated fraction of packets the capture lost.

        Each orphan reply implies one lost call packet; each
        unanswered call implies one lost reply.  (Section 4.1.4's
        estimator.)  Duplicate replies imply nothing — the mirror
        showed the same packet twice — so they are excluded.
        """
        observed = self.calls + self.replies
        lost = self.orphan_replies + self.unanswered_calls
        if observed + lost == 0:
            return 0.0
        return lost / (observed + lost)


def pair_records(
    records: Iterable[TraceRecord],
    *,
    reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
    stats: PairingStats | None = None,
    spans=None,
) -> Iterator[PairedOp]:
    """Pair a wire-time-ordered record stream into operations.

    Yields ops in reply order.  Pass a :class:`PairingStats` to collect
    loss accounting.  Pass a :class:`~repro.obs.spans.SpanRecorder` to
    emit a ``pairer`` span per resolution verdict (paired /
    orphan_reply / duplicate_reply) for sampled operations.
    """
    pairer = StreamPairer(reply_timeout=reply_timeout, stats=stats, spans=spans)
    for op in map(pairer.push, records):
        if op is not None:
            yield op
    pairer.close()


def pair_all(
    records: Iterable[TraceRecord], *, spans=None
) -> tuple[list[PairedOp], PairingStats]:
    """Convenience: pair everything into a list, returning stats too.

    Cyclic GC is paused while the list materializes: pairing a week of
    trace allocates hundreds of thousands of acyclic PairedOps whose
    generation-2 rescans roughly double the wall time otherwise.
    """
    pairer = StreamPairer(spans=spans)
    with paused_gc():
        ops = [op for op in map(pairer.push, records) if op is not None]
    return ops, pairer.close()


def pair_trace(path, *, spans=None) -> tuple[list[PairedOp], PairingStats]:
    """The serial pass: pair a trace file in file order; ``(ops,
    stats)`` with the ops in call-time order.  Every batch command's
    op source, and the fan-out's reference.  Pass a *buffered*
    :class:`~repro.obs.spans.SpanRecorder` for verdict spans."""
    with TraceReader(path) as reader:
        ops, stats = pair_all(reader, spans=spans)
    with paused_gc():
        ops.sort(key=call_order_key)
    return ops, stats


class StreamPairer:
    """The pairing state machine, driven one record at a time.

    Memory is bounded by the outstanding-call and recent-pair tables
    (entries younger than ``reply_timeout``).  ``chunk=True`` pairs one
    slice of a trace: a reply with no call and no recent pair may have
    its call in an earlier slice, so it is deferred, not charged as an
    orphan, and :meth:`export_boundary` hands back what the slice
    could not settle.  The boundary merge replays that through one
    more pairer, with :meth:`note_pair` for the slices' recent pairs.
    """

    __slots__ = ("stats", "reply_timeout", "spans", "chunk", "_outstanding",
                 "_recent", "_deferred", "_last_time")

    def __init__(
        self,
        *,
        reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
        stats: PairingStats | None = None,
        spans=None,
        chunk: bool = False,
    ) -> None:
        self.stats = stats if stats is not None else PairingStats()
        self.reply_timeout = reply_timeout
        #: optional repro.obs.spans.SpanRecorder for verdict spans
        self.spans = spans
        self.chunk = chunk
        self._outstanding: dict[tuple[str, int], TraceRecord] = {}
        #: keys paired recently, mapped to the latest pairing (or
        #: duplicate) reply's wire time
        self._recent: dict[tuple[str, int], float] = {}
        #: chunk mode: replies whose call may sit in an earlier chunk
        self._deferred: list[TraceRecord] = []
        self._last_time = 0.0

    def push(self, record: TraceRecord) -> PairedOp | None:
        """Consume one record; returns the completed op on replies."""
        stats = self.stats
        time = record.time
        if time > self._last_time:
            self._last_time = time
        key = (record.client, record.xid)
        if record.direction == _CALL:
            stats.calls += 1
            outstanding = self._outstanding
            if key in outstanding:
                # duplicate xid before reply: retransmission; keep newest
                stats.unanswered_calls += 1
            outstanding[key] = record
            if stats.calls % _EXPIRE_EVERY == 0:
                self._expire()
            return None
        stats.replies += 1
        call = self._outstanding.pop(key, None)
        if call is None or time - call.time > self.reply_timeout:
            if call is not None:
                # too late to answer it: that call's reply was lost
                stats.unanswered_calls += 1
            self._unmatched(record, key)
            return None
        self._recent[key] = time
        count = call.count
        if call.proc is _READ and record.count is not None:
            count = record.count  # short reads: believe the reply
        status = record.status
        if status is None:
            status = _OK
        stats.paired += 1
        if status is not _OK:
            stats.errors += 1
        if self.spans is not None:
            _verdict_span(self.spans, call, call.time, time, "paired")
        # fields positionally, in PairedOp declaration order: one op per
        # reply makes a kwargs dict measurable
        return PairedOp(
            call.time, time, call.proc, call.client, call.xid, status,
            call.version, call.uid, call.fh, call.name, call.target_fh,
            call.target_name, call.offset, count, call.size,
            record.eof, record.fh, record.attr_size, record.attr_mtime,
            record.attr_ftype,
        )

    def _unmatched(self, record: TraceRecord, key: tuple[str, int]) -> None:
        """Judge a reply that has no call to pair."""
        time = record.time
        seen = self._recent.get(key)
        if seen is not None and time - seen <= self.reply_timeout:
            self.stats.duplicate_replies += 1
            self._recent[key] = time
            verdict = "duplicate_reply"
        elif self.chunk:
            self._deferred.append(record)
            return
        else:
            self.stats.orphan_replies += 1
            verdict = "orphan_reply"
        if self.spans is not None:
            _verdict_span(self.spans, record, time, time, verdict)

    def _expire(self) -> None:
        """Drop entries older than ``reply_timeout`` behind the newest
        record: any reply still to come is too late to pair those calls
        or to duplicate those pairs."""
        horizon = self._last_time - self.reply_timeout
        outstanding = self._outstanding
        stale = [k for k, c in outstanding.items() if c.time < horizon]
        for key in stale:
            del outstanding[key]
        self.stats.unanswered_calls += len(stale)
        recent = self._recent
        for key in [k for k, t in recent.items() if t < horizon]:
            del recent[key]

    def note_pair(self, key: tuple[str, int], time: float) -> None:
        """``key`` paired (or duplicated) at ``time`` in another pairer.

        A sequential pass would have seen that pair's call supersede any
        older outstanding call for the key, and later replies within
        ``reply_timeout`` of it are duplicates; this applies both.
        """
        call = self._outstanding.get(key)
        if call is not None and call.time < time:
            del self._outstanding[key]
            self.stats.unanswered_calls += 1
        self._recent[key] = time

    def export_boundary(self) -> tuple[list, list, dict]:
        """What this pairer could not settle, for a merge downstream.

        Returns the outstanding (tail) calls, the deferred replies, and
        the recent pairs within ``reply_timeout`` of the last record —
        the only ones a later reply could duplicate.  Nothing is
        charged: the caller owns the verdicts.
        """
        horizon = self._last_time - self.reply_timeout
        recent = {k: t for k, t in self._recent.items() if t >= horizon}
        return list(self._outstanding.values()), self._deferred, recent

    def close(self) -> PairingStats:
        """End of stream: count leftovers as unanswered; returns stats."""
        self.stats.unanswered_calls += len(self._outstanding)
        self._outstanding.clear()
        self._recent.clear()
        return self.stats

    def __len__(self) -> int:
        """Outstanding (unreplied) calls currently buffered."""
        return len(self._outstanding)


def _verdict_span(spans, record, start: float, end: float, verdict: str) -> None:
    """One ``pairer`` span for ``record``'s operation, when sampled."""
    proc = record.proc._value_
    tid = spans.trace_of(record.client, record.xid, proc)
    if tid is not None:
        spans.pairer_span(tid, proc, start, end, verdict)
