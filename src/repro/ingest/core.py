"""The shared ingest pipeline: adapter events -> normalized ``.rtb``.

Every adapter streams through this one core, so every dialect gets the
same guarantees:

* **one error policy** — malformed source units surface as
  :class:`~repro.ingest.base.BadLine`; ``skip`` counts them (the
  ``ingest.skipped{adapter,reason}`` metric) and drops them, ``fail``
  raises :class:`~repro.errors.IngestError` with the line diagnostic;
* **monotonic wire time** — foreign captures jitter, so :func:`ingest`
  writes through a :class:`~repro.trace.writer.TraceWriter` whose
  bounded sort window (``window`` seconds, a finite number >= 0)
  lands records in stable ``(time, arrival)`` order.  The writer
  flushes only records at least ``window`` seconds behind the newest
  one, so a record arriving more than ``window`` seconds behind the
  newest could sort before one already written: it is a
  ``time-regression`` handled by the same error policy, as is a
  record whose time is not finite (``bad-time``), and the written
  trace is always non-decreasing in time;
* **string interning** — client/server/handle/name strings repeat
  enormously in real traces; :func:`sys.intern` keeps a single copy of
  each while records are in flight (the binary encoder then interns
  again on disk);
* **deterministic output** — no wall clock, no randomness: the same
  input lines produce byte-identical ``.rtb``/``.rtb.gz`` whether they
  came from a file or were streamed over stdin.
"""

from __future__ import annotations

import gzip
import io
import itertools
import math
import sys
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import IngestError
from repro.ingest.base import SNIFF_LINES, BadLine
from repro.obs.metrics import MetricsRegistry
from repro.trace.record import TraceRecord
from repro.trace.writer import TraceWriter

#: Default bounded reorder window (seconds) for monotonic-time repair.
#: Five seconds matches the TraceWriter's native capture window: the
#: paper's nfsiod delays top out at 1 s, and foreign captures we have
#: seen jitter far less than this.
DEFAULT_REORDER_WINDOW = 5.0

#: Errors a line source can raise mid-iteration (truncated gzip,
#: binary garbage opened as text, ...) — folded into IngestError so
#: the CLI's one-line exit-2 contract holds for unreadable input.
_SOURCE_ERRORS = (UnicodeDecodeError, EOFError, OSError, zlib.error)


@dataclass
class IngestStats:
    """What one ingest run saw."""

    adapter: str = ""
    lines: int = 0  # source units the adapter consumed
    records: int = 0  # normalized records emitted
    skipped: int = 0  # BadLine units dropped (skip policy)
    out_of_order: int = 0  # records that arrived behind the max time
    reasons: Counter = field(default_factory=Counter)


@contextmanager
def open_lines(source):
    """Line iterator over a path, ``-`` (stdin), or an open iterable.

    Paths ending ``.gz`` are gzip text; undecodable bytes are replaced
    rather than fatal (the adapters will yield ``BadLine`` for the
    mangled lines, so the error policy decides).  ``-`` wraps
    ``sys.stdin`` without closing it.  Any other iterable is passed
    through untouched (library callers hand in line lists directly).
    """
    if source == "-":
        yield iter(sys.stdin)
        return
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.suffix == ".gz":
            handle = io.TextIOWrapper(
                gzip.open(path, "rb"), encoding="utf-8", errors="replace"
            )
        else:
            handle = open(path, "r", encoding="utf-8", errors="replace")
        try:
            yield handle
        finally:
            handle.close()
        return
    yield iter(source)


def _count_lines(lines: Iterable[str], stats: IngestStats) -> Iterator[str]:
    for line in lines:
        stats.lines += 1
        yield line


def normalize(
    events,
    *,
    adapter: str,
    on_error: str = "skip",
    window: float = DEFAULT_REORDER_WINDOW,
    stats: IngestStats | None = None,
    metrics: MetricsRegistry | None = None,
) -> Iterator[TraceRecord]:
    """Apply the error policy to an adapter's event stream.

    ``events`` yields :class:`TraceRecord` and :class:`BadLine` (what
    :meth:`TraceAdapter.records` produces).  Records pass through in
    arrival order, less any whose time is not finite (``bad-time``:
    ``nan``, ``inf`` or ``-inf``) and any that arrive more than
    ``window`` seconds behind the newest record seen (a
    ``time-regression``), so a ``TraceWriter(sort_window=window)`` fed
    this stream writes it non-decreasing in time.  The output is
    deterministic for a fixed input.

    Raises:
        IngestError: under the ``fail`` policy, on the first bad line,
            non-finite time or late record; always, for an invalid
            ``on_error`` value.
    """
    if on_error not in ("skip", "fail"):
        raise IngestError(
            f"unknown error policy {on_error!r} (use 'skip' or 'fail')"
        )
    if stats is None:
        stats = IngestStats(adapter=adapter)
    skip_counter = (
        metrics.counter if metrics is not None else None
    )

    def bad(reason: str, detail: str) -> None:
        if on_error == "fail":
            raise IngestError(f"{adapter}: {detail}")
        stats.skipped += 1
        stats.reasons[reason] += 1
        if skip_counter is not None:
            skip_counter("ingest.skipped", adapter=adapter, reason=reason).inc()

    isfinite = math.isfinite
    max_time = float("-inf")
    for event in events:
        if type(event) is BadLine:
            bad(event.reason, str(event))
            continue
        time = event.time
        if not isfinite(time):
            # nan compares false with everything and inf outruns every
            # later record: either would break the time repair
            bad(
                "bad-time",
                f"record time {time!r} is not finite "
                f"(client {event.client}, xid {event.xid:x})",
            )
            continue
        if time < max_time:
            stats.out_of_order += 1
            # strict: the writer flushes at most up to newest - window,
            # so a record exactly on that horizon still lands in order
            if time < max_time - window:
                bad(
                    "time-regression",
                    f"record at {time:.6f} arrived more than {window:g}s "
                    f"late (newest {max_time:.6f}); raise the reorder window",
                )
                continue
        else:
            max_time = time
        stats.records += 1
        yield event
    if metrics is not None:
        metrics.counter("ingest.records", adapter=adapter).inc(stats.records)
        metrics.counter("ingest.lines", adapter=adapter).inc(stats.lines)


def _intern_records(
    records: Iterable[TraceRecord],
) -> Iterator[TraceRecord]:
    intern = sys.intern
    for record in records:
        record.client = intern(record.client)
        record.server = intern(record.server)
        if record.fh is not None:
            record.fh = intern(record.fh)
        if record.name is not None:
            record.name = intern(record.name)
        if record.target_fh is not None:
            record.target_fh = intern(record.target_fh)
        if record.target_name is not None:
            record.target_name = intern(record.target_name)
        if record.attr_ftype is not None:
            record.attr_ftype = intern(record.attr_ftype)
        yield record


def ingest(
    source,
    out,
    *,
    registry=None,
    fmt: str = "auto",
    on_error: str = "skip",
    window: float = DEFAULT_REORDER_WINDOW,
    metrics: MetricsRegistry | None = None,
) -> IngestStats:
    """Convert a foreign archive at ``source`` into a trace at ``out``.

    ``source`` may be a path (gzip by suffix), ``-`` for stdin, or any
    iterable of lines.  ``out`` picks the container by suffix exactly
    like :class:`~repro.trace.writer.TraceWriter` (``.rtb``/``.rtb.gz``
    binary, anything else text).  On any failure the partial output is
    unlinked, so a failed ingest leaves nothing behind.

    Raises:
        IngestError: unreadable input, bad policy, a ``window`` that is
            not a finite number >= 0 (raised before ``out`` is touched),
            or (under ``fail``) the first malformed line, non-finite
            time or late record.
        ValueError: unknown/ambiguous format, or zero records ingested
            (an empty archive converts to nothing useful).
    """
    # a nan or inf window never flushes (the whole input stays in
    # memory) and never finds a record late; a negative one acts as 0
    if not (math.isfinite(window) and window >= 0):
        raise IngestError(
            f"reorder window must be a finite number >= 0, got {window!r}"
        )
    if registry is None:
        from repro.ingest import REGISTRY

        registry = REGISTRY
    stats = IngestStats()
    try:
        try:
            with open_lines(source) as lines:
                lines = _count_lines(lines, stats)
                if fmt == "auto":
                    head = list(itertools.islice(lines, SNIFF_LINES))
                    adapter = registry.sniff(head)
                    lines = itertools.chain(head, lines)
                else:
                    adapter = registry.get(fmt)
                stats.adapter = adapter.name
                normalized = _intern_records(
                    normalize(
                        adapter.records(lines),
                        adapter=adapter.name,
                        on_error=on_error,
                        window=window,
                        stats=stats,
                        metrics=metrics,
                    )
                )
                # the writer's window does the time repair normalize
                # checked the stream against
                with TraceWriter(
                    out, sort_window=window, metrics=metrics
                ) as writer:
                    for record in normalized:
                        writer.write(record)
        except _SOURCE_ERRORS as exc:
            if isinstance(exc, FileNotFoundError):
                raise  # the CLI's not-found message is clearer unwrapped
            raise IngestError(f"unreadable input {source!r}: {exc}") from exc
        if stats.records == 0:
            raise ValueError(
                f"no records ingested from {source!r} "
                f"(adapter {adapter.name}, {stats.skipped} lines skipped)"
            )
    except BaseException:
        Path(out).unlink(missing_ok=True)  # no partial output
        raise
    return stats
