"""Segment rotation for long-running capture (``repro monitor``).

The paper's monitors ran for months; ours can too only if output files
stay bounded.  This module rotates both output streams the monitor
produces — the binary trace (``.rtb.gz`` segments via
:class:`~repro.trace.writer.TraceWriter`) and the span event log
(``.jsonl`` segments via :class:`~repro.obs.eventlog.EventLog`) — by
**size** (bytes written) and **age** (simulated seconds spanned), under
a **retention budget** (oldest segments unlinked once the count
exceeds it).

Segment names are ``{prefix}-{index:06d}{suffix}`` with a monotonically
increasing index, so lexical order is rotation order and
:func:`list_segments` recovers the sequence after the fact — which is
what ``repro query`` scans.  The open segment is named ``partial-``
plus its final name (the suffix, and so the format, stays) until it
rolls or closes, so a segment a crashed writer left cut never looks
complete; :func:`partial_segments` lists those.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from typing import TYPE_CHECKING

from repro.obs.eventlog import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.trace.record import TraceRecord

if TYPE_CHECKING:  # deferred: trace.writer -> binfmt -> obs is a cycle
    from repro.trace.writer import TraceWriter


@dataclass(frozen=True)
class RotationPolicy:
    """When to cut a segment and how many to keep.

    Args:
        max_bytes: cut once a segment holds this many written bytes
            (pre-compression for ``.gz``); None disables size rotation.
        max_age: cut once a segment spans this many *simulated*
            seconds; None disables age rotation.
        retain: keep at most this many segments, unlinking the oldest;
            None keeps everything.
    """

    max_bytes: int | None = 8 * 1024 * 1024
    max_age: float | None = None
    retain: int | None = None

    def __post_init__(self) -> None:
        if self.max_bytes is not None and self.max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if self.max_age is not None and self.max_age <= 0:
            raise ValueError("max_age must be positive")
        if self.retain is not None and self.retain <= 0:
            raise ValueError("retain must be positive")


def segment_path(
    directory: str | Path, prefix: str, index: int, suffix: str
) -> Path:
    """The path of segment ``index`` under the naming convention."""
    return Path(directory) / f"{prefix}-{index:06d}{suffix}"


def list_segments(
    directory: str | Path, prefix: str, suffix: str = ""
) -> list[Path]:
    """Complete segments for ``prefix``, in rotation (index) order."""
    pattern = f"{prefix}-*{suffix}" if suffix else f"{prefix}-*"
    return sorted(Path(directory).glob(pattern))


#: Name prefix of a segment that is still open (or was abandoned open).
PARTIAL = "partial-"


def partial_segments(
    directory: str | Path, prefix: str, suffix: str = ""
) -> list[Path]:
    """Open or abandoned segments for ``prefix``, in index order."""
    return list_segments(directory, PARTIAL + prefix, suffix)


class _RotatingBase:
    """Shared segment accounting for both rotating writers."""

    def __init__(
        self,
        directory: str | Path,
        *,
        prefix: str,
        suffix: str,
        policy: RotationPolicy,
        metrics: MetricsRegistry | None = None,
        kind: str = "trace",
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self.suffix = suffix
        self.policy = policy
        self.kind = kind
        self.index = 0
        self.segments_written = 0
        self.segments_retired = 0
        self._segment_start: float | None = None
        self._paths: list[Path] = []
        self._m_segments = None
        self._m_retired = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """(Re)register this writer's counters in ``metrics``.

        For callers that must create the writer before the registry
        exists — ``repro monitor`` builds the span sink first because
        :class:`~repro.workloads.TracedSystem` wants it at construction.
        """
        self._m_segments = metrics.counter("obs.segments", kind=self.kind)
        self._m_retired = metrics.counter("obs.segments_retired", kind=self.kind)
        if self.segments_written:
            self._m_segments.inc(self.segments_written)
        if self.segments_retired:
            self._m_retired.inc(self.segments_retired)

    def _next_path(self) -> Path:
        """Start the next segment; returns its partial name."""
        self.index += 1
        final = segment_path(self.directory, self.prefix, self.index, self.suffix)
        path = final.with_name(PARTIAL + final.name)
        self._paths.append(path)
        return path

    def _closed(self) -> None:
        """The open segment is complete: rename it, apply retention."""
        path = self._paths[-1]
        final = path.with_name(path.name[len(PARTIAL):])
        path.replace(final)
        self._paths[-1] = final
        self._segment_start = None
        self._enforce_retention()

    def _opened(self) -> None:
        self.segments_written += 1
        if self._m_segments is not None:
            self._m_segments.inc()

    def _due(self, written_bytes: int, time: float) -> bool:
        policy = self.policy
        if policy.max_bytes is not None and written_bytes >= policy.max_bytes:
            return True
        if policy.max_age is not None and self._segment_start is not None:
            if time - self._segment_start >= policy.max_age:
                return True
        return False

    def _enforce_retention(self) -> None:
        retain = self.policy.retain
        if retain is None:
            return
        while len(self._paths) > retain:
            oldest = self._paths.pop(0)
            oldest.unlink(missing_ok=True)
            self.segments_retired += 1
            if self._m_retired is not None:
                self._m_retired.inc()

    @property
    def paths(self) -> list[Path]:
        """Paths of segments still on disk, oldest first."""
        return list(self._paths)


class RotatingTraceWriter(_RotatingBase):
    """A :class:`~repro.trace.writer.TraceWriter` that rotates segments.

    Each segment is an ordinary trace file (binary or text by suffix).
    Fed the collector's released stream, which is in exact wire order,
    any segment — and any concatenation of consecutive segments — is a
    valid time-sorted trace for the analysis tools.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        prefix: str = "trace",
        suffix: str = ".rtb.gz",
        policy: RotationPolicy | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(
            directory, prefix=prefix, suffix=suffix,
            policy=policy if policy is not None else RotationPolicy(),
            metrics=metrics, kind="trace",
        )
        self._writer: TraceWriter | None = None
        self.records_written = 0

    def write(self, record: TraceRecord) -> None:
        """Write one record, cutting a new segment when the policy says."""
        writer = self._writer
        if writer is None:
            from repro.trace.writer import TraceWriter

            # block_records=1: rotation reads bytes_written after every
            # record, so the writer must not hold records in a block.
            writer = TraceWriter(self._next_path(), block_records=1)
            self._writer = writer
            self._segment_start = record.time
            self._opened()
        writer.write(record)
        self.records_written += 1
        if self._due(writer.bytes_written, record.time):
            self.roll()

    def roll(self) -> None:
        """Close the current segment now (the next write opens a new one)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            self._closed()

    def close(self) -> None:
        """Close the writer, flushing the open segment."""
        self.roll()

    def __enter__(self) -> "RotatingTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RotatingEventLog(_RotatingBase):
    """An :class:`~repro.obs.eventlog.EventLog` sink that rotates segments.

    Presents the same ``emit``/``flush``/``close`` surface as EventLog
    (so a :class:`~repro.obs.spans.SpanRecorder` can use it as its
    sink), but writes each segment through its own EventLog over a file
    handle this object owns — size is tracked with ``tell()`` and age
    with the ``time`` field of emitted events.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        prefix: str = "spans",
        suffix: str = ".jsonl",
        policy: RotationPolicy | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(
            directory, prefix=prefix, suffix=suffix,
            policy=policy if policy is not None else RotationPolicy(),
            metrics=metrics, kind="spans",
        )
        self._log: EventLog | None = None
        self._handle = None
        self.events_written = 0

    def emit(self, event: str, *, time: float | None = None, **fields) -> dict:
        """Emit one event into the current segment; returns the record."""
        log = self._log
        if log is None:
            path = self._next_path()
            self._handle = open(path, "w", encoding="utf-8")
            log = EventLog(self._handle)
            self._log = log
            self._segment_start = time
            self._opened()
        elif self._segment_start is None and time is not None:
            self._segment_start = time
        record = log.emit(event, time=time, **fields)
        self.events_written += 1
        if self._due(self._handle.tell(), time if time is not None else 0.0):
            self.roll()
        return record

    def roll(self) -> None:
        """Close the current segment now (the next emit opens a new one)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._log = None
            self._closed()

    def flush(self) -> None:
        """Flush the open segment, if any."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Close the log, flushing the open segment."""
        self.roll()

    def __enter__(self) -> "RotatingEventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
