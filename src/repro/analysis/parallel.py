"""Parallel analysis fan-out over trace chunks.

Decode + pairing dominate analysis wall time, and both parallelize:
the trace is split into *content-derived* chunks (boundaries nudged so
records sharing one timestamp stay together), each chunk is decoded
and paired by a pool worker, and a deterministic merge resolves the
call/reply pairs that straddle chunk boundaries.  Workers and merge
run the one :class:`~repro.analysis.pairing.StreamPairer`.

``jobs=1`` and a one-chunk plan run the serial pass,
:func:`~repro.analysis.pairing.pair_trace`, which the fan-out
reproduces byte for byte: the plan never depends on the worker count,
and an unsorted trace is planned as one chunk.

The fan-out is built to keep the *parent's* serial section small,
because that is what Amdahl charges for:

* Workers never receive record objects: a :class:`ChunkSpec` carries a
  path plus a byte range, and each worker seeks and decodes its own
  slice.  Gzipped inputs are decompressed once into a spooled copy so
  workers seek raw bytes instead of each re-inflating the prefix.
* Workers never *return* op objects either.  Pickling every
  :class:`~repro.analysis.pairing.PairedOp` back through the pool's
  result pipe cost the parent more than the pairing saved
  (speedup_N < 1).  Each worker key-sorts its ops, serializes them into
  a binary segment (:mod:`repro.analysis.opsegment`), writes it to a
  file named by its chunk index in the run's temp directory, and
  returns a small stats struct plus the path; the parent does one
  streaming k-way merge-decode by the ``(time, client, xid)`` key.
* The binary string table is written once to a side file that workers
  read directly, instead of pickling a per-chunk snapshot of the whole
  table into every :class:`ChunkSpec`.
* Pools are kept warm in a per-size cache and reused by later
  ``parallel_pair`` calls, so repeated analyses don't pay fork+spawn
  per call.  A worker that dies mid-run ends the call with
  :class:`~repro.errors.WorkerDiedError` instead of hanging it, and
  the temp directory is removed after the pool's workers are reaped
  (:func:`repro.parallel.run_tasks`).

The paired operation list is built once and reused by every analysis
(summary, runs, characterization) instead of re-pairing per analysis —
see :func:`repro.cli.main.cmd_analyze`.
"""

from __future__ import annotations

import functools
import heapq
import io
import shutil
import tempfile
import time as _time
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path
from struct import Struct
from typing import Iterable

import repro.parallel as repro_parallel
from repro.errors import TraceFormatError
from repro.obs.gcpause import paused_gc
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.trace.binfmt import (
    _CONTAINER_ERRORS,
    _FRAME_HEAD,
    _RECORD_TAG,
    _STRING_TAG,
    BinaryTraceDecoder,
    is_binary_trace_path,
    open_binary_for_read,
    read_trace_header,
)
from repro.trace.record import Direction, TraceRecord, record_from_line
from repro.analysis.opsegment import decode_ops, encode_ops
from repro.analysis.pairing import (
    PairedOp,
    PairingStats,
    StreamPairer,
    call_order_key,
    pair_trace,
)

#: Nominal records per chunk when a fixed size is requested.  The
#: default (``chunk_records=None``) auto-tunes from the trace instead:
#: see :data:`_AUTO_TARGET_CHUNKS`.
DEFAULT_CHUNK_RECORDS = 65536

#: Auto-tuning: scan at a fine granule, then coalesce to ~this many
#: chunks (clamped to [_AUTO_MIN, _AUTO_MAX] records per chunk).  Many
#: smallish chunks balance well up to 8 workers; the clamp keeps
#: per-chunk overhead (task dispatch, segment setup) negligible on
#: tiny and huge traces alike.  Content-derived and jobs-independent.
_AUTO_GRANULE = 8192
_AUTO_TARGET_CHUNKS = 32
_AUTO_MIN_RECORDS = 16384
_AUTO_MAX_RECORDS = 262144

_TIME_STRUCT = Struct("<d")
_TABLE_LEN = Struct("<I")


@dataclass(frozen=True)
class ChunkSpec:
    """One self-contained slice of a trace file.

    ``offset``/``nbytes`` are in *decompressed* stream coordinates for
    ``.gz`` inputs (workers seek through the gzip stream).  For binary
    traces the string table as of ``offset`` is the first
    ``table_count`` entries of the shared side file ``table``, which
    workers read and cache instead of unpickling a snapshot per chunk.
    """

    path: str
    binary: bool
    offset: int
    nbytes: int
    records: int
    table: str | None = None
    table_count: int = 0


@dataclass
class PairedChunk:
    """A worker's partial result: pairs plus boundary leftovers.

    ``stats`` is the chunk pairer's own accounting; orphan verdicts are
    deferred to the merge, which receives the ``tail_calls``, the
    ``deferred`` replies and the ``recent`` pairs (see
    :meth:`~repro.analysis.pairing.StreamPairer.export_boundary`).
    """

    ops: list[PairedOp]
    stats: PairingStats
    tail_calls: list[TraceRecord]
    deferred: list[TraceRecord]
    recent: dict[tuple[str, int], float]
    #: the chunk pairer's buffered verdict spans (sampled ops only)
    spans: list
    wall_seconds: float = 0.0
    #: the ops travel back as a segment file (its path), not in ``ops``
    segment: str | None = None

    @property
    def calls(self) -> int:
        """Call records in the chunk."""
        return self.stats.calls

    @property
    def replies(self) -> int:
        """Reply records in the chunk."""
        return self.stats.replies


def plan_chunks(
    path: str | Path,
    table_dir: str | Path,
    *,
    chunk_records: int | None = DEFAULT_CHUNK_RECORDS,
) -> list[ChunkSpec]:
    """Index a trace into chunk specs (content-derived boundaries).

    ``chunk_records=None`` auto-tunes the chunk size from the trace's
    record count; an explicit value is honored exactly.  A binary
    trace's string table is spooled into ``table_dir``.  A trace whose
    times ever decrease is planned as one chunk.
    """
    return _plan(str(path), chunk_records, str(table_dir))


def _plan(path: str, chunk_records: int | None, table_dir: str) -> list[ChunkSpec]:
    auto = chunk_records is None
    granule = _AUTO_GRANULE if auto else chunk_records
    if is_binary_trace_path(path):
        specs, ordered = _plan_binary(path, granule, table_dir)
    else:
        specs, ordered = _plan_text(path, granule)
    if not ordered:
        # the merge replays leftovers in time order, the serial pass
        # goes in file order: only one chunk pairs unsorted input alike
        return _coalesce(specs, float("inf"))
    if not auto or len(specs) <= 1:
        return specs
    total = sum(spec.records for spec in specs)
    target = -(-total // _AUTO_TARGET_CHUNKS)  # ceil
    target = min(max(target, _AUTO_MIN_RECORDS), _AUTO_MAX_RECORDS)
    return _coalesce(specs, target)


def _coalesce(minis: list[ChunkSpec], target: int) -> list[ChunkSpec]:
    """Merge adjacent fine-granule chunks up to ~``target`` records.

    Every mini boundary already respects the equal-timestamp rule, so
    any subset of those boundaries does too.
    """
    specs: list[ChunkSpec] = []
    acc: ChunkSpec | None = None
    for spec in minis:
        if acc is None:
            acc = spec
        elif acc.records >= target:
            specs.append(acc)
            acc = spec
        else:
            acc = replace(
                acc, nbytes=acc.nbytes + spec.nbytes,
                records=acc.records + spec.records,
            )
    if acc is not None:
        specs.append(acc)
    return specs


class _TableWriter:
    """Appends string definitions to the shared side file."""

    def __init__(self, directory: str) -> None:
        self.path = str(Path(directory) / "strings.tbl")
        # a plan into a directory used before rewrites its table
        _TABLE_CACHE.pop(self.path, None)
        self._file = open(self.path, "wb")
        self.count = 0

    def add(self, data: bytes) -> None:
        self._file.write(_TABLE_LEN.pack(len(data)))
        self._file.write(data)
        self.count += 1

    def close(self) -> None:
        self._file.close()


def _plan_binary(
    path: str, chunk_records: int, table_dir: str
) -> tuple[list[ChunkSpec], bool]:
    # A light frame scan: no record objects, just frame heads, string
    # payloads (spooled for the workers) and each record's leading f64
    # time.  Returns the specs and whether the times never decrease.
    frame_head = _FRAME_HEAD
    frame_head_size = frame_head.size
    unpack_time = _TIME_STRUCT.unpack_from
    specs: list[ChunkSpec] = []
    table = _TableWriter(table_dir)
    fileobj = open_binary_for_read(path)
    try:
        offset = read_trace_header(fileobj)
        chunk_start = offset
        chunk_strings = 0  # string count at chunk_start
        count = 0
        last_time = None
        ordered = True
        file_read = fileobj.read
        chunk_size = 1 << 20
        buf = b""
        pos = 0

        def emit() -> None:
            specs.append(
                ChunkSpec(
                    path=path, binary=True, offset=chunk_start,
                    nbytes=offset - chunk_start, records=count,
                    table=table.path, table_count=chunk_strings,
                )
            )

        while True:
            if len(buf) - pos < frame_head_size:
                buf = buf[pos:] + file_read(chunk_size)
                pos = 0
                if not buf:
                    break
                if len(buf) < frame_head_size:
                    raise TraceFormatError("truncated frame header")
            tag, length = frame_head.unpack_from(buf, pos)
            body = pos + frame_head_size
            end = body + length
            if end > len(buf):
                tail = buf[pos:]
                need = frame_head_size + length - len(tail)
                buf = tail + file_read(
                    need if need > chunk_size else chunk_size
                )
                pos = 0
                body = frame_head_size
                end = body + length
                if len(buf) < end:
                    raise TraceFormatError("truncated frame payload")
            if tag == _RECORD_TAG:
                (when,) = unpack_time(buf, body)
                if last_time is not None and when < last_time:
                    ordered = False
                if count >= chunk_records and when != last_time:
                    emit()
                    chunk_start = offset
                    chunk_strings = table.count
                    count = 0
                count += 1
                last_time = when
            elif tag == _STRING_TAG:
                # workers decode; the planner only spools the bytes
                table.add(buf[body:end])
            else:
                raise TraceFormatError(f"unknown frame tag 0x{tag:02x}")
            offset += frame_head_size + length
            pos = end
        if offset > chunk_start:
            emit()
    except _CONTAINER_ERRORS as exc:
        raise TraceFormatError(f"corrupt compressed container: {exc}") from exc
    finally:
        table.close()
        fileobj.close()
    return specs, ordered


def _open_raw(path: str):
    """Byte-stream open, gzip-transparent (offsets are decompressed)."""
    if path.endswith(".gz"):
        import gzip

        return io.BufferedReader(gzip.open(path, "rb"))
    return open(path, "rb")


def _spool_gz(path: str, workdir: str) -> str:
    """Decompress ``path`` once into ``workdir``; return the copy.

    Chunk offsets are decompressed-stream coordinates, so a worker
    seeking into a ``.gz`` file re-inflates everything before its
    chunk — O(n²) total re-decompression across the plan plus the
    planning pass itself.  One spooled copy makes every later seek a
    raw file seek.
    """
    import gzip

    out = Path(workdir) / Path(path).name[: -len(".gz")]
    try:
        with gzip.open(path, "rb") as src, open(out, "wb") as dst:
            shutil.copyfileobj(src, dst, 1 << 20)
    except _CONTAINER_ERRORS as exc:
        raise TraceFormatError(f"corrupt compressed container: {exc}") from exc
    return str(out)


def _plan_text(path: str, chunk_records: int) -> tuple[list[ChunkSpec], bool]:
    specs: list[ChunkSpec] = []
    offset = 0
    chunk_start = 0
    count = 0
    last_time = None
    ordered = True
    try:
        with _open_raw(path) as fileobj:
            for line in fileobj:
                stripped = line.strip()
                if stripped and not stripped.startswith(b"#"):
                    try:
                        when = float(stripped.split(b" ", 1)[0])
                    except ValueError:
                        when = last_time  # malformed: the worker will complain
                    if last_time is not None and when < last_time:
                        ordered = False
                    if count >= chunk_records and when != last_time:
                        specs.append(
                            ChunkSpec(
                                path=path,
                                binary=False,
                                offset=chunk_start,
                                nbytes=offset - chunk_start,
                                records=count,
                            )
                        )
                        chunk_start = offset
                        count = 0
                    count += 1
                    last_time = when
                offset += len(line)
    except _CONTAINER_ERRORS as exc:
        raise TraceFormatError(f"corrupt compressed container: {exc}") from exc
    if offset > chunk_start:
        specs.append(
            ChunkSpec(
                path=path,
                binary=False,
                offset=chunk_start,
                nbytes=offset - chunk_start,
                records=count,
            )
        )
    return specs, ordered


#: Per-process cache of shared string tables: path -> loaded strings.
#: The table file is complete before any worker reads it, and pooled
#: workers handle many chunks of the same plan, so each process parses
#: the table once and slices prefixes per chunk.
_TABLE_CACHE: dict[str, list[str]] = {}


def _table_prefix(path: str, count: int) -> list[str]:
    strings = _TABLE_CACHE.get(path)
    if strings is None:
        # one plan at a time per pool: a new table path means the old
        # run is over, so don't let warm workers hoard dead tables
        _TABLE_CACHE.clear()
        strings = []
        unpack = _TABLE_LEN.unpack_from
        len_size = _TABLE_LEN.size
        with open(path, "rb") as fileobj:
            data = fileobj.read()
        pos = 0
        total = len(data)
        try:
            while pos < total:
                (nbytes,) = unpack(data, pos)
                pos += len_size
                strings.append(str(data[pos : pos + nbytes], "utf-8"))
                pos += nbytes
        except (IndexError, UnicodeDecodeError) as exc:
            raise TraceFormatError(f"corrupt string table: {exc}") from exc
        _TABLE_CACHE[path] = strings
    return strings[:count]


def decode_chunk(spec: ChunkSpec) -> list[TraceRecord]:
    """Decode one chunk's records (worker side; strict)."""
    if spec.binary:
        with open_binary_for_read(spec.path) as fileobj:
            fileobj.seek(spec.offset)
            payload = fileobj.read(spec.nbytes)
        decoder = BinaryTraceDecoder(
            io.BytesIO(payload), expect_header=False,
            strings=_table_prefix(spec.table, spec.table_count),
        )
        with paused_gc():
            return list(decoder)
    with _open_raw(spec.path) as fileobj:
        fileobj.seek(spec.offset)
        payload = fileobj.read(spec.nbytes)
    records = []
    append = records.append
    with paused_gc():
        for raw in payload.decode("utf-8").splitlines():
            raw = raw.strip()
            if raw and not raw.startswith("#"):
                append(record_from_line(raw))
    return records


#: Pool purpose key in the shared ``repro.parallel`` registry.
_POOL_PURPOSE = "analysis"


def pair_chunk(spec: ChunkSpec, sample: float = 0.0) -> PairedChunk:
    """Decode and pair one chunk (worker side).

    ``sample`` is the span sampling rate: a positive rate makes the
    chunk pairer record verdict spans for the merge to adopt.
    """
    return _pair_partial(decode_chunk(spec), sample=sample)


def _pair_chunk_segment(
    item: tuple[int, ChunkSpec], *, sample: float, workdir: str
) -> PairedChunk:
    """Pool-side chunk task: pair, then publish ops as a segment file.

    The ops are key-sorted *here*, in the worker, so the parent can
    k-way merge the per-chunk streams instead of sorting the world.
    """
    index, spec = item
    started = _time.perf_counter()
    with paused_gc():
        partial = pair_chunk(spec, sample)
        ops = partial.ops
        ops.sort(key=call_order_key)
        payload = encode_ops(ops)
    partial.ops = []
    partial.segment = repro_parallel.publish_segment(
        workdir, f"{index}.ops", payload
    )
    partial.wall_seconds = _time.perf_counter() - started
    return partial


def _pair_partial(
    records: Iterable[TraceRecord], *, sample: float = 0.0
) -> PairedChunk:
    """Pair one chunk with a chunk-mode :class:`StreamPairer`.

    Boundary effects are *returned* instead of charged: a reply with no
    call may have its call in an earlier chunk, an outstanding call its
    reply in a later one.  The merge in :func:`parallel_pair` settles
    both.
    """
    spans = SpanRecorder(None, sample=sample, buffered=True) if sample else None
    pairer = StreamPairer(chunk=True, spans=spans)
    ops = [op for op in map(pairer.push, records) if op is not None]
    tail_calls, deferred, recent = pairer.export_boundary()
    return PairedChunk(
        ops, pairer.stats, tail_calls, deferred, recent,
        spans.take_pending() if spans is not None else [],
    )


def _merge_boundaries(
    partials: list[PairedChunk], spans
) -> tuple[PairingStats, list[PairedOp]]:
    """Settle what the chunks could not: one more :class:`StreamPairer`.

    It replays every chunk's tail calls, deferred replies and recent
    pairs in time order, so boundary-straddling pairs, duplicates and
    orphans get the serial pass's verdicts; its calls still
    outstanding at the end are unanswered.  Returns the whole trace's
    stats and the boundary ops.
    """
    stats = PairingStats()
    events = []
    for partial in partials:
        stats += partial.stats
        for record in partial.tail_calls + partial.deferred:
            events.append((_leftover_sort_key(record), record))
        for (client, xid), when in partial.recent.items():
            events.append(((when, 0, client, xid), None))
        if spans is not None:
            spans.adopt(partial.spans)
    events.sort(key=itemgetter(0))
    merger = StreamPairer(spans=spans)
    ops = []
    for (when, _, client, xid), record in events:
        if record is None:
            merger.note_pair((client, xid), when)
        else:
            op = merger.push(record)
            if op is not None:
                ops.append(op)
    merged = merger.stats
    # each leftover was already counted as a call or reply by its chunk
    merged.calls = merged.replies = 0
    merged.unanswered_calls += len(merger)
    return stats + merged, ops


def _leftover_sort_key(record: TraceRecord):
    # Replies (and recent-pair notes) before calls at equal times: the
    # planner never splits equal times, so in file order a leftover
    # reply came before any leftover call of its time, which would
    # otherwise have answered it.
    return (
        record.time,
        1 if record.direction == Direction.CALL else 0,
        record.client,
        record.xid,
    )


def _map_chunks(
    specs: list[ChunkSpec],
    *,
    jobs: int,
    sample: float,
    workdir: str,
) -> tuple[list[PairedChunk], int]:
    """Fan chunks over a warm pool; ops come back as segment files.

    Returns the chunk results and the pool size they ran on.
    """
    processes = min(jobs, len(specs))
    pair = functools.partial(
        _pair_chunk_segment, sample=sample, workdir=workdir
    )
    partials = repro_parallel.run_tasks(
        _POOL_PURPOSE, processes, pair, list(enumerate(specs))
    )
    return partials, processes


def parallel_pair(
    path: str | Path,
    *,
    jobs: int = 1,
    chunk_records: int | None = None,
    metrics: MetricsRegistry | None = None,
    spans=None,
) -> tuple[list[PairedOp], PairingStats]:
    """Pair a whole trace, fanning chunks over a process pool.

    Returns ``(ops, stats)`` exactly as the serial pass
    :func:`~repro.analysis.pairing.pair_trace` does, which ``jobs=1``
    and a one-chunk plan run.  Otherwise the chunk plan is
    content-derived (``chunk_records=None`` auto-tunes it from the
    record count), each worker pairs and key-sorts one chunk, a final
    pairing pass settles the chunks' leftovers (anything still
    unmatched is capture loss), and a k-way merge lists the ops.

    With a *buffered* :class:`~repro.obs.spans.SpanRecorder` every
    chunk pairer records its verdict spans, which travel back with the
    chunk and join the merge's own; the recorder's canonical close
    order makes the exported span stream byte-identical to the serial
    and streaming pairers'.  ``metrics`` gets ``analysis.pool.*`` (the
    serial pass as one job running one chunk).

    ``jobs`` below 1 raises :class:`ValueError`.  A pool worker that
    dies raises :class:`~repro.errors.WorkerDiedError`.
    """
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    started = _time.perf_counter()
    path = str(path)
    workdir = tempfile.mkdtemp(prefix="repro-pair-") if jobs > 1 else None
    try:
        specs: list[ChunkSpec] = []
        if workdir is not None:
            if path.endswith(".gz"):
                path = _spool_gz(path, workdir)
            specs = _plan(path, chunk_records, workdir)
        if len(specs) < 2:  # jobs=1 or a one-chunk plan: the serial pass
            pass_started = _time.perf_counter()
            ops, stats = pair_trace(path, spans=spans)
            pool_size, chunk_seconds = 1, [_time.perf_counter() - pass_started]
        else:
            sample = spans.sample if spans is not None else 0.0
            with paused_gc():
                partials, pool_size = _map_chunks(
                    specs, jobs=jobs, sample=sample, workdir=workdir
                )
            stats, boundary_ops = _merge_boundaries(partials, spans)
            with paused_gc():
                # Streaming k-way merge-decode: each chunk's segment is
                # already key-sorted, the sorted boundary ops go last, so
                # equal keys resolve in chunk order and then boundary:
                # reply order, as the serial pass's stable sort does.
                streams = [
                    decode_ops(repro_parallel.claim_segment(p.segment))
                    for p in partials
                ]
                if boundary_ops:
                    boundary_ops.sort(key=call_order_key)
                    streams.append(iter(boundary_ops))
                ops = list(heapq.merge(*streams, key=call_order_key))
            chunk_seconds = [p.wall_seconds for p in partials]
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    if metrics is not None:
        wall = _time.perf_counter() - started
        metrics.gauge("analysis.pool.jobs").set(pool_size)
        metrics.gauge("analysis.pool.chunks").set(len(chunk_seconds))
        metrics.gauge("analysis.pool.utilization").set(
            sum(chunk_seconds) / (pool_size * wall) if wall > 0 else 0.0
        )
        chunk_hist = metrics.histogram("analysis.pool.chunk_seconds")
        for seconds in chunk_seconds:
            chunk_hist.observe(seconds)
        metrics.counter("analysis.pool.records").inc(stats.calls + stats.replies)
        metrics.counter("analysis.pool.ops").inc(len(ops))
    return ops, stats
