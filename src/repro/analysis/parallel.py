"""Parallel analysis fan-out over trace chunks.

Decode + pairing dominate analysis wall time, and both parallelize:
the trace is split into *content-derived* chunks (boundaries nudged so
records sharing one timestamp stay together), each chunk is decoded
and paired by a worker, and a deterministic merge resolves the
call/reply pairs that straddle chunk boundaries.  Workers and merge
run the one :class:`~repro.analysis.pairing.StreamPairer`.

Chunk planning depends only on the trace — never on the worker count —
so ``jobs=1`` and ``jobs=N`` walk identical chunk lists through
identical merge code and produce identical results, byte for byte.
``jobs=1`` runs the same code path inline without a pool.

The fan-out is built to keep the *parent's* serial section small,
because that is what Amdahl charges for:

* Workers never receive record objects: a :class:`ChunkSpec` carries a
  path plus a byte range, and each worker seeks and decodes its own
  slice.  Gzipped inputs are decompressed once into a spooled copy so
  workers seek raw bytes instead of each re-inflating the prefix.
* Workers never *return* op objects either.  ``Pool.map`` used to
  pickle every :class:`~repro.analysis.pairing.PairedOp` back through
  the result queue, and the parent-side unpickle cost more than the
  pairing saved (speedup_N < 1).  Each worker now key-sorts its ops,
  serializes them into a binary segment
  (:mod:`repro.analysis.opsegment`: shared memory, or spooled files),
  and returns a small stats struct plus a handle; the parent does one
  streaming k-way merge-decode by the ``(time, client, xid)`` key.
* The binary string table is written once to a side file that workers
  read directly, instead of pickling a per-chunk snapshot of the whole
  table into every :class:`ChunkSpec`.
* Pools are kept warm in a per-size cache and reused by later
  ``parallel_pair`` calls, so repeated analyses don't pay fork+spawn
  per call.

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
from repro.analysis.opsegment import (
    claim_segment,
    decode_ops,
    default_transport,
    encode_ops,
    publish_segment,
    sweep_segments,
)
from repro.analysis.pairing import (
    PairedOp,
    PairingStats,
    StreamPairer,
    call_order_key,
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
    traces the string table as of ``offset`` comes either inline
    (``strings``) or — when planned for a pool — as the first
    ``table_count`` entries of the shared side file ``table``, which
    workers read and cache instead of unpickling a snapshot per chunk.
    """

    path: str
    binary: bool
    offset: int
    nbytes: int
    records: int
    strings: tuple[str, ...] = ()
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
    #: pool mode: ops travel as a published segment, not in ``ops``
    segment: tuple[str, str, int] | None = None
    op_count: int = 0

    @property
    def calls(self) -> int:
        """Call records in the chunk."""
        return self.stats.calls

    @property
    def replies(self) -> int:
        """Reply records in the chunk."""
        return self.stats.replies


def plan_chunks(
    path: str | Path, *, chunk_records: int | None = DEFAULT_CHUNK_RECORDS
) -> list[ChunkSpec]:
    """Index a trace into chunk specs (content-derived boundaries).

    ``chunk_records=None`` auto-tunes the chunk size from the trace's
    record count; an explicit value is honored exactly.
    """
    return _plan(str(path), chunk_records, table_dir=None)


def _plan(
    path: str, chunk_records: int | None, table_dir: str | None
) -> list[ChunkSpec]:
    auto = chunk_records is None
    granule = _AUTO_GRANULE if auto else chunk_records
    if is_binary_trace_path(path):
        specs = _plan_binary(path, granule, table_dir)
    else:
        specs = _plan_text(path, granule)
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
        self._file = open(self.path, "wb")
        self.count = 0

    def add(self, data: bytes) -> None:
        self._file.write(_TABLE_LEN.pack(len(data)))
        self._file.write(data)
        self.count += 1

    def close(self) -> None:
        self._file.close()


def _plan_binary(
    path: str, chunk_records: int, table_dir: str | None = None
) -> list[ChunkSpec]:
    # A light frame scan: no record objects, just frame heads, string
    # payloads (future chunk seeds) and each record's leading f64 time.
    frame_head = _FRAME_HEAD
    frame_head_size = frame_head.size
    unpack_time = _TIME_STRUCT.unpack_from
    specs: list[ChunkSpec] = []
    strings: list[str] = []
    table = _TableWriter(table_dir) if table_dir is not None else None
    fileobj = open_binary_for_read(path)
    try:
        offset = read_trace_header(fileobj)
        chunk_start = offset
        chunk_strings = 0  # string count at chunk_start
        count = 0
        last_time = None
        file_read = fileobj.read
        chunk_size = 1 << 20
        buf = b""
        pos = 0

        def emit() -> None:
            if table is None:
                specs.append(
                    ChunkSpec(
                        path=path, binary=True, offset=chunk_start,
                        nbytes=offset - chunk_start, records=count,
                        strings=tuple(strings[:chunk_strings]),
                    )
                )
            else:
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
                if count >= chunk_records and when != last_time:
                    emit()
                    chunk_start = offset
                    chunk_strings = (
                        len(strings) if table is None else table.count
                    )
                    count = 0
                count += 1
                last_time = when
            elif tag == _STRING_TAG:
                data = buf[body:end]
                if table is None:
                    try:
                        strings.append(data.decode("utf-8"))
                    except UnicodeDecodeError as exc:
                        raise TraceFormatError("corrupt string frame") from exc
                else:
                    # workers decode; the planner only spools the bytes
                    table.add(data)
            else:
                raise TraceFormatError(f"unknown frame tag 0x{tag:02x}")
            offset += frame_head_size + length
            pos = end
        if offset > chunk_start:
            emit()
    except _CONTAINER_ERRORS as exc:
        raise TraceFormatError(f"corrupt compressed container: {exc}") from exc
    finally:
        if table is not None:
            table.close()
        fileobj.close()
    return specs


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


def _plan_text(path: str, chunk_records: int) -> list[ChunkSpec]:
    specs: list[ChunkSpec] = []
    offset = 0
    chunk_start = 0
    count = 0
    last_time = None
    try:
        with _open_raw(path) as fileobj:
            for line in fileobj:
                stripped = line.strip()
                if stripped and not stripped.startswith(b"#"):
                    try:
                        when = float(stripped.split(b" ", 1)[0])
                    except ValueError:
                        when = last_time  # malformed: the worker will complain
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
    return specs


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
        if spec.table is not None:
            strings: Iterable[str] = _table_prefix(spec.table, spec.table_count)
        else:
            strings = spec.strings
        decoder = BinaryTraceDecoder(
            io.BytesIO(payload), expect_header=False, strings=strings
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


# ---------------------------------------------------------------------------
# Pool management: the shared (purpose, size)-keyed registry in
# repro.parallel, under the "analysis" purpose.  Warm pools are reused
# across parallel_pair calls; the registry owns the atexit teardown.

_POOL_PURPOSE = "analysis"


def _get_pool(processes: int):
    """A warm pool of exactly ``processes`` analysis workers."""
    return repro_parallel.get_pool(_POOL_PURPOSE, processes)


def _discard_pool(processes: int) -> None:
    repro_parallel.discard_pool(_POOL_PURPOSE, processes)


def pair_chunk(spec: ChunkSpec, sample: float = 0.0) -> PairedChunk:
    """Decode and pair one chunk (worker side).

    ``sample`` is the span sampling rate: a positive rate makes the
    chunk pairer record verdict spans for the merge to adopt.
    """
    started = _time.perf_counter()
    partial = _pair_partial(decode_chunk(spec), sample=sample)
    partial.wall_seconds = _time.perf_counter() - started
    return partial


def _pair_chunk_segment(
    item: tuple[int, ChunkSpec],
    *,
    token: str,
    sample: float,
    transport: str,
    workdir: str,
) -> PairedChunk:
    """Pool-side chunk task: pair, then publish ops as a segment.

    The ops are key-sorted *here*, in the worker, so the parent can
    k-way merge the per-chunk streams instead of sorting the world.
    """
    index, spec = item
    started = _time.perf_counter()
    with paused_gc():
        partial = _pair_partial(decode_chunk(spec), sample=sample)
        ops = partial.ops
        ops.sort(key=call_order_key)
        payload = encode_ops(ops)
    partial.op_count = len(ops)
    partial.ops = []
    partial.segment = publish_segment(payload, token, index, transport, workdir)
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
    orphans get a sequential pass's verdicts; its calls still
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
            events.append(((when, 1, client, xid), None))
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
    # calls before replies at equal times, then stable identity order
    return (
        record.time,
        0 if record.direction == Direction.CALL else 1,
        record.client,
        record.xid,
    )


def _map_chunks(
    specs: list[ChunkSpec],
    *,
    jobs: int,
    sample: float,
    workdir: str,
) -> tuple[list[PairedChunk], str]:
    """Fan chunks over a warm pool; ops come back as segments."""
    processes = min(jobs, len(specs))
    token = repro_parallel.run_token()
    pair = functools.partial(
        _pair_chunk_segment,
        token=token,
        sample=sample,
        transport=default_transport(),
        workdir=workdir,
    )
    pool = _get_pool(processes)
    try:
        partials = pool.map(pair, list(enumerate(specs)))
    except Exception:
        # a broken pool (killed worker, corrupt chunk) is not reusable
        # state worth keeping; published segments are swept by caller
        _discard_pool(processes)
        raise
    return partials, token


def parallel_pair(
    path: str | Path,
    *,
    jobs: int = 1,
    chunk_records: int | None = None,
    metrics: MetricsRegistry | None = None,
    spans=None,
) -> tuple[list[PairedOp], PairingStats]:
    """Pair a whole trace, fanning chunks over a process pool.

    Returns ``(ops, stats)`` like
    :func:`repro.analysis.pairing.pair_all`.  Results are identical for
    every ``jobs`` value: the chunk plan is content-derived
    (``chunk_records=None`` auto-tunes it from the record count) and
    the merge is deterministic — per-chunk op streams arrive key-sorted
    and the k-way merge ties break in chunk order, exactly like the
    stable sort of the concatenated lists that ``jobs=1`` performs.
    Boundary-crossing pairs are resolved by a final pairing pass over
    each chunk's tail calls and deferred replies; anything still
    unmatched is charged as capture loss.

    With a *buffered* :class:`~repro.obs.spans.SpanRecorder` every
    chunk pairer records its verdict spans, which travel back with the
    chunk and join the merge's own; the recorder's canonical close
    order makes the exported span stream byte-identical to the serial
    and streaming pairers'.
    """
    started = _time.perf_counter()
    sample = spans.sample if spans is not None else 0.0
    path = str(path)
    workdir: str | None = None
    token: str | None = None
    specs: list[ChunkSpec] = []
    try:
        if jobs > 1 or path.endswith(".gz"):
            workdir = tempfile.mkdtemp(prefix="repro-pair-")
        plan_path = _spool_gz(path, workdir) if path.endswith(".gz") else path
        specs = _plan(
            plan_path, chunk_records, table_dir=workdir if jobs > 1 else None
        )
        fanout = jobs > 1 and len(specs) > 1
        if fanout:
            with paused_gc():
                partials, token = _map_chunks(
                    specs, jobs=jobs, sample=sample, workdir=workdir
                )
        else:
            partials = [pair_chunk(spec, sample) for spec in specs]
        stats, boundary_ops = _merge_boundaries(partials, spans)
        with paused_gc():
            if fanout:
                # Streaming k-way merge-decode: each chunk's segment is
                # already key-sorted, the sorted boundary ops go last so
                # equal keys resolve (chunk order, then boundary) exactly
                # as the stable concat-sort below resolves them.
                streams = [
                    decode_ops(claim_segment(p.segment)) for p in partials
                ]
                if boundary_ops:
                    boundary_ops.sort(key=call_order_key)
                    streams.append(iter(boundary_ops))
                ops = list(heapq.merge(*streams, key=call_order_key))
            else:
                ops = sorted(
                    (op for partial in partials for op in partial.ops),
                    key=call_order_key,
                )
                if boundary_ops:
                    ops.extend(boundary_ops)
                    ops.sort(key=call_order_key)
    finally:
        if token is not None:
            sweep_segments(token, len(specs))
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    if metrics is not None:
        wall = _time.perf_counter() - started
        busy = sum(p.wall_seconds for p in partials)
        pool_size = min(jobs, len(specs)) if jobs > 1 else 1
        metrics.gauge("analysis.pool.jobs").set(pool_size)
        metrics.gauge("analysis.pool.chunks").set(len(specs))
        metrics.gauge("analysis.pool.utilization").set(
            busy / (pool_size * wall) if wall > 0 else 0.0
        )
        chunk_hist = metrics.histogram("analysis.pool.chunk_seconds")
        for partial in partials:
            chunk_hist.observe(partial.wall_seconds)
        metrics.counter("analysis.pool.records").inc(stats.calls + stats.replies)
        metrics.counter("analysis.pool.ops").inc(len(ops))
    return ops, stats
