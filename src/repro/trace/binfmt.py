"""Binary trace container (``.rtb`` / ``.rtb.gz``).

The text trace format is the interchange format; this module is the
fast path.  A ``.rtb`` file holds the same :class:`TraceRecord` stream
as a ``.trace`` file, but ``struct``-packed, with a per-file string
table interning every repeated token (client, server, file handle,
name, file type), so decoding is arithmetic instead of parsing.

Layout (all integers little-endian)::

    header  := magic "RTBF" + u16 format_version
    frame   := u8 tag + u32 payload_length + payload
    tag 'S' := string definition; payload is UTF-8 bytes.  The string's
               id is its definition order (0, 1, 2, ...).  Definitions
               are interleaved with records — each string is defined
               before the first record that references it — so the
               format streams: a reader never needs a seekable file.
    tag 'R' := one record; payload is the fixed head plus the packed
               optional fields.

Record payload::

    head := f64 time, u8 direction (0=call 1=reply), u64 xid,
            u32 client_id, u32 server_id, u8 proc_index,
            u8 version, u8 status (0=absent else index+1),
            u16 presence_bitmap
    body := the present optional fields, packed in bitmap-bit order

Bit *i* of the presence bitmap is field *i* of
:data:`repro.trace.record._FIELD_CODECS` — the same order the text
codec serializes ``key=value`` tokens — so the two formats cannot
disagree about which fields exist.  String-valued fields are stored as
u32 string-table ids; integer fields as i64; ``eof`` as u8;
``attr_mtime`` as f64.

Procedure and status bytes index :data:`_PROCS` / :data:`_STATUSES`
(definition order of the enums); any change to those enums requires a
:data:`FORMAT_VERSION` bump.

The explicit frame lengths make skipping cheap: a reader that only
wants record *times* can read each frame header and seek past bodies.
"""

from __future__ import annotations

import gzip
import io
import zlib
from operator import attrgetter
from pathlib import Path
from struct import Struct, error as StructError
from typing import IO, Iterator

from repro.errors import TraceFormatError
from repro.nfs.messages import NfsStatus
from repro.obs.gcpause import paused_gc
from repro.nfs.procedures import NfsProc
from repro.trace.record import _FIELD_CODECS, Direction, TraceRecord

MAGIC = b"RTBF"
FORMAT_VERSION = 1

_STRING_TAG = 0x53  # 'S'
_RECORD_TAG = 0x52  # 'R'

_VERSION_STRUCT = Struct("<H")
_FRAME_HEAD = Struct("<BI")  # tag + payload length
_RECORD_HEAD = Struct("<dBQIIBBBH")
_RECORD_HEAD_SIZE = _RECORD_HEAD.size

#: Enum wire tables: index in these tuples is the on-disk byte.
_PROCS = tuple(NfsProc)
_STATUSES = tuple(NfsStatus)
_PROC_INDEX = {proc: i for i, proc in enumerate(_PROCS)}
_STATUS_INDEX = {status: i for i, status in enumerate(_STATUSES)}

#: Value kinds for the optional fields.
_INT, _STR, _BOOL, _FLOAT = 0, 1, 2, 3

_KIND_FMT = {_INT: "q", _STR: "I", _BOOL: "B", _FLOAT: "d"}

_FIELD_KINDS = {
    "uid": _INT,
    "gid": _INT,
    "fh": _STR,
    "name": _STR,
    "target_fh": _STR,
    "target_name": _STR,
    "offset": _INT,
    "count": _INT,
    "size": _INT,
    "eof": _BOOL,
    "attr_ftype": _STR,
    "attr_size": _INT,
    "attr_mtime": _FLOAT,
    "attr_fileid": _INT,
    "attr_uid": _INT,
    "attr_gid": _INT,
}

#: (bit, field name, kind) in _FIELD_CODECS order — the bitmap contract.
_OPT_FIELDS = tuple(
    (1 << i, name, _FIELD_KINDS[name]) for i, name in enumerate(_FIELD_CODECS)
)

if len(_OPT_FIELDS) > 16:  # pragma: no cover - compile-time sanity
    raise AssertionError("presence bitmap is u16; _FIELD_CODECS grew past 16")


_HEADER_SIZE = len(MAGIC) + _VERSION_STRUCT.size

#: What a corrupt or truncated ``.rtb.gz`` container surfaces mid-read.
#: ``gzip.BadGzipFile`` covers bad magic and CRC mismatches, ``EOFError``
#: a stream cut before the end-of-stream marker, ``zlib.error`` mangled
#: deflate data.  The decoder converts all three to TraceFormatError so
#: callers have one exception type for "this file is not readable".
_CONTAINER_ERRORS = (gzip.BadGzipFile, EOFError, zlib.error)


def read_trace_header(fileobj: IO[bytes]) -> int:
    """Consume and validate the container header; returns its byte size.

    Raises :class:`~repro.errors.TraceFormatError` for anything that is
    not a complete, current-version header — including decompression
    failures from a corrupt gzip container.
    """
    try:
        header = fileobj.read(_HEADER_SIZE)
    except _CONTAINER_ERRORS as exc:
        raise TraceFormatError(f"corrupt compressed container: {exc}") from exc
    if header[: len(MAGIC)] != MAGIC:
        raise TraceFormatError(f"not a binary trace (magic {header[:4]!r})")
    if len(header) < _HEADER_SIZE:
        raise TraceFormatError("truncated trace header")
    (version,) = _VERSION_STRUCT.unpack_from(header, len(MAGIC))
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"binary trace format v{version}; "
            f"this reader speaks v{FORMAT_VERSION}"
        )
    return _HEADER_SIZE


def is_binary_trace_path(path: str | Path) -> bool:
    """Whether ``path`` names the binary container (by suffix)."""
    name = Path(path).name
    return name.endswith(".rtb") or name.endswith(".rtb.gz")


class DeterministicGzipWriter(gzip.GzipFile):
    """A gzip writer whose output depends only on the bytes written.

    ``mtime=0`` pins the header timestamp and ``filename=""`` omits
    the FNAME field, so the same records always produce byte-identical
    ``.gz`` output regardless of when or where it was written —
    determinism gates diff the files directly.  (GzipFile does not
    close a caller-supplied fileobj, so this owns and closes it.)

    Deflate runs at level 6 (zlib's ``Z_DEFAULT_COMPRESSION`` and
    gzip(1)'s default), not GzipFile's default of 9.  On a one-day
    8-user EECS trace with faults (8.5 MB of ``.rtb`` frames, 2-core
    Xeon VM, CPython 3.11) level 9 deflates in 2.4–2.7 s and level 6
    in 0.30–0.33 s, while the file grows 1.2% (1,630,039 to 1,649,668
    bytes; CAMPUS traces grow about 4%).  Inflating either takes about
    30 ms, so readers are unaffected.  The level is fixed, not
    configurable: every compressed trace this toolkit writes goes
    through this class, and one level keeps their bytes reproducible.
    """

    def __init__(self, path: str | Path) -> None:
        self._raw = open(path, "wb")
        super().__init__(filename="", mode="wb", fileobj=self._raw,
                         compresslevel=6, mtime=0)

    def close(self) -> None:
        try:
            super().close()
        finally:
            self._raw.close()


def open_binary_for_write(path: str | Path) -> IO[bytes]:
    """Open ``path`` for binary-container writing (gzip by suffix)."""
    path = Path(path)
    if path.suffix == ".gz":
        return DeterministicGzipWriter(path)
    return open(path, "wb")


def open_binary_for_read(path: str | Path) -> IO[bytes]:
    """Open ``path`` for binary-container reading (gzip by suffix)."""
    path = Path(path)
    if path.suffix == ".gz":
        return io.BufferedReader(gzip.open(path, "rb"))
    return open(path, "rb")


class _BitmapCodec:
    """Per-bitmap packer cache: bitmap -> (Struct, present fields)."""

    __slots__ = ("_cache",)

    def __init__(self) -> None:
        self._cache: dict[int, tuple[Struct, tuple[tuple[str, int], ...]]] = {}

    def get(self, bitmap: int) -> tuple[Struct, tuple[tuple[str, int], ...]]:
        entry = self._cache.get(bitmap)
        if entry is None:
            fields = tuple(
                (name, kind) for bit, name, kind in _OPT_FIELDS if bitmap & bit
            )
            fmt = "<" + "".join(_KIND_FMT[kind] for _name, kind in fields)
            entry = self._cache[bitmap] = (Struct(fmt), fields)
        return entry


#: One attrgetter pulls every encodable field out of a record in a
#: single C-level call — per-field ``getattr`` is the old encoder's
#: single largest cost.  Head fields first, then the optional fields in
#: _FIELD_CODECS (= bitmap-bit) order.
_GET_FIELDS = attrgetter(
    "time", "direction", "xid", "client", "server", "proc", "version",
    "status", *_FIELD_CODECS,
)

#: Buffered encoders spill to the file once this much output is pending.
_FLUSH_BYTES = 1 << 18


def _compile_block_encoder():
    """Build the unrolled per-record encode loop.

    The loop body is generated source (the same technique namedtuple
    uses): one branch per optional field instead of a ``for`` over
    ``_OPT_FIELDS``, and one combined frame-head + record-head + body
    ``Struct.pack`` per record.  Everything varying per encoder
    (string table, packer cache, pending buffer) comes in as arguments
    so the compiled function is shared by all encoder instances.
    """
    opt_vars = [f"v{i}" for i in range(len(_OPT_FIELDS))]
    src = [
        "def _encode_block(records, strings, define, packers, make_packer, pend):",
        "    count = 0",
        "    for record in records:",
        "        (time, direction, xid, client, server, proc, version, status,",
        f"         {', '.join(opt_vars)}) = _get_fields(record)",
        "        bitmap = 0",
        "        values = []",
        "        append = values.append",
    ]
    for i, (bit, _name, kind) in enumerate(_OPT_FIELDS):
        src.append(f"        if v{i} is not None:")
        src.append(f"            bitmap |= {bit}")
        if kind == _STR:
            # Interning inline: the dict hit is the fast path (a bare
            # subscript — try/except is free when it doesn't fire), the
            # miss falls into define() which also emits the S frame.
            src.append("            try:")
            src.append(f"                append(strings[v{i}])")
            src.append("            except KeyError:")
            src.append(f"                append(define(v{i}))")
        else:
            src.append(f"            append(v{i})")
    src += [
        "        if direction == _CALL:",
        "            direction_byte = 0",
        "        elif direction == _REPLY:",
        "            direction_byte = 1",
        "        else:",
        "            raise TraceFormatError(f'bad direction {direction!r}')",
        "        try:",
        "            client_id = strings[client]",
        "        except KeyError:",
        "            client_id = define(client)",
        "        try:",
        "            server_id = strings[server]",
        "        except KeyError:",
        "            server_id = define(server)",
        "        try:",
        "            packer, payload_len = packers[bitmap]",
        "        except KeyError:",
        "            packer, payload_len = make_packer(bitmap)",
        "        try:",
        "            pend += packer.pack(",
        "                _RECORD_TAG, payload_len, time, direction_byte, xid,",
        "                client_id, server_id, _PROC_INDEX[proc], version,",
        "                0 if status is None else _STATUS_INDEX[status] + 1,",
        "                bitmap, *values)",
        "        except (KeyError, OverflowError, StructError) as exc:",
        "            raise TraceFormatError(",
        "                f'unencodable record: {record!r}') from exc",
        "        count += 1",
        "    return count",
    ]
    namespace = {
        "_get_fields": _GET_FIELDS,
        "_CALL": Direction.CALL,
        "_REPLY": Direction.REPLY,
        "_RECORD_TAG": _RECORD_TAG,
        "_PROC_INDEX": _PROC_INDEX,
        "_STATUS_INDEX": _STATUS_INDEX,
        "StructError": StructError,
        "TraceFormatError": TraceFormatError,
    }
    exec("\n".join(src), namespace)  # noqa: S102 - static source built above
    return namespace["_encode_block"]


_ENCODE_BLOCK = _compile_block_encoder()


class BinaryTraceEncoder:
    """Streams records into an open binary file object.

    The encoder owns the string table, not the file: callers handle
    opening/closing (see :class:`repro.trace.writer.TraceWriter`).

    Records are packed by :data:`_ENCODE_BLOCK` — an unrolled,
    generated loop with one precompiled ``Struct`` per presence bitmap
    covering frame head + record head + body — into a pending buffer.
    By default every :meth:`encode`/:meth:`encode_block` call flushes
    that buffer, so the file object is current after each call.  With
    ``buffered=True`` output accumulates until :meth:`flush` (or until
    the buffer passes ~256 KiB), coalescing many small frame writes
    into one file write; ``bytes_written`` always counts the pending
    buffer, so it is exact per record either way.

    The byte stream is identical in both modes, and identical to the
    historical per-record encoder: string frames still precede the
    first record that references them, in the same definition order
    (optional fields in bitmap-bit order, then client, then server).
    """

    def __init__(self, fileobj: IO[bytes], *, buffered: bool = False) -> None:
        self._file = fileobj
        self._strings: dict[str, int] = {}
        #: bitmap -> (combined frame Struct, payload length) cache
        self._packers: dict[int, tuple[Struct, int]] = {}
        self._pend = bytearray()
        self._buffered = buffered
        self.records_written = 0
        header = MAGIC + _VERSION_STRUCT.pack(FORMAT_VERSION)
        fileobj.write(header)
        self._flushed = len(header)

    @property
    def bytes_written(self) -> int:
        """Logical bytes encoded so far, including any pending buffer."""
        return self._flushed + len(self._pend)

    def _define(self, text: str) -> int:
        """Intern-miss slow path: assign an id and emit the S frame."""
        table = self._strings
        sid = len(table)
        table[text] = sid
        data = text.encode("utf-8")
        pend = self._pend
        pend += _FRAME_HEAD.pack(_STRING_TAG, len(data))
        pend += data
        return sid

    def _make_packer(self, bitmap: int) -> tuple[Struct, int]:
        """Compile the combined frame Struct for one presence bitmap."""
        body_fmt = "".join(
            _KIND_FMT[kind] for bit, _name, kind in _OPT_FIELDS if bitmap & bit
        )
        packer = Struct("<BIdBQIIBBBH" + body_fmt)
        entry = (packer, packer.size - _FRAME_HEAD.size)
        self._packers[bitmap] = entry
        return entry

    def encode(self, record: TraceRecord) -> None:
        """Append one record to the stream."""
        self.encode_block((record,))

    def encode_block(self, records) -> None:
        """Append an iterable of records to the stream."""
        try:
            self.records_written += _ENCODE_BLOCK(
                records, self._strings, self._define,
                self._packers, self._make_packer, self._pend,
            )
        finally:
            # Unbuffered: keep the file current after every call (the
            # historical contract — callers read the raw buffer without
            # flushing).  Buffered: spill only once enough accumulates.
            if not self._buffered or len(self._pend) >= _FLUSH_BYTES:
                self.flush()

    def flush(self) -> None:
        """Write any pending encoded bytes to the file object."""
        pend = self._pend
        if pend:
            self._file.write(pend)
            self._flushed += len(pend)
            pend.clear()


class BinaryTraceDecoder:
    """Iterates the records of an open binary file object.

    Raises :class:`~repro.errors.TraceFormatError` on a bad header or a
    corrupt frame.  Unlike the text reader there is no non-strict
    resync: the frame lengths are load-bearing, so after one corrupt
    frame the rest of the stream is unreadable.
    """

    def __init__(
        self,
        fileobj: IO[bytes],
        *,
        expect_header: bool = True,
        strings: tuple[str, ...] | list[str] | None = None,
    ) -> None:
        """``expect_header=False`` with a ``strings`` seed starts decoding
        mid-stream: the parallel analysis runner hands workers a chunk of
        frames plus the string table as it stood at the chunk boundary.
        """
        self._file = fileobj
        if expect_header:
            self.bytes_read = read_trace_header(fileobj)
        else:
            self.bytes_read = 0
        self._strings_seed: tuple[str, ...] = tuple(strings) if strings else ()
        self._bitmaps = _BitmapCodec()
        self.records_read = 0

    def __iter__(self) -> Iterator[TraceRecord]:
        # Frames are parsed out of large buffered chunks: per-frame
        # file.read() calls would dominate decode time otherwise.
        file_read = self._file.read
        frame_head = _FRAME_HEAD
        frame_head_size = frame_head.size
        record_head = _RECORD_HEAD
        head_size = _RECORD_HEAD_SIZE
        bitmaps = self._bitmaps.get
        strings: list[str] = list(self._strings_seed)
        add_string = strings.append
        procs = _PROCS
        statuses = _STATUSES
        record_cls = TraceRecord
        call_dir = Direction.CALL
        reply_dir = Direction.REPLY
        chunk_size = 1 << 20
        buf = b""
        pos = 0
        records = 0
        nbytes = 0
        try:
            while True:
                if len(buf) - pos < frame_head_size:
                    buf = buf[pos:] + file_read(chunk_size)
                    pos = 0
                    if not buf:
                        return
                    if len(buf) < frame_head_size:
                        raise TraceFormatError("truncated frame header")
                tag, length = frame_head.unpack_from(buf, pos)
                body = pos + frame_head_size
                end = body + length
                if end > len(buf):
                    tail = buf[pos:]
                    need = frame_head_size + length - len(tail)
                    buf = tail + file_read(need if need > chunk_size else chunk_size)
                    pos = 0
                    body = frame_head_size
                    end = body + length
                    if len(buf) < end:
                        raise TraceFormatError("truncated frame payload")
                nbytes += frame_head_size + length
                pos = end
                if tag == _RECORD_TAG:
                    if length < head_size:
                        raise TraceFormatError("short record frame")
                    try:
                        (
                            time,
                            direction_byte,
                            xid,
                            client_id,
                            server_id,
                            proc_index,
                            version,
                            status_byte,
                            bitmap,
                        ) = record_head.unpack_from(buf, body)
                        if direction_byte == 0:
                            direction = call_dir
                        elif direction_byte == 1:
                            direction = reply_dir
                        else:
                            raise TraceFormatError(
                                f"bad direction byte {direction_byte}"
                            )
                        # positional: TraceRecord's leading fields are
                        # (time, direction, xid, client, server, proc,
                        # version, status) — kwargs cost ~10% of decode
                        record = record_cls(
                            time,
                            direction,
                            xid,
                            strings[client_id],
                            strings[server_id],
                            procs[proc_index],
                            version,
                            None if status_byte == 0 else statuses[status_byte - 1],
                        )
                        if bitmap:
                            unpacker, fields = bitmaps(bitmap)
                            if head_size + unpacker.size > length:
                                raise TraceFormatError("short record frame")
                            values = unpacker.unpack_from(buf, body + head_size)
                            for (name, kind), value in zip(fields, values):
                                if kind == _STR:
                                    value = strings[value]
                                elif kind == _BOOL:
                                    value = value != 0
                                setattr(record, name, value)
                    except (IndexError, StructError) as exc:
                        raise TraceFormatError(f"corrupt record frame: {exc}") from exc
                    records += 1
                    yield record
                elif tag == _STRING_TAG:
                    try:
                        add_string(buf[body:end].decode("utf-8"))
                    except UnicodeDecodeError as exc:
                        raise TraceFormatError("corrupt string frame") from exc
                else:
                    raise TraceFormatError(f"unknown frame tag 0x{tag:02x}")
        except _CONTAINER_ERRORS as exc:
            raise TraceFormatError(
                f"corrupt compressed container: {exc}"
            ) from exc
        finally:
            self.records_read += records
            self.bytes_read += nbytes


def read_binary_trace(path: str | Path) -> list[TraceRecord]:
    """Read an entire binary trace into memory.

    Cyclic GC is paused while the list materializes (see
    :func:`repro.trace.reader.read_trace` for why).
    """
    fileobj = open_binary_for_read(path)
    try:
        with paused_gc():
            return list(BinaryTraceDecoder(fileobj))
    finally:
        fileobj.close()
