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

Both directions run generated code built from the field table above.
The encoder is one unrolled loop (:func:`_compile_block_encoder`); the
decoder compiles one record builder per presence bitmap
(:func:`_compile_record_builder`), at most :data:`_MAX_BUILDERS` per
process, and decodes any further bitmap through the per-field
:func:`_generic_builder`.

:func:`merge_frames` k-way merges encoded streams (the group worlds of
``simulate --shards``) into one without building a record: it orders
record frames by the key in their heads and re-packs each through a
transcoder generated per bitmap (:func:`_compile_transcoder`) that
rewrites only its string ids into the output's one table.  It reads a
stream held in a file through one small window, so a merge holds a
few hundred KB whatever the streams' length.
"""

from __future__ import annotations

import gzip
import io
import os
import zlib
from dataclasses import fields as dataclass_fields
from functools import cache
from heapq import heapify, heappop, heapreplace
from operator import attrgetter
from pathlib import Path
from struct import Struct, error as StructError
from typing import IO, Callable, Iterator

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
# the generated record builders pass the optional fields positionally
if [f.name for f in dataclass_fields(TraceRecord)[8:]] != list(_FIELD_CODECS):
    raise AssertionError(  # pragma: no cover
        "TraceRecord's optional fields left _FIELD_CODECS order")


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


#: ``build(buf, body, length, strings)``: one record frame's payload
#: (``length`` bytes at ``buf[body]``) to its record
_Builder = Callable[[bytes, int, int, list], TraceRecord]


def _present_fields(bitmap: int) -> tuple[tuple[str, int], ...]:
    """The (name, kind) of each optional field ``bitmap`` marks present."""
    return tuple((name, kind) for bit, name, kind in _OPT_FIELDS if bitmap & bit)


def _generic_builder(bitmap: int) -> _Builder:
    """The per-field record builder for one presence bitmap.

    It decodes the head, then sets each present field by name.  Its
    checks run in a fixed order — direction byte, then the head's
    string, procedure and status indexes, then the body's length
    against the frame — so a frame that is corrupt in several ways
    always names the first fault.  Bitmaps past the generated-builder
    cap decode through it, generated builders fall back to it for a
    frame shorter than their layout, and tests use it as the reference
    decoder.
    """
    fields = _present_fields(bitmap)
    body_struct = Struct("<" + "".join(_KIND_FMT[kind] for _name, kind in fields))
    frame_size = _RECORD_HEAD_SIZE + body_struct.size
    unpack_head = _RECORD_HEAD.unpack_from
    unpack_body = body_struct.unpack_from

    def build(buf, body: int, length: int, strings: list[str]) -> TraceRecord:
        (time, direction_byte, xid, client_id, server_id, proc_index,
         version, status_byte, _bitmap) = unpack_head(buf, body)
        if direction_byte == 0:
            direction = Direction.CALL
        elif direction_byte == 1:
            direction = Direction.REPLY
        else:
            raise TraceFormatError(f"bad direction byte {direction_byte}")
        record = TraceRecord(
            time, direction, xid, strings[client_id], strings[server_id],
            _PROCS[proc_index], version,
            None if status_byte == 0 else _STATUSES[status_byte - 1],
        )
        if fields:
            if frame_size > length:
                raise TraceFormatError("short record frame")
            values = unpack_body(buf, body + _RECORD_HEAD_SIZE)
            for (name, kind), value in zip(fields, values):
                if kind == _STR:
                    value = strings[value]
                elif kind == _BOOL:
                    value = value != 0
                setattr(record, name, value)
        return record

    return build


def _builder_fields(opt_fields, bitmap: int) -> tuple[str, list[str], list[str]]:
    """What a constructor generated for one presence bitmap unpacks and
    passes, given a ``(bit, name, kind)`` field table in argument order.

    Returns the present fields' ``Struct`` format, one variable name per
    present field in bit order, and the positional source argument for
    every field: ``None`` when absent (trailing ones dropped), a string
    id resolved through ``strings``, a bool byte compared with 0, or
    the value as unpacked.
    """
    fields = [(name, kind) for bit, name, kind in opt_fields if bitmap & bit]
    values = {name: f"v{i}" for i, (name, _kind) in enumerate(fields)}
    args = []
    for _bit, name, kind in opt_fields:
        var = values.get(name)
        if var is None:
            args.append("None")
        elif kind == _STR:
            args.append(f"strings[{var}]")
        elif kind == _BOOL:
            args.append(f"{var} != 0")
        else:
            args.append(var)
    while args and args[-1] == "None":
        args.pop()
    body_format = "".join(_KIND_FMT[kind] for _name, kind in fields)
    return body_format, list(values.values()), args


def _compile_record_builder(bitmap: int) -> _Builder:
    """Generate the record builder for one presence bitmap.

    Same contract and result as :func:`_generic_builder`, but the
    function is generated source (the technique
    :func:`_compile_block_encoder` uses): one ``Struct`` over head and
    body, string ids resolved inline, and one positional
    ``TraceRecord(...)`` call instead of a ``setattr`` per field.  The
    source is built from :data:`_OPT_FIELDS` alone (no decoded byte
    reaches it); a frame too short for the layout goes to the generic
    builder, which raises in the documented order.
    """
    body_format, values, args = _builder_fields(_OPT_FIELDS, bitmap)
    unpacker = Struct(_RECORD_HEAD.format + body_format)
    src = [
        "def build(buf, body, length, strings):",
        "    if length < _SIZE:",
        "        return _generic(buf, body, length, strings)",
        "    (time, direction_byte, xid, client_id, server_id, proc_index,",
        "     version, status_byte, _bitmap"
        + "".join(f", {var}" for var in values)
        + ") = _unpack(buf, body)",
        "    if direction_byte == 0:",
        "        direction = _CALL",
        "    elif direction_byte == 1:",
        "        direction = _REPLY",
        "    else:",
        "        raise TraceFormatError(f'bad direction byte {direction_byte}')",
        "    return _TraceRecord(",
        "        time, direction, xid, strings[client_id], strings[server_id],",
        "        _PROCS[proc_index], version,",
        "        None if status_byte == 0 else _STATUSES[status_byte - 1],",
        *(f"        {arg}," for arg in args),
        "    )",
    ]
    namespace = {
        "_SIZE": unpacker.size,
        "_unpack": unpacker.unpack_from,
        "_generic": _generic_builder(bitmap),
        "_CALL": Direction.CALL,
        "_REPLY": Direction.REPLY,
        "_TraceRecord": TraceRecord,
        "_PROCS": _PROCS,
        "_STATUSES": _STATUSES,
        "TraceFormatError": TraceFormatError,
    }
    exec("\n".join(src), namespace)  # noqa: S102 - static source built above
    return namespace["build"]


#: At most this many presence bitmaps per process get a generated
#: builder.  Compiling one costs ~0.35 ms against ~5 µs for a generic
#: builder (2-core VM, CPython 3.11); real traces use 8–9 bitmaps,
#: while a hostile file naming all 65,536 would otherwise spend ~23 s
#: compiling.
_MAX_BUILDERS = 256

#: bitmap -> generated builder, shared by every decoder in the process.
_BUILDERS: dict[int, _Builder] = {}


def _builder_for(bitmap: int) -> _Builder:
    """The record builder for ``bitmap``: generated while under the cap."""
    build = _BUILDERS.get(bitmap)
    if build is None:
        if len(_BUILDERS) >= _MAX_BUILDERS:
            return _generic_builder(bitmap)
        build = _BUILDERS[bitmap] = _compile_record_builder(bitmap)
    return build


def _string_frame(text: str) -> bytes:
    """The ``S`` frame defining ``text``."""
    data = text.encode("utf-8")
    return _FRAME_HEAD.pack(_STRING_TAG, len(data)) + data


def _record_packer(bitmap: int) -> tuple[Struct, int]:
    """The combined frame-head + record-head + body ``Struct`` for one
    presence bitmap, and the payload length of the frame it packs."""
    packer = Struct("<BI" + _RECORD_HEAD.format[1:] + "".join(
        _KIND_FMT[kind] for _name, kind in _present_fields(bitmap)))
    return packer, packer.size - _FRAME_HEAD.size


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


@cache
def _compile_block_encoder():
    """Build the unrolled per-record encode loop, once, on first use
    (a process that only decodes never compiles it).

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


class BinaryTraceEncoder:
    """Streams records into an open binary file object.

    The encoder owns the string table, not the file: callers handle
    opening/closing (see :class:`repro.trace.writer.TraceWriter`).

    Records are packed into a pending buffer by the unrolled, generated
    loop of :func:`_compile_block_encoder`, with one precompiled
    ``Struct`` per presence bitmap covering frame head + record head +
    body.  By default every :meth:`encode`/:meth:`encode_block` call
    flushes that buffer, so the file object is current after each call.  With
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
        self._encode_block = _compile_block_encoder()
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
        sid = table[text] = len(table)
        self._pend += _string_frame(text)
        return sid

    def _make_packer(self, bitmap: int) -> tuple[Struct, int]:
        """Compile the combined frame Struct for one presence bitmap."""
        entry = self._packers[bitmap] = _record_packer(bitmap)
        return entry

    def encode(self, record: TraceRecord) -> None:
        """Append one record to the stream."""
        self.encode_block((record,))

    def encode_block(self, records) -> None:
        """Append an iterable of records to the stream."""
        try:
            self.records_written += self._encode_block(
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

    The frame loop reads each record frame's presence bitmap and hands
    the frame to that bitmap's builder (:func:`_builder_for`): a
    generated function that unpacks head and body with one ``Struct``
    and makes the record in one positional ``TraceRecord(...)`` call.
    The first :data:`_MAX_BUILDERS` bitmaps a process meets get one;
    later bitmaps decode through :func:`_generic_builder`, the per-field
    loop, with identical records and errors.
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
        self.records_read = 0

    def __iter__(self) -> Iterator[TraceRecord]:
        # Frames are parsed out of large buffered chunks: per-frame
        # file.read() calls would dominate decode time otherwise.
        file_read = self._file.read
        frame_head = _FRAME_HEAD
        frame_head_size = frame_head.size
        head_size = _RECORD_HEAD_SIZE
        bitmap_at = head_size - 2  # the head's last field, a u16
        builders: dict[int, _Builder] = {}  # this pass's bitmaps
        builder_for = _builder_for
        strings: list[str] = list(self._strings_seed)
        add_string = strings.append
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
                    at = body + bitmap_at
                    bitmap = buf[at] | (buf[at + 1] << 8)
                    try:
                        build = builders[bitmap]
                    except KeyError:
                        build = builders[bitmap] = builder_for(bitmap)
                    try:
                        record = build(buf, body, length, strings)
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


# ---------------------------------------------------------------------------
# Frame merge: k-way merge of encoded streams, no record decoded

#: ``transcode(buf, body, length, strings, ids, define, pend)``: append
#: one record frame (``length`` bytes at ``buf[body]``) to ``pend`` with
#: its string ids mapped through ``ids`` (``define(local_id)`` fills a
#: missing entry)
_Transcoder = Callable[[bytes, int, int, list, list, Callable, bytearray], None]

#: The head's first four fields: the merge key's time, client and xid.
_KEY_HEAD = Struct("<dBQI")


def _compile_transcoder(bitmap: int) -> _Transcoder:
    """Generate the record-frame transcoder for one presence bitmap.

    It unpacks head and body with one ``Struct``, maps each string id
    into the output table in the encoder's interning order (optional
    string fields in bit order, then client, then server) and packs the
    frame with the encoder's packer for the bitmap, so the frame comes
    out as :class:`BinaryTraceEncoder` would write the decoded record:
    ``eof`` as 0 or 1, no bytes past the layout.  A frame the decoder
    would reject (too short, a bad direction byte, a procedure or status
    index out of range) goes to :func:`_generic_builder`, which raises
    the decoder's error.  Like the record builders, the source is built
    from :data:`_OPT_FIELDS` alone.
    """
    fields = _present_fields(bitmap)
    unpacker = Struct(_RECORD_HEAD.format + "".join(
        _KIND_FMT[kind] for _name, kind in fields))
    packer, payload_len = _record_packer(bitmap)
    values = [f"v{i}" for i in range(len(fields))]
    # (local id, mapped id) in the encoder's interning order
    string_ids = []
    out = []
    for (_name, kind), var in zip(fields, values):
        if kind == _STR:
            string_ids.append((var, f"s{var}"))
            out.append(f"s{var}")
        elif kind == _BOOL:
            out.append(f"{var} != 0")
        else:
            out.append(var)
    string_ids += [("client_id", "client"), ("server_id", "server")]
    src = [
        "def transcode(buf, body, length, strings, ids, define, pend):",
        "    if length < _SIZE:",
        "        _reject(buf, body, length, strings)",
        "    (time, direction_byte, xid, client_id, server_id, proc_index,",
        "     version, status_byte, _bitmap"
        + "".join(f", {var}" for var in values)
        + ") = _unpack(buf, body)",
        "    if direction_byte > 1 or proc_index >= _NPROCS"
        " or status_byte > _NSTATUSES:",
        "        _reject(buf, body, length, strings)",
    ]
    for local, mapped in string_ids:
        src += [
            f"    {mapped} = ids[{local}]",
            f"    if {mapped} is None:",
            f"        {mapped} = define({local})",
        ]
    src += [
        "    pend += _pack(",
        "        _RECORD_TAG, _PAYLOAD_LEN, time, direction_byte, xid, client,",
        "        server, proc_index, version, status_byte, _BITMAP,",
        *(f"        {arg}," for arg in out),
        "    )",
    ]
    generic = _generic_builder(bitmap)

    def reject(buf, body, length, strings) -> None:
        generic(buf, body, length, strings)  # raises for every frame sent here
        raise TraceFormatError("corrupt record frame")  # pragma: no cover

    namespace = {
        "_SIZE": unpacker.size,
        "_unpack": unpacker.unpack_from,
        "_pack": packer.pack,
        "_reject": reject,
        "_RECORD_TAG": _RECORD_TAG,
        "_PAYLOAD_LEN": payload_len,
        "_BITMAP": bitmap,
        "_NPROCS": len(_PROCS),
        "_NSTATUSES": len(_STATUSES),
    }
    exec("\n".join(src), namespace)  # noqa: S102 - static source built above
    return namespace["transcode"]


#: bitmap -> generated transcoder, shared by every merge in the process;
#: like :data:`_BUILDERS`, at most :data:`_MAX_BUILDERS` are kept (a
#: merge compiles any further bitmap for itself)
_TRANSCODERS: dict[int, _Transcoder] = {}


def _transcoder_for(bitmap: int) -> _Transcoder:
    """The transcoder for ``bitmap``, compiled on first use."""
    transcode = _TRANSCODERS.get(bitmap)
    if transcode is None:
        transcode = _compile_transcoder(bitmap)
        if len(_TRANSCODERS) < _MAX_BUILDERS:
            _TRANSCODERS[bitmap] = transcode
    return transcode


#: Bytes of the window through which :func:`merge_frames` reads each
#: file-backed stream: eight group streams hold 256 KiB between them,
#: however long the run.
_WINDOW_BYTES = 1 << 15


def _merge_entries(source, window, index: int, strings: list[str], ids: list):
    """Yield one merge-heap entry per record frame of one stream.

    ``source`` is a complete ``.rtb`` stream: a ``bytes`` payload, read
    in place (``window`` is ``source``), or an open file, read through
    ``window``, a ``bytearray`` refilled in place by ``os.preadv`` at
    an offset this generator keeps, so two merges of one file never
    disturb each other.  A frame that straddles the window's end moves
    to its front before the refill; one longer than the window grows
    it.

    An entry is ``(time, client, xid, index, body, length, bitmap)``,
    ``body`` an offset into ``window``, which holds the frame until the
    stream's next entry is drawn.  The heap orders frames by
    ``record_key`` and then by stream index, which is the tie order of
    ``heapq.merge(*streams, key=record_key)``; two entries of one
    stream are never on the heap together, so a comparison never gets
    past ``index``.  String frames append to ``strings`` (the stream's
    own table) and an unmapped slot to ``ids``.
    """
    unpack_frame = _FRAME_HEAD.unpack_from
    frame_head_size = _FRAME_HEAD.size
    unpack_key = _KEY_HEAD.unpack_from
    head_size = _RECORD_HEAD_SIZE
    bitmap_at = head_size - 2
    add_string = strings.append
    add_id = ids.append
    base = 0  # the stream offset of window[0]

    def refill(pos: int, end: int, need: int) -> int:
        """Move ``window[pos:end]`` to the front and read on until the
        window holds ``need`` bytes or the file ends; returns the new
        end (the kept bytes now start at 0)."""
        nonlocal base
        kept = end - pos
        if kept:
            window[:kept] = window[pos:end]
        base += pos
        if need > len(window):
            window.extend(bytes(need - len(window)))
        with memoryview(window) as view:
            while kept < need:
                got = os.preadv(fd, [view[kept:]], base + kept)
                if not got:
                    break
                kept += got
        return kept

    if window is source:
        size = end = len(source)
    else:
        fd = source.fileno()
        size = os.fstat(fd).st_size
        end = refill(0, 0, _HEADER_SIZE)
    pos = read_trace_header(io.BytesIO(window[:min(end, _HEADER_SIZE)]))
    try:
        while True:
            if end - pos < frame_head_size:
                left = size - base - pos
                if not left:
                    return
                if left < frame_head_size:
                    raise TraceFormatError("truncated frame header")
                end = refill(pos, end, frame_head_size)
                pos = 0
                if end < frame_head_size:
                    raise TraceFormatError("truncated frame header")
            tag, length = unpack_frame(window, pos)
            body = pos + frame_head_size
            stop = body + length
            if stop > end:
                if base + stop > size:
                    raise TraceFormatError("truncated frame payload")
                end = refill(pos, end, stop - pos)
                body -= pos
                stop -= pos
                if stop > end:
                    raise TraceFormatError("truncated frame payload")
            pos = stop
            if tag == _RECORD_TAG:
                if length < head_size:
                    raise TraceFormatError("short record frame")
                time, _direction, xid, client_id = unpack_key(window, body)
                at = body + bitmap_at
                yield (time, strings[client_id], xid, index, body, length,
                       window[at] | (window[at + 1] << 8))
            elif tag == _STRING_TAG:
                add_string(str(window[body:stop], "utf-8"))
                add_id(None)
            else:
                raise TraceFormatError(f"unknown frame tag 0x{tag:02x}")
    except IndexError as exc:
        raise TraceFormatError(f"corrupt record frame: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TraceFormatError("corrupt string frame") from exc


def merge_frames(payloads) -> Iterator[bytes]:
    """K-way merge encoded record streams into one ``.rtb`` stream.

    ``payloads`` are complete ``.rtb`` streams (header included), each
    in :data:`~repro.trace.collector.record_key` order, such as the
    group worlds of a sharded run hand back: ``bytes``, or open files,
    which are read through one reused window of :data:`_WINDOW_BYTES`
    each (see :func:`_merge_entries`) and never held whole.  The merged
    stream comes out in blocks of about :data:`_FLUSH_BYTES`, the first
    opening with the header, and their concatenation is byte for byte
    what a :class:`BinaryTraceEncoder` writes for ``heapq.merge(
    *decoders, key=record_key)`` over the same streams: frames leave in
    key order, exact-key ties in stream order within a stream and in
    ``payloads`` order across streams, and each record frame is
    re-packed by its bitmap's transcoder (:func:`_compile_transcoder`)
    with its string ids rewritten into one output table, so a string
    two streams share is defined once, before its first use.  No
    :class:`TraceRecord` is built.

    A corrupt payload raises :class:`~repro.errors.TraceFormatError`
    after the blocks merged before it.
    """
    table: dict[str, int] = {}
    pend = bytearray(MAGIC + _VERSION_STRUCT.pack(FORMAT_VERSION))
    flush_bytes = _FLUSH_BYTES
    streams = []
    heap = []
    for index, source in enumerate(payloads):
        strings: list[str] = []
        ids: list[int | None] = []

        def define(local, strings=strings, ids=ids) -> int:
            text = strings[local]
            sid = table.get(text)
            if sid is None:
                sid = table[text] = len(table)
                pend.extend(_string_frame(text))
            ids[local] = sid
            return sid

        window = source if isinstance(source, (bytes, bytearray)) \
            else bytearray(_WINDOW_BYTES)
        entries = _merge_entries(source, window, index, strings, ids)
        streams.append((window, strings, ids, define, entries.__next__))
        first = next(entries, None)
        if first is not None:
            heap.append(first)
    heapify(heap)
    transcoders: dict[int, _Transcoder] = {}
    try:
        while heap:
            _time, _client, _xid, index, body, length, bitmap = heap[0]
            window, strings, ids, define, advance = streams[index]
            try:
                transcode = transcoders[bitmap]
            except KeyError:
                transcode = transcoders[bitmap] = _transcoder_for(bitmap)
            transcode(window, body, length, strings, ids, define, pend)
            if len(pend) >= flush_bytes:
                yield bytes(pend)
                pend.clear()
            try:
                heapreplace(heap, advance())
            except StopIteration:
                heappop(heap)
    except (IndexError, StructError) as exc:
        raise TraceFormatError(f"corrupt record frame: {exc}") from exc
    if pend:
        yield bytes(pend)


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
