"""Paired-operation segments: worker -> parent hand-back for the fan-out.

Returning each chunk's paired ops through the pool's result pipe
pickles and unpickles hundreds of thousands of
:class:`~repro.analysis.pairing.PairedOp` objects in the *parent* —
serial work that grows with the trace and erased the workers' gains.
Instead, workers serialize their (key-sorted) ops into a compact
binary *segment* using the same framing discipline as the ``.rtb``
container (string-table interning, tagged length-prefixed frames),
write it to a file in the run's temp directory
(:func:`repro.parallel.publish_segment`) and return only a tiny stats
struct plus its path.  The parent reads each segment back and
merge-decodes lazily.

Segment layout (all integers little-endian)::

    frame   := u8 tag + u32 payload_length + payload
    tag 'S' := string definition (id = definition order), UTF-8
    tag 'O' := one op: f64 time, f64 reply_time, u64 xid,
               u32 client_id, u8 proc_index, u8 version,
               u8 status_index, u16 presence_bitmap, then the present
               optional fields packed in bitmap-bit order

Bit *i* of the bitmap is optional field *i* of
:data:`_OPT_FIELDS` — the declaration order of
:class:`~repro.analysis.pairing.PairedOp`'s optional fields.  This is
an *internal* interchange format between a worker and its own parent
(same code version by construction), not an on-disk container: there
is no magic or version header to keep it cheap.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from functools import cache
from operator import attrgetter
from struct import Struct, error as StructError

from repro.analysis.pairing import PairedOp
from repro.errors import TraceFormatError
from repro.trace.binfmt import (
    _BOOL,
    _FLOAT,
    _FRAME_HEAD,
    _INT,
    _KIND_FMT,
    _MAX_BUILDERS,
    _PROC_INDEX,
    _PROCS,
    _STATUS_INDEX,
    _STATUSES,
    _STR,
    _STRING_TAG,
    _builder_fields,
)

_OP_TAG = 0x4F  # 'O'

_OP_HEAD = Struct("<ddQIBBBH")
_OP_HEAD_SIZE = _OP_HEAD.size

_FIELD_KINDS = {
    "uid": _INT,
    "fh": _STR,
    "name": _STR,
    "target_fh": _STR,
    "target_name": _STR,
    "offset": _INT,
    "count": _INT,
    "size": _INT,
    "eof": _BOOL,
    "reply_fh": _STR,
    "post_size": _INT,
    "post_mtime": _FLOAT,
    "post_ftype": _STR,
}

#: (bit, field name, kind) — PairedOp optional fields in declaration
#: order; the presence-bitmap contract of the 'O' frame.
_OPT_FIELDS = tuple(
    (1 << i, name, _FIELD_KINDS[name]) for i, name in enumerate(_FIELD_KINDS)
)

if len(_OPT_FIELDS) > 16:  # pragma: no cover - compile-time sanity
    raise AssertionError("presence bitmap is u16; PairedOp grew past 16 optionals")
# the generated op builders pass the optional fields positionally
if [f.name for f in dataclass_fields(PairedOp)[7:]] != list(_FIELD_KINDS):
    raise AssertionError(  # pragma: no cover
        "PairedOp's optional fields left _FIELD_KINDS order")

_GET_FIELDS = attrgetter(
    "time", "reply_time", "proc", "client", "xid", "status", "version",
    *_FIELD_KINDS,
)


@cache
def _compile_op_encoder():
    """Unrolled op-encode loop (same technique as the ``.rtb`` encoder:
    one attrgetter per op, one combined frame+head+body Struct per
    presence bitmap, generated per-field branches), compiled once, on
    first use: only pool workers encode ops."""
    opt_vars = [f"v{i}" for i in range(len(_OPT_FIELDS))]
    src = [
        "def _encode_ops(ops, strings, define, packers, make_packer, pend):",
        "    for op in ops:",
        "        (time, reply_time, proc, client, xid, status, version,",
        f"         {', '.join(opt_vars)}) = _get_fields(op)",
        "        bitmap = 0",
        "        values = []",
        "        append = values.append",
    ]
    for i, (bit, _name, kind) in enumerate(_OPT_FIELDS):
        src.append(f"        if v{i} is not None:")
        src.append(f"            bitmap |= {bit}")
        if kind == _STR:
            src.append("            try:")
            src.append(f"                append(strings[v{i}])")
            src.append("            except KeyError:")
            src.append(f"                append(define(v{i}))")
        else:
            src.append(f"            append(v{i})")
    src += [
        "        try:",
        "            client_id = strings[client]",
        "        except KeyError:",
        "            client_id = define(client)",
        "        try:",
        "            packer, payload_len = packers[bitmap]",
        "        except KeyError:",
        "            packer, payload_len = make_packer(bitmap)",
        "        try:",
        "            pend += packer.pack(",
        "                _OP_TAG, payload_len, time, reply_time, xid,",
        "                client_id, _PROC_INDEX[proc], version,",
        "                _STATUS_INDEX[status], bitmap, *values)",
        "        except (KeyError, OverflowError, StructError) as exc:",
        "            raise TraceFormatError(",
        "                f'unencodable op: {op!r}') from exc",
    ]
    namespace = {
        "_get_fields": _GET_FIELDS,
        "_OP_TAG": _OP_TAG,
        "_PROC_INDEX": _PROC_INDEX,
        "_STATUS_INDEX": _STATUS_INDEX,
        "StructError": StructError,
        "TraceFormatError": TraceFormatError,
    }
    exec("\n".join(src), namespace)  # noqa: S102 - static source built above
    return namespace["_encode_ops"]


def encode_ops(ops) -> bytes:
    """Serialize a list of PairedOps into one segment byte string."""
    strings: dict[str, int] = {}
    packers: dict[int, tuple[Struct, int]] = {}
    pend = bytearray()

    def define(text: str) -> int:
        sid = len(strings)
        strings[text] = sid
        data = text.encode("utf-8")
        pend_local = pend
        pend_local += _FRAME_HEAD.pack(_STRING_TAG, len(data))
        pend_local += data
        return sid

    def make_packer(bitmap: int) -> tuple[Struct, int]:
        body_fmt = "".join(
            _KIND_FMT[kind] for bit, _name, kind in _OPT_FIELDS if bitmap & bit
        )
        packer = Struct("<BIddQIBBBH" + body_fmt)
        entry = (packer, packer.size - _FRAME_HEAD.size)
        packers[bitmap] = entry
        return entry

    _compile_op_encoder()(ops, strings, define, packers, make_packer, pend)
    return bytes(pend)


def _compile_op_builder(bitmap: int):
    """Generate the op builder for one presence bitmap.

    ``build(payload, body, strings)`` unpacks an 'O' frame's head and
    present fields with one ``Struct`` and makes the op in one
    positional ``PairedOp(...)`` call, string ids resolved inline —
    the technique of the ``.rtb`` decoder's record builders.  Like the
    loop it replaced, it reads the layout from ``payload`` at ``body``
    without checking the frame length.  The source is built from
    :data:`_OPT_FIELDS` alone.
    """
    body_format, values, args = _builder_fields(_OPT_FIELDS, bitmap)
    unpacker = Struct(_OP_HEAD.format + body_format)
    src = [
        "def build(payload, body, strings):",
        "    (time, reply_time, xid, client_id, proc_index, version,",
        "     status_index, _bitmap"
        + "".join(f", {var}" for var in values)
        + ") = _unpack(payload, body)",
        "    return _PairedOp(",
        "        time, reply_time, _PROCS[proc_index], strings[client_id], xid,",
        "        _STATUSES[status_index], version,",
        *(f"        {arg}," for arg in args),
        "    )",
    ]
    namespace = {
        "_unpack": unpacker.unpack_from,
        "_PairedOp": PairedOp,
        "_PROCS": _PROCS,
        "_STATUSES": _STATUSES,
    }
    exec("\n".join(src), namespace)  # noqa: S102 - static source built above
    return namespace["build"]


#: bitmap -> generated op builder, shared by every decode in the
#: process; at most ``_MAX_BUILDERS`` are kept (a decode compiles any
#: further bitmap for itself)
_BUILDERS: dict = {}


def _op_builder_for(bitmap: int):
    """The op builder for ``bitmap``, compiled on first use."""
    build = _BUILDERS.get(bitmap)
    if build is None:
        build = _compile_op_builder(bitmap)
        if len(_BUILDERS) < _MAX_BUILDERS:
            _BUILDERS[bitmap] = build
    return build


def decode_ops(payload: bytes):
    """Yield the PairedOps of one segment, in encoded order.

    Each op frame goes to its presence bitmap's generated builder
    (:func:`_compile_op_builder`).
    """
    frame_head = _FRAME_HEAD
    frame_head_size = frame_head.size
    bitmap_at = _OP_HEAD_SIZE - 2  # the head's last field, a u16
    strings: list[str] = []
    add_string = strings.append
    builders: dict = {}  # this segment's bitmaps
    builder_for = _op_builder_for
    pos = 0
    total = len(payload)
    try:
        while pos < total:
            tag, length = frame_head.unpack_from(payload, pos)
            body = pos + frame_head_size
            pos = body + length
            if pos > total:
                raise TraceFormatError("truncated op segment frame")
            if tag == _OP_TAG:
                at = body + bitmap_at
                bitmap = payload[at] | (payload[at + 1] << 8)
                try:
                    build = builders[bitmap]
                except KeyError:
                    build = builders[bitmap] = builder_for(bitmap)
                yield build(payload, body, strings)
            elif tag == _STRING_TAG:
                add_string(str(payload[body:pos], "utf-8"))
            else:
                raise TraceFormatError(f"unknown op segment tag 0x{tag:02x}")
    except (IndexError, StructError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"corrupt op segment: {exc}") from exc

