"""Reference oracles for the hand-tuned analysis kernels.

Each kernel here was rewritten for speed: the binary decoder's
generated per-bitmap record builders, the unrolled P² update,
``RunBuilder.feed`` and the op-segment decoder's generated builders.
Each test drives the kernel and a plain reference — the generic
builder, or a verbatim copy of the textbook loop kept in this file —
over the same random input and requires the same result, state and
errors.
"""

from __future__ import annotations

import io
import struct
from bisect import insort

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import opsegment
from repro.analysis.opsegment import decode_ops, encode_ops
from repro.analysis.pairing import PairedOp
from repro.analysis.runs import Access, Run, RunBuilder
from repro.errors import TraceFormatError
from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc
from repro.stream.operators import P2Quantile
from repro.trace import binfmt
from repro.trace.binfmt import (
    FORMAT_VERSION,
    MAGIC,
    BinaryTraceDecoder,
    BinaryTraceEncoder,
)
from repro.trace.record import _FIELD_CODECS, Direction, TraceRecord
from tests.helpers import op

# -- decoder: generated builders against the generic builder -------------------

_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6
)
_FINITE = st.floats(allow_nan=False, width=64)

_OPTIONAL = {
    "uid": _INT64,
    "gid": _INT64,
    "fh": _TEXT,
    "name": _TEXT,
    "target_fh": _TEXT,
    "target_name": _TEXT,
    "offset": _INT64,
    "count": _INT64,
    "size": _INT64,
    "eof": st.booleans(),
    "attr_ftype": _TEXT,
    "attr_size": _INT64,
    "attr_mtime": _FINITE,
    "attr_fileid": _INT64,
    "attr_uid": _INT64,
    "attr_gid": _INT64,
}
assert list(_OPTIONAL) == list(_FIELD_CODECS)


@st.composite
def trace_records(draw):
    """A record over a random presence bitmap."""
    present = draw(st.fixed_dictionaries({}, optional=_OPTIONAL))
    return TraceRecord(
        draw(_FINITE),
        draw(st.sampled_from((Direction.CALL, Direction.REPLY))),
        draw(st.integers(min_value=0, max_value=2**64 - 1)),
        draw(st.sampled_from(("10.0.0.1", "10.0.0.2", "c"))),
        draw(st.sampled_from(("srv", "10.0.0.100"))),
        draw(st.sampled_from(list(NfsProc))),
        draw(st.integers(min_value=0, max_value=255)),
        draw(st.none() | st.sampled_from(list(NfsStatus))),
        **present,
    )


def _encode(records) -> bytes:
    buf = io.BytesIO()
    BinaryTraceEncoder(buf).encode_block(records)
    return buf.getvalue()


def _decode(data: bytes, builder, **kwargs):
    """Decode with every bitmap's builder made by ``builder``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(binfmt, "_builder_for", builder)
        return list(BinaryTraceDecoder(io.BytesIO(data), **kwargs))


def _frames(data: bytes):
    """(offset, tag, payload) for each frame after the header."""
    pos = len(MAGIC) + 2
    while pos < len(data):
        tag, length = struct.unpack_from("<BI", data, pos)
        yield pos, tag, data[pos + 5: pos + 5 + length]
        pos += 5 + length


class TestDecoderOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(trace_records(), max_size=12), st.data())
    def test_generated_builders_match_generic(self, records, data):
        blob = _encode(records)
        generated = _decode(blob, binfmt._compile_record_builder)
        generic = _decode(blob, binfmt._generic_builder)
        # repr as well: ``1 == True``, but an int ``eof`` is a bug
        assert repr(generated) == repr(generic) == repr(records)
        assert generated == generic == records
        assert list(BinaryTraceDecoder(io.BytesIO(blob))) == records

        # a mid-stream start: the string table as it stood at a record
        # frame, then the remaining frames without a header
        starts = []
        strings: list[str] = []
        for offset, tag, payload in _frames(blob):
            if tag == binfmt._STRING_TAG:
                strings.append(payload.decode("utf-8"))
            else:
                starts.append((offset, tuple(strings)))
        if not starts:
            return
        index = data.draw(st.integers(0, len(starts) - 1))
        offset, seed = starts[index]
        tail = blob[offset:]
        for builder in (binfmt._compile_record_builder, binfmt._generic_builder):
            decoded = _decode(tail, builder, expect_header=False, strings=seed)
            assert repr(decoded) == repr(records[index:])

    def test_bitmaps_past_the_cap_decode_through_the_generic_builder(
        self, monkeypatch
    ):
        bitmaps = list(range(0, 1 << 16, 193))
        assert len(bitmaps) > binfmt._MAX_BUILDERS
        records = []
        for i, bitmap in enumerate(bitmaps):
            values = {
                name: {binfmt._INT: -i, binfmt._STR: f"s{i % 7}",
                       binfmt._BOOL: i % 2 == 0,
                       binfmt._FLOAT: i + 0.5}[kind]
                for bit, name, kind in binfmt._OPT_FIELDS if bitmap & bit
            }
            records.append(TraceRecord(
                float(i), Direction.REPLY, i, "c", "s", NfsProc.READ, 3,
                NfsStatus.OK, **values,
            ))
        blob = _encode(records)
        compiled = []
        compile_builder = binfmt._compile_record_builder

        def counting(bitmap):
            compiled.append(bitmap)
            return compile_builder(bitmap)

        monkeypatch.setattr(binfmt, "_BUILDERS", {})
        monkeypatch.setattr(binfmt, "_compile_record_builder", counting)
        decoded = list(BinaryTraceDecoder(io.BytesIO(blob)))
        assert repr(decoded) == repr(records)
        assert len(compiled) == binfmt._MAX_BUILDERS
        assert len(binfmt._BUILDERS) == binfmt._MAX_BUILDERS
        # a second decoder reuses the process's builders
        assert list(BinaryTraceDecoder(io.BytesIO(blob))) == records
        assert len(compiled) == binfmt._MAX_BUILDERS


_HEADER = MAGIC + struct.pack("<H", FORMAT_VERSION)


def _string_frame(text: str) -> bytes:
    data = text.encode("utf-8")
    return struct.pack("<BI", binfmt._STRING_TAG, len(data)) + data


def _record_frame(*, direction=0, client=0, server=1, proc=6, status=0,
                  bitmap=0, body=b"") -> bytes:
    payload = struct.pack(
        "<dBQIIBBBH", 1.5, direction, 7, client, server, proc, 3, status,
        bitmap,
    ) + body
    return struct.pack("<BI", binfmt._RECORD_TAG, len(payload)) + payload


#: bit of ``fh`` (a string id) and of ``count`` (an i64)
_FH_BIT = 1 << list(_FIELD_CODECS).index("fh")
_COUNT_BIT = 1 << list(_FIELD_CODECS).index("count")
_FH_COUNT = _FH_BIT | _COUNT_BIT


class TestDecoderErrors:
    """Corrupt record frames raise the messages they always raised."""

    CASES = {
        "bad direction": (
            dict(direction=2, bitmap=_FH_COUNT,
                 body=struct.pack("<Iq", 0, 10)),
            "bad direction byte 2",
        ),
        "client id past the table": (
            dict(client=9, bitmap=_FH_COUNT, body=struct.pack("<Iq", 0, 10)),
            "corrupt record frame: list index out of range",
        ),
        "proc index out of range": (
            dict(proc=200, bitmap=_FH_COUNT, body=struct.pack("<Iq", 0, 10)),
            "corrupt record frame: tuple index out of range",
        ),
        "status index out of range": (
            dict(status=250, bitmap=_FH_COUNT,
                 body=struct.pack("<Iq", 0, 10)),
            "corrupt record frame: tuple index out of range",
        ),
        "field string id past the table": (
            dict(bitmap=_FH_COUNT, body=struct.pack("<Iq", 5, 10)),
            "corrupt record frame: list index out of range",
        ),
        "body longer than the frame": (
            dict(bitmap=_FH_COUNT, body=struct.pack("<I", 0)),
            "short record frame",
        ),
        # several faults: the first in the documented order wins
        "bad direction and short body": (
            dict(direction=3, bitmap=_FH_COUNT, body=b""),
            "bad direction byte 3",
        ),
        "bad client and short body": (
            dict(client=9, bitmap=_FH_COUNT, body=b"\x00"),
            "corrupt record frame: list index out of range",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("builder", ["default", "generated", "generic"])
    def test_message(self, case, builder, monkeypatch):
        frame_args, message = self.CASES[case]
        # a good record first, so the bad one is not the first frame,
        # then more bytes after it, so a short frame is not a short file
        blob = (_HEADER + _string_frame("c") + _string_frame("srv")
                + _record_frame(bitmap=_FH_COUNT,
                                body=struct.pack("<Iq", 1, 8192))
                + _record_frame(**frame_args)
                + _record_frame() * 3)
        if builder != "default":
            monkeypatch.setattr(binfmt, "_builder_for", {
                "generated": binfmt._compile_record_builder,
                "generic": binfmt._generic_builder,
            }[builder])
        decoded = []
        with pytest.raises(TraceFormatError) as info:
            for record in BinaryTraceDecoder(io.BytesIO(blob)):
                decoded.append(record)
        assert str(info.value) == message
        assert [(r.fh, r.count) for r in decoded] == [("srv", 8192)]


# -- P²: the unrolled update against the textbook loop ------------------------


class _ReferenceP2:
    """The P² update as a loop over markers 1-3 (Jain & Chlamtac)."""

    def __init__(self, p: float) -> None:
        self.count = 0
        self._q: list[float] = []
        self._n = [0, 1, 2, 3, 4]
        self._np = [0.0, 2 * p, 4 * p, 2 + 2 * p, 4.0]
        self._dn = [0.0, p / 2, p, (1 + p) / 2, 1.0]

    def add(self, x: float) -> None:
        self.count += 1
        if self.count <= 5:
            insort(self._q, x)
            return
        q, n = self._q, self._n
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1
        for i in range(5):
            self._np[i] += self._dn[i]
        for i in (1, 2, 3):
            d = self._np[i] - n[i]
            if (d >= 1 and n[i + 1] - n[i] > 1) or (
                d <= -1 and n[i - 1] - n[i] < -1
            ):
                d = 1 if d > 0 else -1
                candidate = q[i] + d / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
                )
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = q[i] + d * (q[i + d] - q[i]) / (n[i + d] - n[i])
                q[i] = candidate
                n[i] += d


_SAMPLES = st.one_of(
    st.lists(_FINITE, max_size=80),
    # ties and constant runs
    st.lists(st.sampled_from([-1.0, 0.0, 0.0, 2.5, 7.0]), max_size=80),
    st.lists(st.just(3.0), max_size=40),
    # a tight range, so the parabolic and linear branches both fire
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=5,
             max_size=200),
    st.lists(st.sampled_from([-1e308, -1e300, 1e300, 1e308, 0.0]),
             max_size=40),
)


class TestP2Oracle:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([0.01, 0.5, 0.9, 0.99]), _SAMPLES)
    def test_markers_match_the_loop_after_every_add(self, p, xs):
        estimator, reference = P2Quantile(p), _ReferenceP2(p)
        for x in xs:
            estimator.add(x)
            reference.add(x)
            # repr: bit-exact, and a NaN from overflowing values
            # compares equal to itself
            assert repr(estimator._q) == repr(reference._q)
            assert estimator._n == reference._n
            assert repr(estimator._np) == repr(reference._np)
        assert estimator.count == reference.count


# -- RunBuilder.feed against the keyword-building reference -------------------


class _ReferenceRunBuilder(RunBuilder):
    """``feed`` as written before it was tuned."""

    def feed(self, op):
        if not (op.is_read() or op.is_write()) or not op.ok():
            return
        if op.fh is None or op.offset is None or op.count is None:
            return
        if op.count == 0:
            return
        file_size = op.post_size if op.post_size is not None else 0
        if op.is_read():
            hit_eof = bool(op.eof) or (
                file_size > 0 and op.offset + op.count >= file_size
            )
        else:
            prev_size = self._last_size.get(op.fh)
            grew = prev_size is None or file_size > prev_size
            hit_eof = (
                not grew and file_size > 0 and op.offset + op.count >= file_size
            )
        self._last_size[op.fh] = max(file_size, self._last_size.get(op.fh, 0))
        access = Access(
            time=op.time,
            offset=op.offset,
            count=op.count,
            is_read=op.is_read(),
            file_size=file_size,
            hit_eof=hit_eof,
        )
        run = self._open.get(op.fh)
        if run is not None and run.accesses:
            last = run.accesses[-1]
            if last.hit_eof or access.time - last.time > self.idle_gap:
                self._close(op.fh)
                run = None
        if run is None:
            run = Run(fh=op.fh)
            self._open[op.fh] = run
        run.accesses.append(access)


#: extents and sizes come mostly from one small set, so that sizes
#: repeat, grow and shrink and accesses end exactly at the size
_EXTENTS = st.sampled_from([0, 4096, 8192, 8192, 16384])


def _mostly_extents(lo: int, hi: int):
    return st.one_of(_EXTENTS, _EXTENTS, _EXTENTS, st.none(),
                     st.integers(min_value=lo, max_value=hi))


_OPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.002, 1.0, 29.999, 30.0, 31.0, -0.5]),
        st.sampled_from([NfsProc.READ, NfsProc.READ, NfsProc.WRITE,
                         NfsProc.WRITE, NfsProc.COMMIT, NfsProc.GETATTR]),
        st.sampled_from([NfsStatus.OK, NfsStatus.OK, NfsStatus.OK,
                         NfsStatus.NOENT, NfsStatus.IO]),
        st.sampled_from(["f1", "f1", "f2", None]),
        _mostly_extents(-(2**16), 2**20),  # offset
        _mostly_extents(-(2**14), 2**16),  # count
        _mostly_extents(-(2**20), 2**20),  # post-op size
        st.sampled_from([None, True, False]),
    ),
    max_size=60,
)

#: a write ending at the file's unchanged size references EOF
_REWRITE = [
    (0.0, NfsProc.WRITE, NfsStatus.OK, "f1", 0, 8192, 8192, None),
    (1.0, NfsProc.WRITE, NfsStatus.OK, "f1", 0, 8192, 8192, None),
    (1.0, NfsProc.WRITE, NfsStatus.OK, "f1", 0, 4096, -4096, None),
]


def _runs(runs):
    return [(run.fh, run.accesses) for run in runs]


class TestRunBuilderOracle:
    @settings(max_examples=300, deadline=None)
    @given(_OPS, st.sampled_from([30.0, 0.001]))
    @example(_REWRITE, 30.0)
    def test_feed_matches_the_reference(self, rows, idle_gap):
        tuned_runs, reference_runs = [], []
        tuned = RunBuilder(idle_gap=idle_gap, sink=tuned_runs.append)
        reference = _ReferenceRunBuilder(
            idle_gap=idle_gap, sink=reference_runs.append)
        t = 0.0
        for gap, proc, status, fh, offset, count, post_size, eof in rows:
            t += gap
            o = op(proc, t, fh, offset, count, status=status,
                   post_size=post_size, eof=eof)
            tuned.feed(o)
            reference.feed(o)
            assert tuned._last_size == reference._last_size
            assert _runs(tuned_runs) == _runs(reference_runs)
            assert _runs(tuned._open.values()) == _runs(reference._open.values())
        tuned.finish()
        reference.finish()
        assert _runs(tuned_runs) == _runs(reference_runs)
        for run in tuned_runs:
            for access in run.accesses:
                assert type(access.hit_eof) is bool
                assert type(access.is_read) is bool


# -- op segments: generated op builders against the setattr loop --------------


def _reference_decode_ops(payload: bytes):
    """``decode_ops`` as written before the generated builders."""
    frame_head = binfmt._FRAME_HEAD
    frame_head_size = frame_head.size
    op_head = opsegment._OP_HEAD
    op_head_size = opsegment._OP_HEAD_SIZE
    strings: list[str] = []
    add_string = strings.append
    unpackers = {}
    procs = binfmt._PROCS
    statuses = binfmt._STATUSES
    pos = 0
    total = len(payload)
    try:
        while pos < total:
            tag, length = frame_head.unpack_from(payload, pos)
            body = pos + frame_head_size
            pos = body + length
            if pos > total:
                raise TraceFormatError("truncated op segment frame")
            if tag == opsegment._OP_TAG:
                (time, reply_time, xid, client_id, proc_index, version,
                 status_index, bitmap) = op_head.unpack_from(payload, body)
                op_ = PairedOp(time, reply_time, procs[proc_index],
                               strings[client_id], xid,
                               statuses[status_index], version)
                if bitmap:
                    entry = unpackers.get(bitmap)
                    if entry is None:
                        fields = tuple(
                            (name, kind)
                            for bit, name, kind in opsegment._OPT_FIELDS
                            if bitmap & bit
                        )
                        fmt = "<" + "".join(
                            binfmt._KIND_FMT[kind] for _name, kind in fields)
                        entry = unpackers[bitmap] = (struct.Struct(fmt), fields)
                    unpacker, fields = entry
                    values = unpacker.unpack_from(payload, body + op_head_size)
                    for (name, kind), value in zip(fields, values):
                        if kind == binfmt._STR:
                            value = strings[value]
                        elif kind == binfmt._BOOL:
                            value = value != 0
                        setattr(op_, name, value)
                yield op_
            elif tag == binfmt._STRING_TAG:
                add_string(str(payload[body:pos], "utf-8"))
            else:
                raise TraceFormatError(f"unknown op segment tag 0x{tag:02x}")
    except (IndexError, struct.error, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"corrupt op segment: {exc}") from exc


_OP_OPTIONAL = {
    name: {
        binfmt._INT: _INT64,
        binfmt._STR: _TEXT,
        binfmt._BOOL: st.booleans(),
        binfmt._FLOAT: _FINITE,
    }[kind]
    for _bit, name, kind in opsegment._OPT_FIELDS
}


@st.composite
def paired_ops(draw):
    """An op over a random presence bitmap: any optional field None."""
    present = draw(st.fixed_dictionaries({}, optional=_OP_OPTIONAL))
    return PairedOp(
        draw(_FINITE), draw(_FINITE),
        draw(st.sampled_from(list(NfsProc))),
        draw(_TEXT),
        draw(st.integers(min_value=0, max_value=2**64 - 1)),
        draw(st.sampled_from(list(NfsStatus))),
        draw(st.integers(min_value=0, max_value=255)),
        **present,
    )


def _decode_outcome(decode, payload: bytes):
    """``(ops, error message)``: what a decoder yields before it stops."""
    ops = []
    try:
        for op_ in decode(payload):
            ops.append(op_)
    except TraceFormatError as exc:
        return ops, str(exc)
    return ops, None


def _op_frame(*, client=0, proc=6, status=0, bitmap=0, body=b"") -> bytes:
    payload = struct.pack("<ddQIBBBH", 1.0, 1.5, 7, client, proc, 3, status,
                          bitmap) + body
    return struct.pack("<BI", opsegment._OP_TAG, len(payload)) + payload


#: bit of ``fh`` (a string id) in the op bitmap
_OP_FH_BIT = 1 << list(opsegment._FIELD_KINDS).index("fh")
_OP_GOOD = _string_frame("c") + _op_frame()


class TestOpSegmentOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(paired_ops(), max_size=12))
    def test_generated_builders_match_the_loop(self, ops):
        payload = encode_ops(ops)
        decoded = list(decode_ops(payload))
        # repr as well: ``1 == True``, but an int ``eof`` is a bug
        assert repr(decoded) == repr(list(_reference_decode_ops(payload)))
        assert repr(decoded) == repr(ops)
        assert decoded == ops

    CORRUPT = {
        "client id past the table": _OP_GOOD + _op_frame(client=9),
        "field string id past the table": _OP_GOOD + _op_frame(
            bitmap=_OP_FH_BIT, body=struct.pack("<I", 4)),
        "proc index out of range": _OP_GOOD + _op_frame(proc=200),
        "status index out of range": _OP_GOOD + _op_frame(status=250),
        "body past the segment": _OP_GOOD + _op_frame(bitmap=_OP_FH_BIT),
        "head past the segment": _OP_GOOD + struct.pack(
            "<BI", opsegment._OP_TAG, 4) + bytes(4),
        "truncated frame": _OP_GOOD + _op_frame()[:-3],
        "unknown tag": _OP_GOOD + b"\x51\x00\x00\x00\x00",
        "bad string": _OP_GOOD + b"\x53\x01\x00\x00\x00\xff",
    }

    @pytest.mark.parametrize("case", list(CORRUPT))
    def test_corrupt_segments_raise(self, case):
        payload = self.CORRUPT[case]
        ops, message = _decode_outcome(decode_ops, payload)
        reference_ops, reference_message = _decode_outcome(
            _reference_decode_ops, payload)
        assert ops == reference_ops
        assert len(ops) == 1
        assert message is not None
        if case in ("truncated frame", "unknown tag", "bad string"):
            assert message == reference_message
        else:
            # a struct error names the bytes it wanted, which differ
            # between one unpack and two
            assert message.startswith("corrupt op segment: ")
            assert reference_message.startswith("corrupt op segment: ")
