"""Reference oracles for the hand-tuned analysis kernels.

Each kernel here was rewritten for speed: the binary decoder's
generated per-bitmap record builders, the unrolled P² update,
``RunBuilder.feed``, the op-segment decoder's generated builders, the
one-pass ``characterize`` with the lean ``observe`` of each analyzer it
runs, and the stream pass's ``SpaceSaving`` heap, single-fold
``StreamSummary`` and one engine loop.  Each test drives the kernel and
a plain reference — the generic builder, or a verbatim copy of the
textbook loop kept in this file — over the same random input and
requires the same result, state and errors.
"""

from __future__ import annotations

import heapq
import importlib
import io
import math
import struct
from bisect import insort
from collections import Counter
from dataclasses import fields as dataclass_fields
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import opsegment
from repro.analysis.activity import ActivityAnalyzer, HourBucket
from repro.analysis.characterize import Characterization, characterize
from repro.analysis.hierarchy import (
    _OBSERVERS,
    HierarchyReconstructor,
    KnownFile,
)
from repro.analysis.lifetimes import (
    BIRTH_EXTENSION,
    BIRTH_WRITE,
    DEATH_DELETE,
    DEATH_OVERWRITE,
    DEATH_TRUNCATE,
    BlockLifetimeAnalyzer,
    _FileState,
)
from repro.analysis.names import NameCategoryAnalyzer
from repro.analysis.opsegment import decode_ops, encode_ops
from repro.analysis.pairing import PairedOp, call_order_key
from repro.analysis.runs import Access, Run, RunBuilder
from repro.analysis.summary import TraceSummary, summarize_trace
from repro.errors import StreamMemoryError, TraceFormatError
from repro.fs.blockmap import block_count, block_of, block_range
from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc
from repro.simcore.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.stream.analyses import (
    StreamLatency,
    StreamLifetimes,
    StreamRuns,
    StreamStats,
    StreamSummary,
    StreamTopFiles,
)
from repro.stream.engine import StreamAnalysis, StreamEngine
from repro.stream.operators import P2Quantile, SpaceSaving, TumblingWindow
from repro.trace import binfmt
from repro.trace.binfmt import (
    FORMAT_VERSION,
    MAGIC,
    BinaryTraceDecoder,
    BinaryTraceEncoder,
)
from repro.trace.record import _FIELD_CODECS, Direction, TraceRecord
from repro.workloads.namespaces import (
    CATEGORY_LOCK,
    CATEGORY_MAILBOX,
    CATEGORY_OTHER,
    classify_name,
)
from tests.helpers import op
from tests.test_analysis_parallel import make_stream
from tests.test_stream_equivalence import record_streams

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


# -- characterize: one pass against the multi-pass composition -----------------


class _ReferenceHierarchy(HierarchyReconstructor):
    """``observe`` as written before it was tuned."""

    def observe(self, op):
        if op.fh is not None and op.fh not in self._files and op.proc not in (
            NfsProc.LOOKUP, NfsProc.CREATE, NfsProc.MKDIR, NfsProc.SYMLINK,
        ):
            self.orphan_operations += 1
            self._files[op.fh] = KnownFile(fh=op.fh, first_seen=op.time)
        if not op.ok():
            return
        handler = _OBSERVERS.get(op.proc)
        if handler is not None:
            handler(self, op)
        if op.fh is not None and op.post_size is not None:
            entry = self._files.get(op.fh)
            if entry is not None and op.reply_fh in (None, op.fh):
                entry.last_size = op.post_size


class _ReferenceLifetimeSteps:
    """``BlockLifetimeAnalyzer``'s per-op steps as written before they
    were tuned; mixed in ahead of a tuned class, whose ``_death`` (the
    old one, or ``StreamLifetimes``' override) stays in use."""

    def observe(self, op):
        if op.time > self.phase2_end:
            return
        if op.ok():
            if op.proc is NfsProc.WRITE:
                self._observe_write(op)
            elif op.proc is NfsProc.SETATTR and op.size is not None:
                self._observe_truncate(op)
            elif op.proc is NfsProc.CREATE:
                self._observe_create(op)
            elif op.proc in (NfsProc.REMOVE, NfsProc.RMDIR):
                self._observe_remove(op)
            elif op.proc is NfsProc.RENAME:
                self._observe_rename(op)
            else:
                self._learn_size(op)
        self.hierarchy.observe(op)

    def _state(self, op):
        if op.fh is None:
            return None
        state = self._files.get(op.fh)
        if state is None:
            known = self.hierarchy.lookup(op.fh)
            if known is not None and known.last_size is not None:
                state = _FileState(size=known.last_size)
            elif op.post_size is not None and op.proc not in (
                NfsProc.WRITE, NfsProc.SETATTR,
            ):
                state = _FileState(size=op.post_size)
            else:
                self.ops_skipped += 1
                state = _FileState(size=op.post_size or 0)
                self._files[op.fh] = state
                return None
            self._files[op.fh] = state
        return state

    def _birth(self, state, block, t, cause):
        state.births[block] = t
        if self._in_phase1(t):
            self._total_births += 1
            self._births_by_cause[cause] += 1

    def _observe_write(self, op):
        state = self._state(op)
        if state is None or op.offset is None or op.count is None or op.count == 0:
            return
        pre_size = state.size
        old_blocks = block_count(pre_size)
        lseek_past_eof = op.offset > pre_size
        if lseek_past_eof:
            for block in range(old_blocks, block_of(op.offset)):
                self._birth(state, block, op.time, BIRTH_EXTENSION)
        for block in block_range(op.offset, op.count):
            if block < old_blocks:
                self._death(state, block, op.time, DEATH_OVERWRITE)
                self._birth(state, block, op.time, BIRTH_WRITE)
            else:
                cause = BIRTH_EXTENSION if lseek_past_eof else BIRTH_WRITE
                self._birth(state, block, op.time, cause)
        state.size = max(pre_size, op.offset + op.count)
        if op.post_size is not None:
            state.size = max(state.size, op.post_size)

    def _learn_size(self, op):
        target = op.reply_fh or op.fh
        if target is None or op.post_size is None:
            return
        state = self._files.get(target)
        if state is None:
            self._files[target] = _FileState(size=op.post_size)
        elif op.proc is not NfsProc.READ:
            state.size = max(state.size, op.post_size)


class _ReferenceLifetimes(_ReferenceLifetimeSteps, BlockLifetimeAnalyzer):
    def __init__(self, *phases):
        super().__init__(*phases)
        self.hierarchy = _ReferenceHierarchy()

    def _death(self, state, block, t, cause):
        birth = state.births.pop(block, None)
        if birth is None:
            return
        if self._in_phase1(birth):
            self._deaths.append((t - birth, cause))


class _ReferenceStreamLifetimes(_ReferenceLifetimeSteps, StreamLifetimes):
    def __init__(self, *phases, **kwargs):
        super().__init__(*phases, **kwargs)
        self.hierarchy = _ReferenceHierarchy()


class _ReferenceNames(NameCategoryAnalyzer):
    """``observe``, ``_observe_access`` and ``accessed_shares`` as
    written before they were tuned."""

    def __init__(self):
        super().__init__()
        self.hierarchy = _ReferenceHierarchy()

    def observe(self, op):
        if self._sorted_cache:
            self._sorted_cache.clear()
        if op.ok():
            if op.proc is NfsProc.CREATE and op.reply_fh and op.name:
                obs = self._file_for(op.reply_fh, op.name)
                if obs.created_at is None:
                    obs.created_at = op.time
                if op.post_size is not None:
                    obs.max_size = max(obs.max_size, op.post_size)
            elif op.proc in (NfsProc.REMOVE, NfsProc.RMDIR) and op.fh and op.name:
                victim = self.hierarchy.child(op.fh, op.name)
                if victim is not None and victim in self._files:
                    self._files[victim].deleted_at = op.time
            elif op.proc is NfsProc.LOOKUP and op.reply_fh and op.name:
                self._file_for(op.reply_fh, op.name)
            if (op.is_read() or op.is_write()) and op.fh:
                self._observe_access(op)
        self.hierarchy.observe(op)

    def _observe_access(self, op):
        obs = self._files.get(op.fh)
        if obs is None:
            known = self.hierarchy.lookup(op.fh)
            if known is None or known.name is None:
                return
            obs = self._file_for(op.fh, known.name)
        if op.post_size is not None:
            obs.max_size = max(obs.max_size, op.post_size)
        if op.offset is None or op.count is None:
            return
        if obs._last_end is None or op.offset == obs._last_end:
            obs.sequential_accesses += 1
        else:
            obs.nonsequential_accesses += 1
        obs._last_end = op.offset + op.count

    def accessed_shares(self, ops):
        directories = self.hierarchy.known_directories()
        seen = set()
        census = Counter()
        for op in ops:
            for fh in (op.fh, op.reply_fh):
                if fh is None or fh in seen or fh in directories:
                    continue
                known = self.hierarchy.lookup(fh)
                if known is not None and known.ftype == "DIR":
                    continue
                seen.add(fh)
                obs = self._files.get(fh)
                if obs is not None:
                    census[obs.category] += 1
                elif known is not None and known.name is not None:
                    census[classify_name(known.name)] += 1
                else:
                    census[CATEGORY_OTHER] += 1
        total = sum(census.values())
        if total == 0:
            return {}
        return {category: count / total for category, count in census.items()}


class _ReferenceActivity(ActivityAnalyzer):
    def observe(self, op):
        index = int(op.time // SECONDS_PER_HOUR)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = HourBucket(start=index * SECONDS_PER_HOUR)
            self._buckets[index] = bucket
        bucket.ops += 1
        if op.is_read() and op.ok():
            bucket.read_ops += 1
            bucket.read_bytes += op.count or 0
        elif op.is_write() and op.ok():
            bucket.write_ops += 1
            bucket.write_bytes += op.count or 0


def _reference_characterize(ops, start, end, *, peak_ops=None,
                            lifetime_phase_end=None):
    """``characterize`` as six passes, as written before the one pass."""
    summary = summarize_trace(ops, start, end)
    activity = _ReferenceActivity().observe_all(ops)
    table5 = activity.table5(start, end)
    mid = start + (end - start) / 2
    phase2_end = lifetime_phase_end if lifetime_phase_end is not None else end
    lifetime = _ReferenceLifetimes(start, mid, phase2_end).observe_all(ops)
    life_report = lifetime.report()
    names = _ReferenceNames().observe_all(ops)
    shares = names.accessed_shares(peak_ops if peak_ops is not None else ops)
    mailbox = total = 0
    for o in ops:
        if not o.ok() or not (o.is_read() or o.is_write()):
            continue
        nbytes = o.count or 0
        total += nbytes
        known = names.hierarchy.lookup(o.fh) if o.fh else None
        if known is not None and known.name is not None:
            if classify_name(known.name) == CATEGORY_MAILBOX:
                mailbox += nbytes
    return Characterization(
        summary=summary,
        metadata_fraction=summary.metadata_fraction,
        rw_byte_ratio=summary.rw_byte_ratio,
        rw_op_ratio=summary.rw_op_ratio,
        peak_variance_reduction=table5.variance_reduction("total_ops"),
        mailbox_file_share=shares.get(CATEGORY_MAILBOX, 0.0),
        lock_file_share=shares.get(CATEGORY_LOCK, 0.0),
        mailbox_byte_share=mailbox / total if total else 0.0,
        median_block_lifetime=life_report.median_lifetime(),
        fraction_blocks_dead_within_1s=life_report.fraction_dead_within(1.0),
        death_overwrite_fraction=life_report.death_fraction(DEATH_OVERWRITE),
        death_delete_fraction=life_report.death_fraction(DEATH_DELETE),
        death_truncate_fraction=life_report.death_fraction(DEATH_TRUNCATE),
    )


#: few handles and names, so names bind, rebind and get removed, and
#: written files are named; None is an op without that field
_FHS = st.sampled_from(["d1", "d1", "d1", "d2", "f1", "f1", "f2", None])
_FILE_NAMES = st.sampled_from([".inbox", ".inbox", ".inbox.lock", "notes", None])
_SIZES = st.one_of(
    st.none(), st.sampled_from([0, 0, 100, 8192, 8193, 20000, 65536]),
    st.integers(min_value=0, max_value=2**17),
)


@st.composite
def namespace_ops(draw, max_size=40):
    """Random op streams over a small namespace: binds, removes and
    renames of known and unknown names, data ops, failures, None
    fields and repeated ``(time, client, xid)`` keys."""
    rows = draw(st.lists(st.tuples(
        st.sampled_from([0.0, 0.0, 0.001, 0.4, 1.0, 30.0, 1800.0, 3600.0]),
        st.sampled_from([
            NfsProc.LOOKUP, NfsProc.LOOKUP, NfsProc.CREATE, NfsProc.CREATE,
            NfsProc.MKDIR, NfsProc.SYMLINK, NfsProc.REMOVE, NfsProc.RMDIR,
            NfsProc.RENAME, NfsProc.READ, NfsProc.READ, NfsProc.WRITE,
            NfsProc.WRITE, NfsProc.WRITE, NfsProc.SETATTR, NfsProc.SETATTR,
            NfsProc.GETATTR, NfsProc.ACCESS, NfsProc.COMMIT,
        ]),
        st.sampled_from([NfsStatus.OK] * 5 + [NfsStatus.NOENT, NfsStatus.IO]),
        _FHS, _FILE_NAMES, _FHS,  # fh, name, reply_fh
        st.sampled_from([None, None, "d1", "d2"]),  # target_fh
        st.sampled_from([None, None, ".inbox", "notes"]),  # target_name
        st.one_of(st.none(), st.sampled_from([0, 100, 8192, 16384]),
                  st.integers(min_value=0, max_value=2**17)),  # offset
        st.one_of(st.none(), st.sampled_from([0, 100, 8192, 8192]),
                  st.integers(min_value=0, max_value=2**15)),  # count
        _SIZES, _SIZES,  # size, post_size
        st.sampled_from(["REG", "REG", "DIR", None]),
        st.sampled_from([("c1", 1), ("c1", 1), ("c1", 2), ("c2", 1)]),
    ), max_size=max_size))
    ops, t = [], draw(st.sampled_from([0.0, 86000.0]))
    for (gap, proc, status, fh, name, reply_fh, target_fh, target_name,
         offset, count, size, post_size, ftype, (client, xid)) in rows:
        t += gap
        ops.append(op(
            proc, t, fh, offset, count, status=status, name=name,
            reply_fh=reply_fh, target_fh=target_fh, target_name=target_name,
            size=size, post_size=post_size, post_ftype=ftype,
            client=client, xid=xid,
        ))
    return ops


def _phases_on_op_times(ops, data):
    """Lifetime phases whose bounds fall on op times, so births and
    deaths land exactly on them too."""
    times = sorted({o.time for o in ops}) or [0.0]
    p1_start = data.draw(st.sampled_from(times[:-1] or times), label="p1s")
    p1_end = data.draw(st.sampled_from(
        [t for t in times if t > p1_start] or [p1_start + 1.0]), label="p1e")
    p2_end = data.draw(st.sampled_from(
        [t for t in times if t >= p1_end] or [p1_end]), label="p2e")
    return p1_start, p1_end, p2_end


def _outcome(fn, *args, **kwargs):
    """``repr`` of the result, or the error it raised."""
    try:
        return repr(fn(*args, **kwargs))
    except ValueError as exc:
        return ("ValueError", str(exc))


def _namespace_state(h):
    return (repr(h._files), repr(h._entries), h.lookups_learned,
            h.orphan_operations)


def _lifetime_state(a):
    return (repr(a._files), repr(a._deaths), repr(a._births_by_cause),
            a._total_births, a.ops_skipped, _namespace_state(a.hierarchy))


def _stream_lifetime_state(a):
    return (_lifetime_state(a), repr(a._stream_deaths), a._overlong,
            a._censored_alive, a.censored_files, a._hist.counts,
            a._hist.overflow)


def _name_state(a):
    files = {fh: (repr(obs), obs._last_end) for fh, obs in a._files.items()}
    return (files, _namespace_state(a.hierarchy))


def _step_both(tuned, reference, o, state):
    """Feed ``o`` to both; equal outcome and state, or the same error."""
    outcomes = [_outcome(analyzer.observe, o) for analyzer in (tuned, reference)]
    assert outcomes[0] == outcomes[1]
    assert state(tuned) == state(reference)
    return outcomes[0] == repr(None)


class TestCharacterizeOracle:
    @settings(max_examples=300, deadline=None)
    @given(namespace_ops(), st.data())
    def test_one_pass_matches_the_multi_pass_composition(self, ops, data):
        if data.draw(st.booleans(), label="shuffled"):
            ops = data.draw(st.permutations(ops), label="order")
        else:
            ops.sort(key=call_order_key)
        times = sorted(o.time for o in ops) or [0.0]
        start = times[0]
        # end just past the last op (one shared namespace), or below it
        # (lifetimes keeps its own)
        end = data.draw(st.sampled_from(
            [times[-1] + 1e-6, times[-1] + 1e-6, times[len(times) // 2] + 1.0,
             start + 0.5]), label="end")
        phase_end = data.draw(st.sampled_from(
            [None, None, end, times[len(times) // 2] + 1.0,
             times[-1] + 10.0]), label="lifetime_phase_end")
        peak = None
        if data.draw(st.booleans(), label="peak"):
            peak = [o for o in ops if data.draw(st.booleans())]
        expected = _outcome(_reference_characterize, ops, start, end,
                            peak_ops=peak, lifetime_phase_end=phase_end)
        assert _outcome(characterize, ops, start, end, peak_ops=peak,
                        lifetime_phase_end=phase_end) == expected
        # the summary handed in (analyze's) gives the same answer
        assert _outcome(characterize, ops, start, end, peak_ops=peak,
                        lifetime_phase_end=phase_end,
                        summary=summarize_trace(ops, start, end)) == expected

    def test_victims_resolve_before_the_namespace_changes(self):
        # the REMOVE's victim is found only while its name is still bound
        ops = [
            op(NfsProc.LOOKUP, 0.0, "d1", name=".inbox", reply_fh="f1",
               post_size=0),
            op(NfsProc.WRITE, 1.0, "f1", 0, 8192, post_size=8192),
            op(NfsProc.REMOVE, 2.0, "d1", name=".inbox"),
        ]
        got = characterize(ops, 0.0, 10.0)
        assert got.death_delete_fraction == 1.0
        assert repr(got) == repr(_reference_characterize(ops, 0.0, 10.0))

    def test_failed_data_ops_move_no_bytes(self):
        # half the bytes that moved went to the mailbox; the failed
        # WRITE to ``notes`` moved none
        ops = [
            op(NfsProc.LOOKUP, 0.0, "d1", name=".inbox", reply_fh="f1"),
            op(NfsProc.LOOKUP, 0.0, "d1", name="notes", reply_fh="f2"),
            op(NfsProc.WRITE, 1.0, "f1", 0, 8192),
            op(NfsProc.READ, 2.0, "f2", 0, 8192),
            op(NfsProc.WRITE, 3.0, "f2", 0, 8192, status=NfsStatus.IO),
        ]
        got = characterize(ops, 0.0, 10.0)
        assert got.mailbox_byte_share == 0.5
        assert repr(got) == repr(_reference_characterize(ops, 0.0, 10.0))

    @pytest.mark.parametrize("end, phase_end", [(20.0, None), (60.0, 40.0)])
    def test_namespace_is_not_shared_past_phase_two(self, end, phase_end):
        # reply order: a LOOKUP past phase 2 names ``f9`` before an
        # earlier REMOVE of that name arrives.  Lifetimes never sees the
        # LOOKUP, so for it the REMOVE has no victim and f9's block
        # outlives the window; the name census does see it
        ops = [
            op(NfsProc.WRITE, 1.0, "f9", 0, 8192, post_size=8192),
            op(NfsProc.WRITE, 2.0, "f9", 8192, 8192, post_size=16384),
            op(NfsProc.LOOKUP, 50.0, "d1", name="x", reply_fh="f9",
               post_size=16384),
            op(NfsProc.REMOVE, 3.0, "d1", name="x"),
        ]
        got = characterize(ops, 0.0, end, lifetime_phase_end=phase_end)
        assert got.death_delete_fraction == 0.0
        assert repr(got) == repr(_reference_characterize(
            ops, 0.0, end, lifetime_phase_end=phase_end))

    @pytest.mark.parametrize("end, phase_end", [(20.0, None), (60.0, 40.0)])
    def test_call_ordered_ops_past_phase_two_share_the_namespace(
            self, monkeypatch, end, phase_end):
        # call order (batch ``analyze --end``, ``report --end``): the ops
        # past phase 2 come after every other op, so lifetimes folds the
        # ops before them over the one shared namespace (the package
        # attribute of the same name is the function)
        characterize_module = importlib.import_module(
            "repro.analysis.characterize")
        shared = []

        class Recording(BlockLifetimeAnalyzer):
            def __init__(self, *args, hierarchy=None):
                shared.append(hierarchy is not None)
                super().__init__(*args, hierarchy=hierarchy)

        monkeypatch.setattr(characterize_module, "BlockLifetimeAnalyzer",
                            Recording)
        ops = [
            op(NfsProc.LOOKUP, 1.0, "d1", name="x", reply_fh="f9",
               post_size=0),
            op(NfsProc.WRITE, 2.0, "f9", 0, 8192, post_size=8192),
            op(NfsProc.REMOVE, 3.0, "d1", name="x"),
            op(NfsProc.CREATE, 50.0, "d1", name="x", reply_fh="f8",
               post_size=0),
            op(NfsProc.WRITE, 51.0, "f8", 0, 8192, post_size=8192),
        ]
        got = characterize(ops, 0.0, end, lifetime_phase_end=phase_end)
        assert shared == [True]
        assert got.death_delete_fraction == 1.0
        assert repr(got) == repr(_reference_characterize(
            ops, 0.0, end, lifetime_phase_end=phase_end))

    @settings(max_examples=200, deadline=None)
    @given(namespace_ops())
    def test_namespace_observe_matches_the_loop(self, ops):
        tuned, reference = HierarchyReconstructor(), _ReferenceHierarchy()
        for o in ops:
            if not _step_both(tuned, reference, o, _namespace_state):
                break

    @settings(max_examples=200, deadline=None)
    @given(namespace_ops(), st.data())
    def test_lifetime_observe_matches_the_loop(self, ops, data):
        phases = _phases_on_op_times(ops, data)
        tuned = BlockLifetimeAnalyzer(*phases)
        reference = _ReferenceLifetimes(*phases)
        for o in ops:
            if not _step_both(tuned, reference, o, _lifetime_state):
                break
        assert repr(tuned.report()) == repr(reference.report())

    def test_births_and_deaths_on_the_phase_bounds(self):
        # phase 1 is [10, 20): the block born at 10 counts and dies at
        # 25; the one born at 20 does not count, nor does its death
        ops = [
            op(NfsProc.LOOKUP, 0.0, "d1", name="a", reply_fh="f1",
               post_size=0),
            op(NfsProc.WRITE, 10.0, "f1", 0, 8192, post_size=8192),
            op(NfsProc.WRITE, 20.0, "f1", 8192, 8192, post_size=16384),
            op(NfsProc.WRITE, 25.0, "f1", 0, 16384, post_size=16384),
        ]
        tuned = BlockLifetimeAnalyzer(10.0, 20.0, 40.0)
        reference = _ReferenceLifetimes(10.0, 20.0, 40.0)
        for o in ops:
            _step_both(tuned, reference, o, _lifetime_state)
        report = tuned.report()
        assert (report.total_births, report.lifetimes) == (1, [15.0])
        assert repr(report) == repr(reference.report())

    @settings(max_examples=200, deadline=None)
    @given(namespace_ops())
    def test_name_observe_matches_the_loop(self, ops):
        tuned, reference = NameCategoryAnalyzer(), _ReferenceNames()
        for o in ops:
            _step_both(tuned, reference, o, _name_state)
        assert tuned.accessed_shares(ops) == reference.accessed_shares(ops)
        assert list(tuned.accessed_shares(ops)) == list(
            reference.accessed_shares(ops))
        for attribute in ("size", "lifetime", "pattern"):
            assert tuned.predict(attribute) == reference.predict(attribute)

    @settings(max_examples=200, deadline=None)
    @given(namespace_ops())
    def test_activity_observe_matches_the_loop(self, ops):
        tuned, reference = ActivityAnalyzer(), _ReferenceActivity()
        for o in ops:
            tuned.observe(o)
            reference.observe(o)
            assert repr(tuned._buckets) == repr(reference._buckets)

    @settings(max_examples=200, deadline=None)
    @given(namespace_ops(), st.sampled_from([1, 2, 100_000]), st.data())
    def test_stream_lifetimes_match_their_old_results(self, ops, max_files,
                                                      data):
        phases = _phases_on_op_times(ops, data)
        tuned = StreamLifetimes(*phases, max_files=max_files)
        reference = _ReferenceStreamLifetimes(*phases, max_files=max_files)
        for o in ops:
            if not _step_both(tuned, reference, o, _stream_lifetime_state):
                break
        got, want = tuned.result(), reference.result()
        assert got.histogram.counts == want.histogram.counts
        got.histogram = want.histogram = None
        assert repr(got) == repr(want)


# -- the stream pass: SpaceSaving, StreamSummary and the engine loop ---------


class _ReferenceSpaceSaving:
    """Space-saving over a lazy heap that takes a ``(count, item)``
    entry on every change, skips stale ones on pop and is compacted at
    4x the capacity."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._counts: dict = {}
        self._heap: list = []

    def add(self, item, weight=1) -> None:
        entry = self._counts.get(item)
        if entry is not None:
            entry[0] += weight
            heapq.heappush(self._heap, (entry[0], item))
        elif len(self._counts) < self.capacity:
            self._counts[item] = [weight, 0]
            heapq.heappush(self._heap, (weight, item))
        else:
            count, victim = self._pop_min()
            del self._counts[victim]
            self._counts[item] = [count + weight, count]
            heapq.heappush(self._heap, (count + weight, item))
        if len(self._heap) > 4 * self.capacity:
            self._heap = [(e[0], i) for i, e in self._counts.items()]
            heapq.heapify(self._heap)

    def _pop_min(self):
        while True:
            count, item = heapq.heappop(self._heap)
            entry = self._counts.get(item)
            if entry is not None and entry[0] == count:
                return count, item

    def top(self, k: int):
        ranked = sorted(
            self._counts.items(), key=lambda kv: kv[1][0], reverse=True
        )
        return [(item, entry[0], entry[1]) for item, entry in ranked[:k]]


_SKETCH_ITEMS = st.sampled_from(["a", "a", "a", "b", "b", "c", "d", "e",
                                 "f", "g", "h", "i", "j"])
_SKETCH_WEIGHTS = st.sampled_from([1, 1, 1, 1, 2, 3, 0, -1, -2, 0.5])


class TestSpaceSavingOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(min_value=1, max_value=8),
           st.lists(st.tuples(_SKETCH_ITEMS, _SKETCH_WEIGHTS), max_size=120),
           st.booleans())
    def test_matches_the_lazy_heap_after_every_add(self, capacity, adds,
                                                  unit):
        sketch = SpaceSaving(capacity)
        reference = _ReferenceSpaceSaving(capacity)
        decreases = 0
        for item, weight in adds:
            if unit:
                weight = 1
            # a decrease of a tracked item is what pushes a second entry
            decreases += weight < 0 and item in sketch
            sketch.add(item, weight)
            reference.add(item, weight)
            assert len(sketch) == len(reference._counts)
            for other in "abcdefghij":
                assert (other in sketch) == (other in reference._counts)
                assert sketch.count(other) == (
                    reference._counts[other][0]
                    if other in reference._counts else 0)
            for k in range(capacity + 2):
                assert sketch.top(k) == reference.top(k)
            # one entry per tracked item, plus one per decrease
            assert len(sketch._heap) <= 4 * capacity
            assert len(sketch._heap) <= len(sketch) + decreases
            if not decreases:
                assert len(sketch._heap) == len(sketch)

    def test_decreases_keep_the_heap_compact(self):
        sketch, reference = SpaceSaving(2), _ReferenceSpaceSaving(2)
        for i in range(40):
            sketch.add("ab"[i % 2], -1)
            reference.add("ab"[i % 2], -1)
            assert len(sketch._heap) <= 8
        sketch.add("c")
        reference.add("c")
        assert sketch.top(2) == reference.top(2)

    def test_an_eviction_refreshes_a_stale_top(self):
        sketch = SpaceSaving(2)
        for item in ("a", "b", "a", "a"):  # the heap still says (1, "a")
            sketch.add(item)
        sketch.add("c")  # evicts b (1), not a (3)
        assert sketch.top(2) == [("a", 3, 0), ("c", 2, 1)]
        assert len(sketch._heap) == 2


class _ReferenceStreamSummary(StreamAnalysis):
    """``StreamSummary`` folding every op twice: into the running
    totals and into its day's row."""

    def __init__(self, *, start=None, end=None, day_width=SECONDS_PER_DAY,
                 lateness=60.0) -> None:
        self.start = start
        self.end = end
        self.totals = TraceSummary(start=start or 0.0, end=end or 0.0)
        self.daily = []
        self._min = math.inf
        self._max = -math.inf
        self._days = TumblingWindow(
            day_width, lambda s, e: TraceSummary(start=s, end=e),
            sink=lambda s, e, acc: self.daily.append((s, e, acc)),
            lateness=lateness,
        )

    def process_op(self, o) -> None:
        time = o.time
        if self.start is not None and time < self.start:
            return
        if self.end is not None and time >= self.end:
            return
        self._min = min(self._min, time)
        self._max = max(self._max, time)
        self.totals.add(o)
        self._days.add(time, o)

    def advance(self, watermark: float) -> None:
        self._days.advance(watermark)

    def finish(self) -> None:
        self._days.finish()
        if self.totals.total_ops:
            self.totals.start = self.start if self.start is not None else self._min
            self.totals.end = self.end if self.end is not None else self._max + 1e-6
        elif self.start is not None and self.end is not None:
            self.totals.start, self.totals.end = self.start, self.end


_SUMMARY_PROCS = st.sampled_from([
    NfsProc.READ, NfsProc.READ, NfsProc.WRITE, NfsProc.WRITE,
    NfsProc.LOOKUP, NfsProc.GETATTR, NfsProc.ACCESS, NfsProc.CREATE,
    NfsProc.COMMIT, NfsProc.REMOVE,
])


@st.composite
def summary_streams(draw):
    """Ops whose times wander backwards past flushed days, with a
    watermark advance drawn after each."""
    rows = draw(st.lists(st.tuples(
        st.floats(min_value=-3.0, max_value=4.0), _SUMMARY_PROCS,
        st.sampled_from([NfsStatus.OK] * 4 + [NfsStatus.NOENT]),
        st.sampled_from([None, 0, 100, 8192]), st.booleans(),
    ), max_size=60))
    ops, advances, t = [], [], 10.0
    for gap, proc, status, count, advance in rows:
        t = max(0.0, t + gap)
        ops.append(op(proc, t, "f1", 0, count, status=status))
        advances.append(advance)
    return ops, advances


def _summary_window(ops, start, end):
    """The window ``StreamSummary`` learns: the bounds given, else the
    kept ops' first time and just past their last."""
    kept = [o.time for o in ops if (start is None or o.time >= start)
            and (end is None or o.time < end)]
    if not kept:
        return None
    return (start if start is not None else min(kept),
            end if end is not None else max(kept) + 1e-6)


class TestStreamSummaryOracle:
    @settings(max_examples=300, deadline=None)
    @given(summary_streams(), st.sampled_from([1.0, 2.5, SECONDS_PER_DAY]),
           st.sampled_from([0.0, 0.5, 60.0]),
           st.sampled_from([(None, None), (None, None), (12.0, None),
                            (None, 20.0), (11.0, 19.0)]))
    def test_totals_equal_the_twice_folded_reference(self, stream, width,
                                                     lateness, window):
        ops, advances = stream
        start, end = window
        summary = StreamSummary(start=start, end=end, day_width=width,
                                lateness=lateness)
        reference = _ReferenceStreamSummary(start=start, end=end,
                                            day_width=width, lateness=lateness)
        watermark = 0.0
        for o, advance in zip(ops, advances):
            summary.process_op(o)
            reference.process_op(o)
            watermark = max(watermark, o.time)
            if advance:
                summary.advance(watermark)
                reference.advance(watermark)
            # read mid-stream, as the live snapshots do
            assert summary.totals == reference.totals
            assert summary.daily == reference.daily
        summary.finish()
        reference.finish()
        assert summary.result() == reference.totals
        assert summary.daily == reference.daily
        bounds = _summary_window(ops, start, end)
        if bounds is not None:
            assert summary.result() == summarize_trace(ops, *bounds)

    def test_an_op_behind_a_flushed_day_counts_in_the_totals(self):
        summary = StreamSummary(day_width=1.0, lateness=0.0)
        for t, proc in ((0.5, NfsProc.READ), (1.5, NfsProc.WRITE),
                        (2.5, NfsProc.READ)):
            summary.process_op(op(proc, t, "f1", 0, 100))
        summary.advance(2.5)  # days 0 and 1 flush
        late = op(NfsProc.WRITE, 0.7, "f1", 0, 8192)
        summary.process_op(late)  # behind day 0: no row takes it
        assert summary._days.late_drops == 1
        assert sum(row.total_ops for _, _, row in summary.daily) == 2
        totals = summary.totals
        assert (totals.total_ops, totals.read_ops, totals.write_ops,
                totals.bytes_written) == (4, 2, 2, 8292)
        summary.finish()
        ops = [op(NfsProc.READ, 0.5, "f1", 0, 100),
               op(NfsProc.WRITE, 1.5, "f1", 0, 100),
               op(NfsProc.READ, 2.5, "f1", 0, 100), late]
        assert summary.result() == summarize_trace(ops, 0.5, 2.5 + 1e-6)

    def test_every_summary_field_is_a_count(self):
        # the totals are a field-wise sum of the day rows: exact only
        # while every field but the window is an integer count
        o = op(NfsProc.READ, 1.0, "f1", 0, 100)
        summary = summarize_trace([o], 0.0, 2.0)
        for f in dataclass_fields(summary):
            value = getattr(summary, f.name)
            assert f.name in ("start", "end") or isinstance(
                value, (int, Counter)), f.name


class _Probe(StreamAnalysis):
    """Logs every advance with the retained-state figure it reports."""

    name = "probe"

    def __init__(self, grow_every: int) -> None:
        self.grow_every = grow_every
        self.seen = 0
        self.advances: list[float] = []

    def process_record(self, record) -> None:
        self.seen += 1

    def advance(self, watermark: float) -> None:
        self.advances.append(watermark)

    def memory_items(self) -> int:
        return self.seen // self.grow_every

    def result(self):
        return (self.seen, self.advances)


def _engine_outcome(records, drive, advance_every, max_items, grow_every):
    """What an engine driven by ``drive`` ends with: its results (or
    the budget error), counters and per-analysis state."""
    engine = StreamEngine(advance_every=advance_every, max_items=max_items)
    engine.register(StreamSummary(day_width=1.0, lateness=0.0))
    engine.register(StreamStats())
    engine.register(StreamTopFiles(capacity=2))
    engine.register(_Probe(grow_every))
    try:
        results = drive(engine, records)
    except StreamMemoryError as exc:
        results = ("StreamMemoryError", str(exc))
    else:
        stats = results.pop("stats")
        results["stats"] = (stats.records, stats.first, stats.last,
                            stats.calls, stats.replies, stats.paired,
                            stats.errors, stats.clients)
    return (repr(results), engine.records, engine.ops, engine.watermark,
            engine.peak_items, len(engine.pairer))


def _run(engine, records):
    return engine.run(iter(records))


def _feed(engine, records):
    for record in records:
        engine.feed(record)
    return engine.finish()


def _reference_feed(engine, records):
    """The per-record ``feed`` body that ``run`` used to call, on the
    engine's attributes."""
    for record in records:
        engine.records += 1
        if record.time > engine.watermark:
            engine.watermark = record.time
        for handler in engine._record_handlers:
            handler(record)
        paired = engine.pairer.push(record)
        if paired is not None:
            engine.ops += 1
            for handler in engine._op_handlers:
                handler(paired)
        if engine.records % engine.advance_every == 0:
            engine._advance()
    return engine.finish()


class TestStreamEngineOracle:
    @settings(max_examples=300, deadline=None)
    @given(record_streams(ordered=False), st.integers(1, 5),
           st.sampled_from([None, None, 0, 1, 2, 4]), st.integers(1, 6))
    def test_run_equals_feeding_each_record(self, records, advance_every,
                                            max_items, grow_every):
        knobs = (advance_every, max_items, grow_every)
        expected = _engine_outcome(records, _reference_feed, *knobs)
        assert _engine_outcome(records, _run, *knobs) == expected
        assert _engine_outcome(records, _feed, *knobs) == expected

    def test_the_budget_stops_both_at_the_same_record(self):
        records = make_stream(40, orphan_replies=0, unanswered_calls=0)
        outcomes = [_engine_outcome(records, drive, 3, 5, 2)
                    for drive in (_run, _feed, _reference_feed)]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        error, consumed = outcomes[0][0], outcomes[0][1]
        assert "StreamMemoryError" in error
        # mid-stream, at the advance that first saw the budget exceeded
        assert 0 < consumed < len(records)
        assert consumed % 3 == 0


class _ReferenceRuns(StreamRuns):
    def process_op(self, o) -> None:
        if not (o.is_read() or o.is_write()):
            return
        if self.start is not None and o.time < self.start:
            return
        if self.end is not None and o.time >= self.end:
            return
        self._reorderer.push(o)


class _ReferenceTopFiles(StreamTopFiles):
    def process_op(self, o) -> None:
        fh = o.reply_fh or o.fh
        if fh is None:
            return
        self.by_ops.add(fh)
        if (o.is_read() or o.is_write()) and o.ok() and o.count:
            self.by_bytes.add(fh, o.count)


class _ReferenceLatency(StreamLatency):
    def process_op(self, o) -> None:
        latency = o.reply_time - o.time
        if latency < 0:
            return
        self.stats.add(latency)
        self._median.add(latency)
        self._tail.add(latency)


def _latency_state(a):
    s = a.stats
    return repr((s.count, s.total, s.minimum, s.maximum, s._mean, s._m2,
                 a._median._q, a._tail._q))


class TestStreamFoldsOracle:
    """The folds that classify by ``proc``/``status`` identity and the
    inline Welford update, against ``is_read``/``is_write``/``ok`` and
    ``RunningStats.add``."""

    @settings(max_examples=200, deadline=None)
    @given(namespace_ops(), st.lists(st.sampled_from(
        [0.0, 0.0005, 0.001, 0.3, 2.0, -0.001]), min_size=40, max_size=40),
        st.sampled_from([(None, None), (86000.5, None), (None, 86001.0)]))
    def test_folds_match_their_method_calls(self, ops, latencies, window):
        ops = [replace(o, reply_time=o.time + latency)
               for o, latency in zip(ops, latencies)]
        pairs = [
            (StreamRuns(start=window[0], end=window[1]),
             _ReferenceRuns(start=window[0], end=window[1])),
            (StreamTopFiles(capacity=2, k=4), _ReferenceTopFiles(capacity=2, k=4)),
            (StreamLatency(), _ReferenceLatency()),
        ]
        for o in ops:
            for tuned, reference in pairs:
                tuned.process_op(o)
                reference.process_op(o)
            assert _latency_state(pairs[2][0]) == _latency_state(pairs[2][1])
        for tuned, reference in pairs:
            tuned.finish()
            reference.finish()
            assert repr(tuned.result()) == repr(reference.result())
