"""The ``--shards`` frame merge (``repro.trace.binfmt.merge_frames``).

The oracle is the merge it replaced: decode every group payload,
``heapq.merge`` the records by ``record_key`` and encode the result.
The frame merge must write the same **bytes** — comparing decoded
records would miss a string defined twice, or defined in another
order, since both decode to the same records.
"""

from __future__ import annotations

import heapq
import io
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.errors import TraceFormatError
from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc
from repro.trace import binfmt
from repro.trace.binfmt import (
    FORMAT_VERSION,
    MAGIC,
    BinaryTraceDecoder,
    BinaryTraceEncoder,
    merge_frames,
)
from repro.trace.collector import record_key
from repro.trace.record import _FIELD_CODECS, Direction, TraceRecord


def _encode(records) -> bytes:
    buffer = io.BytesIO()
    encoder = BinaryTraceEncoder(buffer, buffered=True)
    encoder.encode_block(records)
    encoder.flush()
    return buffer.getvalue()


def _decode(payload: bytes) -> list[TraceRecord]:
    return list(BinaryTraceDecoder(io.BytesIO(payload)))


def _oracle(payloads) -> bytes:
    """The record-level merge: decode, ``heapq.merge``, encode."""
    streams = [iter(BinaryTraceDecoder(io.BytesIO(p))) for p in payloads]
    return _encode(heapq.merge(*streams, key=record_key))


def _merge(payloads) -> bytes:
    return b"".join(merge_frames(payloads))


def _files(payloads) -> list:
    """Each payload in an open (already unlinked) file, as a sharded
    run hands them to the merge."""
    files = []
    for payload in payloads:
        fileobj = tempfile.TemporaryFile()
        fileobj.write(payload)
        fileobj.flush()
        files.append(fileobj)
    return files


def _merge_files(payloads, window: int, monkeypatch) -> bytes:
    """The merge reading ``payloads`` from files through ``window``-byte
    windows."""
    monkeypatch.setattr(binfmt, "_WINDOW_BYTES", window)
    files = _files(payloads)
    try:
        return _merge(files)
    finally:
        for fileobj in files:
            fileobj.close()


# -- random group payloads -----------------------------------------------------

#: one small pool for every string field, so strings recur across
#: groups and fields: a fleet's groups share servers, file types and
#: names, and a string first used as a name in one group may be a
#: client in another
_POOL = st.sampled_from(("a", "b", "srv", "REG", "DIR", "ü", "名", "10.0.0.1"))
_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

_OPTIONAL = {
    name: {
        binfmt._INT: _INT64,
        binfmt._STR: _POOL,
        binfmt._BOOL: st.booleans(),
        binfmt._FLOAT: st.floats(allow_nan=False, width=64),
    }[kind]
    for _bit, name, kind in binfmt._OPT_FIELDS
}
assert list(_OPTIONAL) == list(_FIELD_CODECS)


@st.composite
def records(draw):
    """A record over a random presence bitmap, with few distinct keys
    so exact-key ties happen within and across groups."""
    present = draw(st.fixed_dictionaries({}, optional=_OPTIONAL))
    return TraceRecord(
        draw(st.sampled_from((0.0, 0.5, 1.0, 2.5))),
        draw(st.sampled_from((Direction.CALL, Direction.REPLY))),
        draw(st.integers(min_value=0, max_value=3)),
        draw(_POOL),
        draw(_POOL),
        draw(st.sampled_from(list(NfsProc))),
        draw(st.integers(min_value=0, max_value=255)),
        draw(st.none() | st.sampled_from(list(NfsStatus))),
        **present,
    )


@st.composite
def group_payloads(draw):
    """Up to five group payloads, any of them empty.

    A group's stream is in ``record_key`` order, as a group world's
    collector releases it, with exact-key duplicates kept in stream
    order; sometimes it is left unsorted, where the frame merge must
    still follow ``heapq.merge`` step for step.
    """
    ordered = draw(st.booleans())
    payloads = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        group = draw(st.lists(records(), max_size=10))
        if group and draw(st.booleans()):
            # an exact-key duplicate: same key, other fields redrawn
            twin = draw(records())
            original = draw(st.sampled_from(group))
            twin.time, twin.client, twin.xid = record_key(original)
            group.append(twin)
        if ordered:
            group.sort(key=record_key)
        payloads.append(_encode(group))
    return payloads


def _record(time, client, xid, **fields):
    return TraceRecord(time, Direction.CALL, xid, client, "srv",
                       NfsProc.GETATTR, 3, None, **fields)


# one string shared by two groups, first used as a name in one and as
# the client in the other; in each group the client is also a new
# string, so the interning order inside a record shows too
_SHARED_FIRST_USES = [
    _encode([_record(1.0, "c0", 1, fh="f0", name="shared")]),
    _encode([_record(1.0, "shared", 1, fh="f1"),
             _record(2.0, "c1", 1, name="shared")]),
]

# an exact key in two groups, the records otherwise different: the
# tie goes to the lower group index
_CROSS_GROUP_TIE = [
    _encode([_record(1.0, "c", 7, fh="from-group-0")]),
    _encode([_record(1.0, "c", 7, fh="from-group-1")]),
]


class TestFrameMergeOracle:
    @settings(max_examples=300, deadline=None)
    @given(group_payloads())
    @example(_SHARED_FIRST_USES)
    @example(_CROSS_GROUP_TIE)
    @example([_encode([]), _encode([_record(0.0, "c", 1)]), _encode([])])
    def test_bytes_equal_the_record_merge(self, payloads):
        out = _merge(payloads)
        assert out == _oracle(payloads)
        assert _encode(_decode(out)) == out

    def test_shared_string_is_defined_once(self):
        out = _merge(_SHARED_FIRST_USES)
        assert out == _oracle(_SHARED_FIRST_USES)
        assert out.count(b"shared") == 1

    def test_exact_key_tie_goes_to_the_lower_group(self):
        records = _decode(_merge(_CROSS_GROUP_TIE))
        assert [r.fh for r in records] == ["from-group-0", "from-group-1"]
        records = _decode(_merge(_CROSS_GROUP_TIE[::-1]))
        assert [r.fh for r in records] == ["from-group-1", "from-group-0"]

    def test_no_groups_and_empty_groups(self):
        header = MAGIC + struct.pack("<H", FORMAT_VERSION)
        assert _merge([]) == header
        assert _merge([_encode([]), _encode([])]) == header

    def test_many_bitmaps(self, monkeypatch):
        bitmaps = list(range(0, 1 << 16, 97))
        groups = [[], [], []]
        for i, bitmap in enumerate(bitmaps):
            values = {
                name: {binfmt._INT: -i, binfmt._STR: f"s{i % 11}",
                       binfmt._BOOL: i % 2 == 0,
                       binfmt._FLOAT: i + 0.5}[kind]
                for bit, name, kind in binfmt._OPT_FIELDS if bitmap & bit
            }
            groups[i % 3].append(TraceRecord(
                float(i // 3), Direction.REPLY, i, f"c{i % 3}", "s",
                NfsProc.READ, 3, NfsStatus.OK, **values,
            ))
        payloads = [_encode(group) for group in groups]
        assert len(bitmaps) > binfmt._MAX_BUILDERS
        monkeypatch.setattr(binfmt, "_TRANSCODERS", {})
        assert _merge(payloads) == _oracle(payloads)
        # the process keeps the first bitmaps' transcoders, no more
        assert len(binfmt._TRANSCODERS) == binfmt._MAX_BUILDERS
        assert _merge(payloads) == _oracle(payloads)

    def test_yields_blocks_as_it_goes(self):
        """The merge hands out its output in blocks, not once at the end."""
        group = [_record(float(i), "c", i, fh=f"f{i % 50}", count=i)
                 for i in range(20_000)]
        payloads = [_encode(group[0::2]), _encode(group[1::2])]
        blocks = list(merge_frames(payloads))
        assert b"".join(blocks) == _oracle(payloads)
        assert len(blocks) > 2
        assert all(binfmt._FLUSH_BYTES <= len(block) < 2 * binfmt._FLUSH_BYTES
                   for block in blocks[:-1])


# -- file payloads read through windows ----------------------------------------

#: a string frame thousands of bytes long, past any small window
_LONG_NAME = [_encode([_record(1.0, "c", 1, name="n" * 5000, fh="f"),
                       _record(2.0, "c", 2, fh="f")]),
              _encode([_record(1.5, "d", 1, fh="f")])]


class TestWindowedMerge:
    """Files are read through one reused window per stream; the bytes
    must not depend on the window, down to one byte, with frames that
    straddle a window's end or are longer than the window."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(group_payloads(), st.integers(min_value=1, max_value=200))
    @example(_SHARED_FIRST_USES, 1)
    @example(_LONG_NAME, 64)
    @example([_encode([]), _encode([_record(0.0, "c", 1)])], 1)
    def test_files_merge_like_bytes(self, monkeypatch, payloads, window):
        assert _merge_files(payloads, window, monkeypatch) == _merge(payloads)

    def test_default_window_on_many_blocks(self, monkeypatch):
        group = [_record(float(i), "c", i, fh=f"f{i % 50}", count=i)
                 for i in range(20_000)]
        payloads = [_encode(group[0::2]), _encode(group[1::2])]
        assert len(payloads[0]) > 4 * binfmt._WINDOW_BYTES
        assert _merge_files(payloads, binfmt._WINDOW_BYTES, monkeypatch) \
            == _oracle(payloads)

    def test_a_long_frame_grows_the_window(self, monkeypatch):
        assert _merge_files(_LONG_NAME, 64, monkeypatch) == _oracle(_LONG_NAME)


# -- corrupt payloads ----------------------------------------------------------

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


_FH_BIT = 1 << list(_FIELD_CODECS).index("fh")
_GOOD = _string_frame("c") + _string_frame("srv") + _record_frame()


class TestCorruptPayloads:
    CASES = {
        "truncated frame": _HEADER + _GOOD + _record_frame()[:-4],
        "truncated frame header": _HEADER + _GOOD + b"\x52\x01",
        "unknown tag": _HEADER + _GOOD + b"\x51\x00\x00\x00\x00",
        "client id past the table": _HEADER + _GOOD + _record_frame(client=9),
        "server id past the table": _HEADER + _GOOD + _record_frame(server=9),
        "field string id past the table": _HEADER + _GOOD + _record_frame(
            bitmap=_FH_BIT, body=struct.pack("<I", 5)),
        "short record frame": _HEADER + _GOOD + _record_frame(
            bitmap=_FH_BIT, body=b"\x00"),
        "bad direction": _HEADER + _GOOD + _record_frame(direction=2),
        "proc index out of range": _HEADER + _GOOD + _record_frame(proc=200),
        "status index out of range": _HEADER + _GOOD + _record_frame(
            status=250),
        "bad string": _HEADER + _GOOD + b"\x53\x01\x00\x00\x00\xff",
        "bad header": b"RTBX\x01\x00" + _GOOD,
    }

    GOOD = _encode([_record(0.0, "a", 1), _record(9.0, "a", 2)])

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("position", [0, 1])
    def test_raises_trace_format_error(self, case, position):
        payloads = [self.GOOD]
        payloads.insert(position, self.CASES[case])
        with pytest.raises(TraceFormatError):
            list(merge_frames(payloads))
        # the record-level merge rejects the same payload
        with pytest.raises(TraceFormatError):
            _oracle(payloads)

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("window", [1, 5, 11, 1 << 15])
    def test_files_raise_the_same_error(self, case, window, monkeypatch):
        payloads = [self.GOOD, self.CASES[case]]
        with pytest.raises(TraceFormatError) as caught:
            _merge(payloads)
        with pytest.raises(TraceFormatError) as windowed:
            _merge_files(payloads, window, monkeypatch)
        assert str(windowed.value) == str(caught.value)

    @pytest.mark.parametrize("cut", [1, 4, 6, 9, 30])
    @pytest.mark.parametrize("window", [1, 7, 1 << 15])
    def test_truncated_files_raise_the_same_error(self, cut, window,
                                                  monkeypatch):
        whole = _encode([_record(0.0, "a", 1, fh="f"), _record(9.0, "a", 2)])
        payloads = [whole[:-cut]]
        with pytest.raises(TraceFormatError) as caught:
            _merge(payloads)
        with pytest.raises(TraceFormatError) as windowed:
            _merge_files(payloads, window, monkeypatch)
        assert str(windowed.value) == str(caught.value)


def test_nothing_compiles_at_import():
    """Encoders, transcoders and builders compile on first use, so
    importing the CLI costs no compile time."""
    code = (
        "import repro.cli.main\n"
        "from repro.analysis import opsegment\n"
        "from repro.trace import binfmt\n"
        "assert not binfmt._TRANSCODERS, binfmt._TRANSCODERS\n"
        "assert not binfmt._BUILDERS, binfmt._BUILDERS\n"
        "assert not opsegment._BUILDERS, opsegment._BUILDERS\n"
        "for encoder in (binfmt._compile_block_encoder,\n"
        "                opsegment._compile_op_encoder):\n"
        "    assert not encoder.cache_info().currsize, encoder\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
