"""Tests for the binary trace container (``.rtb``/``.rtb.gz``)."""

import gzip
import io
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.nfs import NfsProc, NfsStatus
from repro.obs import MetricsRegistry
from repro.trace import (
    BinaryTraceDecoder,
    BinaryTraceEncoder,
    TraceReader,
    TraceWriter,
    is_binary_trace_path,
    read_binary_trace,
    read_trace,
    write_trace,
)
from repro.trace.binfmt import FORMAT_VERSION, MAGIC
from repro.trace.record import (
    Direction,
    TraceRecord,
    record_from_line,
    record_to_line,
)


def rec(i=0, direction=Direction.CALL, **kw):
    """A distinct, fully-timestamped record for round-trip tests."""
    fields = dict(
        time=100.0 + i * 0.25,
        direction=direction,
        xid=0x1000 + i,
        client="10.0.0.1",
        server="10.0.0.100",
        proc=NfsProc.READ,
        version=3,
    )
    if direction == Direction.REPLY:
        fields["status"] = NfsStatus.OK
    fields.update(kw)
    return TraceRecord(**fields)


def sample_records():
    return [
        rec(0, uid=100, gid=200, fh="a1b2", offset=0, count=8192),
        rec(1, Direction.REPLY, count=8192, eof=False, fh="a1b2",
            attr_ftype="REG", attr_size=65536, attr_mtime=99.5,
            attr_fileid=42, attr_uid=100, attr_gid=200),
        rec(2, proc=NfsProc.LOOKUP, fh="00ff", name="mbox.lock"),
        rec(3, Direction.REPLY, proc=NfsProc.LOOKUP,
            status=NfsStatus.NOENT),
        rec(4, proc=NfsProc.RENAME, fh="01", name="a",
            target_fh="02", target_name="b"),
        rec(5, Direction.REPLY, proc=NfsProc.WRITE, count=4096,
            attr_size=4096, attr_mtime=101.25),
    ]


class TestSuffixDispatch:
    def test_suffix_detection(self):
        assert is_binary_trace_path("x.rtb")
        assert is_binary_trace_path("x.rtb.gz")
        assert is_binary_trace_path("/a/b/week.rtb")
        assert not is_binary_trace_path("x.trace")
        assert not is_binary_trace_path("x.trace.gz")
        assert not is_binary_trace_path("x.rtb.txt")

    def test_writer_reader_pick_codec(self, tmp_path):
        assert TraceWriter(tmp_path / "t.rtb").binary
        assert not TraceWriter(tmp_path / "t.trace").binary
        assert TraceReader(tmp_path / "t.rtb").binary
        assert not TraceReader(tmp_path / "t.trace").binary


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["week.rtb", "week.rtb.gz"])
    def test_exact_roundtrip(self, tmp_path, name):
        path = tmp_path / name
        records = sample_records()
        assert write_trace(path, records) == len(records)
        assert read_trace(path) == records

    def test_module_level_helpers(self, tmp_path):
        path = tmp_path / "t.rtb"
        records = sample_records()
        assert write_trace(path, records) == len(records)
        assert read_binary_trace(path) == records

    def test_gzip_output_is_gzip(self, tmp_path):
        path = tmp_path / "t.rtb.gz"
        write_trace(path, sample_records())
        with gzip.open(path, "rb") as f:
            assert f.read(4) == MAGIC

    @pytest.mark.parametrize("name", ["t.rtb.gz", "t.trace.gz"])
    def test_gzip_header_is_pinned(self, tmp_path, name):
        path = tmp_path / name
        write_trace(path, sample_records())
        # magic, deflate, no flags (so no FNAME), mtime 0, XFL 0 (level
        # 9 would write 2), OS 255
        assert path.read_bytes()[:10] == bytes.fromhex("1f8b08000000000000ff")

    def test_gzip_body_is_level_6_deflate(self, tmp_path):
        # the text container is not pinned here: its TextIOWrapper
        # flushes the GzipFile at close, adding a Z_SYNC_FLUSH marker
        path = tmp_path / "t.rtb.gz"
        # one copy of the sample deflates to the same bytes at levels 6
        # and 9; repeats give the level-9 match search something to find
        write_trace(path, sample_records() * 50)
        data = path.read_bytes()
        deflate = zlib.compressobj(
            6, zlib.DEFLATED, -zlib.MAX_WBITS, zlib.DEF_MEM_LEVEL, 0
        )
        raw = gzip.decompress(data)
        assert data[10:-8] == deflate.compress(raw) + deflate.flush()

    def test_lines_match_text_format(self, tmp_path):
        records = sample_records()
        write_trace(tmp_path / "t.trace", records)
        write_trace(tmp_path / "t.rtb", records)
        text = [record_to_line(r) for r in read_trace(tmp_path / "t.trace")]
        binary = [record_to_line(r) for r in read_trace(tmp_path / "t.rtb")]
        assert text == binary

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "t.rtb"
        assert write_trace(path, []) == 0
        assert read_trace(path) == []

    def test_string_table_interned_once(self, tmp_path):
        # many records sharing tokens: the file should stay much
        # smaller than naive per-record string storage
        path = tmp_path / "t.rtb"
        records = [
            rec(i, fh="ab" * 16, name="very-long-shared-name.txt")
            for i in range(100)
        ]
        write_trace(path, records)
        raw = path.read_bytes()
        assert raw.count(b"very-long-shared-name.txt") == 1

    def test_smaller_than_text(self, tmp_path):
        records = sample_records() * 50
        write_trace(tmp_path / "t.trace", records)
        write_trace(tmp_path / "t.rtb", records)
        text_size = (tmp_path / "t.trace").stat().st_size
        binary_size = (tmp_path / "t.rtb").stat().st_size
        assert binary_size < text_size


class TestWriteTraceCount:
    """write_trace reports its count from the public writer API."""

    @pytest.mark.parametrize("name", ["t.trace", "t.trace.gz", "t.rtb"])
    def test_count_matches(self, tmp_path, name):
        records = sample_records()
        assert write_trace(tmp_path / name, records) == len(records)

    def test_records_written_survives_close(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.rtb")
        for record in sample_records():
            writer.write(record)
        writer.close()
        assert writer.records_written == len(sample_records())


class TestReaderIterationSafety:
    @pytest.mark.parametrize("name", ["t.trace", "t.rtb"])
    def test_second_pass_while_active_raises(self, tmp_path, name):
        path = tmp_path / name
        write_trace(path, sample_records())
        reader = TraceReader(path)
        first = iter(reader)
        next(first)  # opens the file
        second = iter(reader)
        with pytest.raises(RuntimeError, match="pass is already in progress"):
            next(second)
        reader.close()

    @pytest.mark.parametrize("name", ["t.trace", "t.rtb"])
    def test_reiteration_after_exhaustion(self, tmp_path, name):
        path = tmp_path / name
        write_trace(path, sample_records())
        reader = TraceReader(path)
        assert list(reader) == list(reader)


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.rtb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(TraceFormatError, match="magic"):
            read_trace(path)

    def test_future_version(self, tmp_path):
        path = tmp_path / "t.rtb"
        path.write_bytes(MAGIC + struct.pack("<H", FORMAT_VERSION + 1))
        with pytest.raises(TraceFormatError, match="v2"):
            read_trace(path)

    def test_truncated_frame_header(self, tmp_path):
        path = tmp_path / "t.rtb"
        write_trace(path, sample_records())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - len(raw) % 7 - 3])
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace(path)

    def test_truncated_frame_payload(self, tmp_path):
        path = tmp_path / "t.rtb"
        write_trace(path, sample_records())
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace(path)

    def test_unknown_frame_tag(self, tmp_path):
        path = tmp_path / "t.rtb"
        payload = MAGIC + struct.pack("<H", FORMAT_VERSION)
        payload += struct.pack("<BI", 0x7F, 0)
        path.write_bytes(payload)
        with pytest.raises(TraceFormatError, match="unknown frame tag"):
            read_trace(path)

    def test_short_record_frame(self, tmp_path):
        path = tmp_path / "t.rtb"
        payload = MAGIC + struct.pack("<H", FORMAT_VERSION)
        payload += struct.pack("<BI", 0x52, 4) + b"\x00" * 4
        path.write_bytes(payload)
        with pytest.raises(TraceFormatError, match="short record frame"):
            read_trace(path)

    def test_dangling_string_reference(self, tmp_path):
        # a record frame referencing string ids that were never defined
        path = tmp_path / "t.rtb"
        head = struct.pack("<dBQIIBBBH", 1.0, 0, 1, 5, 6, 0, 3, 0, 0)
        payload = MAGIC + struct.pack("<H", FORMAT_VERSION)
        payload += struct.pack("<BI", 0x52, len(head)) + head
        path.write_bytes(payload)
        with pytest.raises(TraceFormatError, match="corrupt record frame"):
            read_trace(path)

    def test_bad_direction_rejected_on_encode(self):
        encoder = BinaryTraceEncoder(io.BytesIO())
        with pytest.raises(TraceFormatError):
            encoder.encode(rec(0, direction="X"))


class TestMetrics:
    def test_encode_decode_counters(self, tmp_path):
        path = tmp_path / "t.rtb"
        records = sample_records()
        metrics = MetricsRegistry()
        with TraceWriter(path, metrics=metrics) as writer:
            for record in records:
                writer.write(record)
        encoded = metrics.get("trace.encode_records", format="binary")
        assert encoded.value == len(records)
        assert metrics.get("trace.encode_bytes", format="binary").value > 0

        list(TraceReader(path, metrics=metrics))
        decoded = metrics.get("trace.decode_records", format="binary")
        assert decoded.value == len(records)
        assert metrics.get("trace.decode_bytes", format="binary").value > 0


# -- property-based text <-> binary <-> text round trips ------------------------

_TOKEN = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=12
)
# the text format prints times with 6 decimals, so exercise exactly the
# floats that survive that rounding
_TIME = st.integers(min_value=0, max_value=10**12).map(lambda n: n / 1e6)
_U32 = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def trace_records(draw):
    is_call = draw(st.booleans())
    record = TraceRecord(
        time=draw(_TIME),
        direction=Direction.CALL if is_call else Direction.REPLY,
        xid=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        client=draw(_TOKEN),
        server=draw(_TOKEN),
        proc=draw(st.sampled_from(list(NfsProc))),
        version=draw(st.sampled_from([2, 3])),
        status=None if is_call else draw(st.sampled_from(list(NfsStatus))),
    )
    optional = {
        "uid": _U32,
        "gid": _U32,
        "fh": _TOKEN,
        "name": _TOKEN,
        "target_fh": _TOKEN,
        "target_name": _TOKEN,
        "offset": st.integers(min_value=0, max_value=2**53),
        "count": _U32,
        "size": st.integers(min_value=0, max_value=2**53),
        "eof": st.booleans(),
        "attr_ftype": _TOKEN,
        "attr_size": st.integers(min_value=0, max_value=2**53),
        "attr_mtime": _TIME,
        "attr_fileid": st.integers(min_value=0, max_value=2**53),
        "attr_uid": _U32,
        "attr_gid": _U32,
    }
    for field_name, strategy in optional.items():
        if draw(st.booleans()):
            setattr(record, field_name, draw(strategy))
    return record


@given(st.lists(trace_records(), max_size=20))
@settings(max_examples=60, deadline=None)
def test_text_binary_text_round_trip(records):
    """binary(text(r)) == text(r), record-for-record and line-for-line."""
    # normalize through the text codec first: it is lossy in two known
    # ways (6-decimal floats; a reply's None status prints as OK)
    normalized = [record_from_line(record_to_line(r)) for r in records]
    buf = io.BytesIO()
    encoder = BinaryTraceEncoder(buf)
    for record in normalized:
        encoder.encode(record)
    assert encoder.records_written == len(normalized)
    buf.seek(0)
    decoded = list(BinaryTraceDecoder(buf))
    assert decoded == normalized
    assert [record_to_line(r) for r in decoded] == [
        record_to_line(r) for r in normalized
    ]


@given(st.lists(trace_records(), max_size=12))
@settings(max_examples=25, deadline=None)
def test_binary_encoding_is_deterministic(records):
    buffers = []
    for _ in range(2):
        buf = io.BytesIO()
        encoder = BinaryTraceEncoder(buf)
        for record in records:
            encoder.encode(record)
        buffers.append(buf.getvalue())
    assert buffers[0] == buffers[1]
