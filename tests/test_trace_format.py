"""Tests for the trace record format, reader, and writer."""

import gzip

import pytest

from repro.errors import TraceFormatError
from repro.nfs import (
    FileAttributes,
    FileHandle,
    FileType,
    NfsCall,
    NfsProc,
    NfsReply,
    NfsStatus,
)
from repro.trace import TraceReader, TraceWriter, read_trace, write_trace
from repro.trace.record import (
    TraceRecord,
    record_from_line,
    record_to_line,
    reply_attributes,
)


def sample_call():
    return NfsCall(
        time=12.345678, xid=0x1A, client="10.1.1.1", server="10.1.1.100",
        proc=NfsProc.READ, uid=100, gid=200,
        fh=FileHandle(1, 42, 0), offset=8192, count=8192,
    )


def sample_reply():
    return NfsReply(
        time=12.346, xid=0x1A, client="10.1.1.1", server="10.1.1.100",
        proc=NfsProc.READ, status=NfsStatus.OK, count=8192, eof=False,
        fh=FileHandle(1, 42, 0),
        attributes=FileAttributes(
            ftype=FileType.REGULAR, mode=0o644, uid=100, gid=200,
            size=1_000_000, fileid=42, atime=1.0, mtime=2.5, ctime=3.0,
        ),
    )


class TestRecordCodec:
    def test_call_roundtrip(self):
        record = TraceRecord.from_call(sample_call())
        parsed = record_from_line(record_to_line(record))
        assert parsed == record

    def test_reply_roundtrip(self):
        record = TraceRecord.from_reply(sample_reply())
        parsed = record_from_line(record_to_line(record))
        assert parsed == record

    def test_reply_attrs_rehydrate(self):
        record = TraceRecord.from_reply(sample_reply())
        attrs = reply_attributes(record)
        assert attrs.size == 1_000_000
        assert attrs.mtime == 2.5
        assert attrs.ftype is FileType.REGULAR

    def test_call_has_no_attrs(self):
        record = TraceRecord.from_call(sample_call())
        assert reply_attributes(record) is None

    def test_lookup_name_preserved(self):
        call = NfsCall(
            time=1.0, xid=1, client="c", server="s", proc=NfsProc.LOOKUP,
            fh=FileHandle(1, 1, 0), name=".pinerc",
        )
        parsed = record_from_line(record_to_line(TraceRecord.from_call(call)))
        assert parsed.name == ".pinerc"

    def test_key_matches_call_and_reply(self):
        call = TraceRecord.from_call(sample_call())
        reply = TraceRecord.from_reply(sample_reply())
        assert call.key() == reply.key()

    def test_short_line_rejected(self):
        with pytest.raises(TraceFormatError):
            record_from_line("1.0 C x")

    def test_bad_direction_rejected(self):
        with pytest.raises(TraceFormatError):
            record_from_line("1.0 X c s V3 1a read")

    def test_bad_field_rejected(self):
        with pytest.raises(TraceFormatError):
            record_from_line("1.0 C c s V3 1a read bogus=1")

    def test_reply_missing_status_rejected(self):
        with pytest.raises(TraceFormatError):
            record_from_line("1.0 R c s V3 1a read")


class TestWriterReader:
    def test_roundtrip_plain(self, tmp_path):
        records = [
            TraceRecord.from_call(sample_call()),
            TraceRecord.from_reply(sample_reply()),
        ]
        path = tmp_path / "t.trace"
        assert write_trace(path, records) == 2
        assert read_trace(path) == records

    def test_roundtrip_gzip(self, tmp_path):
        records = [TraceRecord.from_call(sample_call())]
        path = tmp_path / "t.trace.gz"
        write_trace(path, records)
        with gzip.open(path, "rb") as f:
            f.read(1)  # really gzip
        assert read_trace(path) == records

    def test_writer_sorts_within_window(self, tmp_path):
        base = TraceRecord.from_call(sample_call())
        jumbled = []
        for t in (3.0, 1.0, 2.0, 5.0, 4.0):
            r = TraceRecord.from_call(sample_call())
            r.time = t
            jumbled.append(r)
        path = tmp_path / "sorted.trace"
        write_trace(path, jumbled)
        times = [r.time for r in read_trace(path)]
        assert times == sorted(times)

    def test_reader_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "t.trace"
        line = record_to_line(TraceRecord.from_call(sample_call()))
        path.write_text(f"# header comment\n\n{line}\n")
        assert len(read_trace(path)) == 1

    def test_strict_reader_raises_on_garbage(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("total garbage line here extra tokens\n")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_lenient_reader_counts_bad_lines(self, tmp_path):
        path = tmp_path / "t.trace"
        good = record_to_line(TraceRecord.from_call(sample_call()))
        path.write_text(f"garbage garbage garbage garbage garbage garbage garbage\n{good}\n")
        reader = TraceReader(path, strict=False)
        records = list(reader)
        assert len(records) == 1
        assert reader.bad_lines == 1

    def test_closed_writer_rejects_writes(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.trace")
        writer.close()
        with pytest.raises(ValueError):
            writer.write(TraceRecord.from_call(sample_call()))


class TestCollector:
    def test_collector_captures_both_directions(self):
        from repro.trace import TraceCollector

        collector = TraceCollector()
        collector.on_call(sample_call())
        collector.on_reply(sample_reply())
        assert collector.calls_seen == 1
        assert collector.replies_seen == 1
        assert len(collector) == 2

    def test_sorted_records(self):
        from repro.trace import TraceCollector

        collector = TraceCollector()
        late = sample_call()
        late.time = 99.0
        collector.on_call(late)
        collector.on_call(sample_call())
        times = [r.time for r in collector.sorted_records()]
        assert times == sorted(times)

    def test_write_and_clear(self, tmp_path):
        from repro.trace import TraceCollector

        collector = TraceCollector()
        collector.on_call(sample_call())
        records = collector.sorted_records()
        assert write_trace(tmp_path / "c.trace", records) == 1
        collector.clear()
        assert len(collector) == 0
