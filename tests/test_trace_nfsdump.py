"""Tests for the Ellard nfsdump-format adapter and its line parser."""

import pytest

from repro.analysis.pairing import pair_all
from repro.ingest import BadLine, ingest
from repro.ingest.adapters.nfsdump import NfsdumpAdapter, parse_nfsdump_line
from repro.nfs import NfsProc, NfsStatus
from repro.trace.reader import read_trace

LOOKUP_CALL = (
    "1004562602.021187 30.0801 31.03f2 U C3 fa09d317 3 lookup "
    'fh 6189010057570100200000000051d72d name ".profile" con = 130 len = 110'
)
LOOKUP_REPLY = (
    "1004562602.021667 31.03f2 30.0801 U R3 fa09d317 3 lookup OK "
    "ftype 1 fh 6189010057570100200000000051d7ff size 43e "
    "fileid 51d7 con = 130 len = 140"
)
READ_CALL = (
    "1004562602.030000 30.0801 31.03f2 U C3 fa09d318 6 read "
    "fh 6189010057570100200000000051d7ff off 2000 count 2000 con = 120 len = 98"
)
READ_REPLY = (
    "1004562602.031000 31.03f2 30.0801 U R3 fa09d318 6 read OK "
    "ftype 1 size 43e eof 1 count 43e con = 120 len = 1200"
)


class TestParseLine:
    def test_lookup_call(self):
        record = parse_nfsdump_line(LOOKUP_CALL)
        assert record.is_call()
        assert record.proc is NfsProc.LOOKUP
        assert record.version == 3
        assert record.xid == 0xFA09D317
        assert record.client == "30.0801"
        assert record.server == "31.03f2"
        assert record.name == ".profile"
        assert record.fh == "6189010057570100200000000051d72d"

    def test_lookup_reply(self):
        record = parse_nfsdump_line(LOOKUP_REPLY)
        assert record.is_reply()
        assert record.status is NfsStatus.OK
        # reply addressing is normalized so client matches the call
        assert record.client == "30.0801"
        assert record.attr_size == 0x43E
        assert record.attr_ftype == "REG"
        assert record.attr_fileid == 0x51D7

    def test_read_pair_fields_are_hex(self):
        call = parse_nfsdump_line(READ_CALL)
        assert call.offset == 0x2000
        assert call.count == 0x2000
        reply = parse_nfsdump_line(READ_REPLY)
        assert reply.count == 0x43E
        assert reply.eof is True

    def test_v2_line(self):
        line = (
            "1004562602.05 30.0801 31.03f2 U C2 1a 4 getattr "
            "fh 6189010057570100 con = 98 len = 90"
        )
        record = parse_nfsdump_line(line)
        assert record.version == 2

    def test_quoted_name_with_space(self):
        line = (
            "1.0 30.0801 31.03f2 U C3 1a 3 lookup "
            'fh 6189 name "my file.txt" con = 1 len = 1'
        )
        record = parse_nfsdump_line(line)
        assert record.name == "my%20file.txt"

    def test_error_reply_status(self):
        line = "1.0 31.03f2 30.0801 U R3 1a 3 lookup 2 con = 1 len = 1"
        record = parse_nfsdump_line(line)
        assert record.status is NfsStatus.IO  # unknown code folds to IO

    def test_short_line_returns_none(self):
        assert parse_nfsdump_line("1.0 a b") is None

    def test_unknown_proc_raises(self):
        with pytest.raises(ValueError):
            parse_nfsdump_line(
                "1.0 30.0801 31.03f2 U C3 1a 99 frobnicate con = 1 len = 1"
            )


class TestIterAndConvert:
    def test_iter_skips_garbage(self):
        lines = [LOOKUP_CALL, "# comment", "", "garbage line here", LOOKUP_REPLY]
        events = list(NfsdumpAdapter().records(lines))
        records = [e for e in events if not isinstance(e, BadLine)]
        bad = [e for e in events if isinstance(e, BadLine)]
        assert len(records) == 2
        assert len(bad) == 1
        assert bad[0].lineno == 4

    def test_converted_pair_is_analyzable(self):
        """The converted stream pairs and analyzes like a native one."""
        records = list(NfsdumpAdapter().records([LOOKUP_CALL, LOOKUP_REPLY,
                                                 READ_CALL, READ_REPLY]))
        ops, stats = pair_all(records)
        assert len(ops) == 2
        assert stats.orphan_replies == 0
        read_op = [o for o in ops if o.proc is NfsProc.READ][0]
        assert read_op.count == 0x43E
        assert read_op.post_size == 0x43E

    def test_convert_file_roundtrip(self, tmp_path):
        src = tmp_path / "dump.txt"
        src.write_text("\n".join([LOOKUP_CALL, LOOKUP_REPLY, READ_CALL,
                                  READ_REPLY]) + "\n")
        dst = tmp_path / "out.trace.gz"
        stats = ingest(src, dst, fmt="nfsdump")
        assert stats.records == 4
        reread = read_trace(dst)
        assert len(reread) == 4
        assert reread[0].name == ".profile"

    def test_convert_gzip_source(self, tmp_path):
        import gzip

        src = tmp_path / "dump.txt.gz"
        with gzip.open(src, "wt") as f:
            f.write(LOOKUP_CALL + "\n")
        dst = tmp_path / "out.trace"
        stats = ingest(src, dst, fmt="nfsdump")
        assert stats.records == 1
