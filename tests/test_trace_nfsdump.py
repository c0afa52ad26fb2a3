"""Tests for the Ellard nfsdump-format adapter and its line parser."""

import pytest

from repro.analysis.pairing import pair_all
from repro.ingest import BadLine, ingest
from repro.ingest.adapters.nfsdump import NfsdumpAdapter, parse_nfsdump_line
from repro.nfs import NfsProc, NfsStatus
from repro.trace.reader import read_trace
from repro.trace.record import Direction, TraceRecord

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

    def test_non_finite_time_is_skipped(self, tmp_path):
        src = tmp_path / "dump.txt"
        src.write_text("\n".join([
            LOOKUP_CALL, "inf" + LOOKUP_REPLY[LOOKUP_REPLY.index(" "):],
            READ_CALL, READ_REPLY,
        ]) + "\n")
        stats = ingest(src, tmp_path / "out.rtb", fmt="nfsdump")
        assert stats.reasons == {"bad-time": 1}
        assert stats.records == 3

    def test_convert_gzip_source(self, tmp_path):
        import gzip

        src = tmp_path / "dump.txt.gz"
        with gzip.open(src, "wt") as f:
            f.write(LOOKUP_CALL + "\n")
        dst = tmp_path / "out.trace"
        stats = ingest(src, dst, fmt="nfsdump")
        assert stats.records == 1


# -- the grammar, field by field ------------------------------------------------

CALL = "1.0 30.0801 31.03f2 U C3 1a"
REPLY = "1.0 31.03f2 30.0801 U R3 1a"


def _call(proc, **fields):
    return TraceRecord(1.0, Direction.CALL, 0x1A, "30.0801", "31.03f2",
                       proc, 3, **fields)


def _reply(proc, status=NfsStatus.OK, **fields):
    return TraceRecord(1.0, Direction.REPLY, 0x1A, "30.0801", "31.03f2",
                       proc, 3, status, **fields)


GRAMMAR = {
    "second-fh-is-target": (
        f'{CALL} 14 rename fh aa name "x" fh bb name2 "y"',
        _call(NfsProc.RENAME, fh="aa", name="x", target_fh="bb",
              target_name="y"),
    ),
    "fh2-is-target": (
        f"{CALL} 15 link fh2 bb fh aa",
        _call(NfsProc.LINK, fh="aa", target_fh="bb"),
    ),
    "fn-fn2-aliases": (
        f'{CALL} 14 rename fh aa fn "x" fh2 bb fn2 "y"',
        _call(NfsProc.RENAME, fh="aa", name="x", target_fh="bb",
              target_name="y"),
    ),
    "offset-alias": (
        f"{CALL} 6 read fh aa offset 10 count 20",
        _call(NfsProc.READ, fh="aa", offset=0x10, count=0x20),
    ),
    "con-len-with-equals": (
        f"{CALL} 1 getattr con = 130 fh aa len = 110 uid 3",
        _call(NfsProc.GETATTR, fh="aa", uid=3),
    ),
    "con-len-without-equals": (
        f"{CALL} 1 getattr con 130 fh aa len 110 uid 3",
        _call(NfsProc.GETATTR, fh="aa", uid=3),
    ),
    "trailing-key-without-value": (
        f"{CALL} 1 getattr fh aa uid",
        _call(NfsProc.GETATTR, fh="aa"),
    ),
    "unknown-keys-skipped": (
        f"{REPLY} 1 getattr OK mode 1ed nlink 2 atime 5.0 size 10",
        _reply(NfsProc.GETATTR, attr_size=0x10),
    ),
    "call-side-size-uid-gid": (
        f"{CALL} 2 setattr fh aa size 100 uid 3e9 gid 64",
        _call(NfsProc.SETATTR, fh="aa", size=0x100, uid=0x3E9, gid=0x64),
    ),
    "reply-side-size-uid-gid": (
        f"{REPLY} 1 getattr OK size 100 uid 3e9 gid 64",
        _reply(NfsProc.GETATTR, attr_size=0x100, attr_uid=0x3E9,
               attr_gid=0x64),
    ),
    "eof-0": (
        f"{REPLY} 6 read OK eof 0",
        _reply(NfsProc.READ, eof=False),
    ),
    "eof-false": (
        f"{REPLY} 6 read OK eof false",
        _reply(NfsProc.READ, eof=False),
    ),
    "eof-1": (
        f"{REPLY} 6 read OK eof 1",
        _reply(NfsProc.READ, eof=True),
    ),
    "ftype-and-mtime-fileid": (
        f"{REPLY} 1 getattr OK ftype 2 mtime 12.5 fileid ff",
        _reply(NfsProc.GETATTR, attr_ftype="DIR", attr_mtime=12.5,
               attr_fileid=0xFF),
    ),
    "unknown-ftype-is-reg": (
        f"{REPLY} 1 getattr OK ftype 9",
        _reply(NfsProc.GETATTR, attr_ftype="REG"),
    ),
    "upper-case-proc": (
        f"{CALL} 1 GETATTR fh aa",
        _call(NfsProc.GETATTR, fh="aa"),
    ),
    "reply-without-status-is-ok": (
        f"{REPLY} 1 getattr",
        _reply(NfsProc.GETATTR),
    ),
    "numeric-status-is-io": (
        f"{REPLY} 3 lookup 2 fh aa",
        _reply(NfsProc.LOOKUP, NfsStatus.IO, fh="aa"),
    ),
    "quoted-name-with-tab": (
        f'{CALL} 3 lookup fh aa name "a\tb" uid 3',
        _call(NfsProc.LOOKUP, fh="aa", name="a%20b", uid=3),
    ),
    "unclosed-quote-runs-to-the-end": (
        f'{CALL} 3 lookup fh aa name "my file uid 3',
        _call(NfsProc.LOOKUP, fh="aa", name="my%20file%20uid%203"),
    ),
}


@pytest.mark.parametrize("line, want", GRAMMAR.values(), ids=GRAMMAR.keys())
def test_grammar(line, want):
    """Every field the parser fills, and nothing else, per grammar rule."""
    assert parse_nfsdump_line(line) == want


BAD = {
    "bad-count": (f"{CALL} 6 read fh aa count zz",
                  "bad value for 'count': 'zz'", "bad-value"),
    "bad-mtime": (f"{REPLY} 1 getattr OK mtime x",
                  "bad value for 'mtime': 'x'", "bad-value"),
    "bad-hex-xid": ("1.0 30.0801 31.03f2 U C3 zz1a 1 getattr fh aa",
                    "invalid literal for int() with base 16: 'zz1a'",
                    "unparseable"),
}


@pytest.mark.parametrize("line, message, reason", BAD.values(),
                         ids=BAD.keys())
def test_grammar_errors(line, message, reason):
    with pytest.raises(ValueError) as exc:
        parse_nfsdump_line(line)
    assert str(exc.value) == message
    (event,) = NfsdumpAdapter().records([line])
    assert isinstance(event, BadLine)
    assert event.reason == reason


@pytest.mark.parametrize("dirver", ["C4", "R9", "C3x", "Cz"])
def test_direction_version_token_is_one_of_four(dirver):
    line = f"1.0 30.0801 31.03f2 U {dirver} 1a 1 getattr fh aa"
    (event,) = NfsdumpAdapter().records([line])
    assert isinstance(event, BadLine)
    assert event.reason == "bad-direction"
