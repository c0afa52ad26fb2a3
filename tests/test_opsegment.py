"""Tests for the worker->parent paired-op segment codec and transport."""

import pytest

from repro.analysis.opsegment import decode_ops, encode_ops
from repro.analysis.pairing import PairedOp
from repro.errors import TraceFormatError
from repro.nfs import NfsProc, NfsStatus
from repro.parallel import claim_segment, publish_segment


def make_ops(n=200):
    """Ops exercising every optional-field shape the pairer produces."""
    ops = []
    for i in range(n):
        op = PairedOp(
            time=i * 0.5,
            reply_time=i * 0.5 + 0.04,
            proc=NfsProc.READ if i % 3 else NfsProc.LOOKUP,
            client=f"10.0.0.{i % 5}",
            xid=1000 + i,
            status=NfsStatus.OK if i % 7 else NfsStatus.NOENT,
            version=3,
        )
        if i % 2:
            op.uid = 100 + (i % 4)
            op.fh = f"{i % 9:02x}"
            op.offset = (i % 6) * 8192
            op.count = 8192
            op.eof = i % 4 == 1
        if i % 5 == 0:
            op.name = f"file-{i}.txt"
            op.reply_fh = f"aa{i % 3}"
            op.post_size = i * 100
            op.post_mtime = i * 0.25
            op.post_ftype = "REG"
        if i % 11 == 0:
            op.target_fh = "fe"
            op.target_name = f"renamed-{i}"
            op.size = i
        ops.append(op)
    return ops


class TestCodec:
    def test_round_trip_is_exact(self):
        ops = make_ops()
        assert list(decode_ops(encode_ops(ops))) == ops

    def test_empty_segment(self):
        assert encode_ops([]) == b""
        assert list(decode_ops(b"")) == []

    def test_strings_are_interned(self):
        ops = make_ops()
        payload = encode_ops(ops)
        # far fewer string frames than string field occurrences
        assert payload.count(b"10.0.0.0") == 1

    def test_corrupt_payload_raises_trace_format_error(self):
        payload = bytearray(encode_ops(make_ops(10)))
        with pytest.raises(TraceFormatError):
            list(decode_ops(bytes(payload[: len(payload) - 3])))
        with pytest.raises(TraceFormatError):
            list(decode_ops(b"\xff\x04\x00\x00\x00abcd"))


class TestTransport:
    """The one segment transport: a file per task in the run's temp dir."""

    @pytest.fixture(params=["file"])
    def workdir(self, tmp_path):
        return str(tmp_path)

    def test_publish_claim_round_trip(self, workdir):
        payload = encode_ops(make_ops(50))
        path = publish_segment(workdir, "0.ops", payload)
        assert claim_segment(path) == payload

    def test_claim_releases_the_segment(self, workdir, tmp_path):
        claim_segment(publish_segment(workdir, "1.ops", b"abc"))
        assert not list(tmp_path.iterdir())

    def test_empty_payload(self, workdir):
        assert claim_segment(publish_segment(workdir, "2.ops", b"")) == b""
