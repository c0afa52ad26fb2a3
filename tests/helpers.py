"""Shared factories for tests: hand-built paired ops and a list tap."""

from __future__ import annotations

from repro.analysis.pairing import PairedOp
from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc
from repro.trace.record import TraceRecord


class ListTap:
    """A network-path tap keeping every packet's record, in capture order.

    For tests of what a client puts on the wire, read between
    operations: a clockless :class:`~repro.trace.TraceCollector`
    releases nothing before ``flush()``.
    """

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def on_call(self, call) -> None:
        self.records.append(TraceRecord.from_call(call))

    def on_reply(self, reply) -> None:
        self.records.append(TraceRecord.from_reply(reply))


def op(
    proc=NfsProc.READ,
    t=0.0,
    fh="f1",
    offset=None,
    count=None,
    *,
    client="c1",
    xid=0,
    name=None,
    reply_fh=None,
    target_fh=None,
    target_name=None,
    size=None,
    post_size=None,
    post_mtime=None,
    post_ftype="REG",
    eof=None,
    status=NfsStatus.OK,
    uid=100,
) -> PairedOp:
    """Build a PairedOp with sensible defaults for tests."""
    return PairedOp(
        time=t,
        reply_time=t + 0.001,
        proc=proc,
        client=client,
        xid=xid,
        status=status,
        uid=uid,
        fh=fh,
        name=name,
        target_fh=target_fh,
        target_name=target_name,
        offset=offset,
        count=count,
        size=size,
        eof=eof,
        reply_fh=reply_fh,
        post_size=post_size,
        post_mtime=post_mtime,
        post_ftype=post_ftype,
    )


def read(t, offset, count, *, fh="f1", file_size=0, eof=False, xid=0, client="c1"):
    """A successful READ op."""
    return op(
        NfsProc.READ, t, fh, offset, count,
        post_size=file_size, eof=eof, xid=xid, client=client,
    )


def write(t, offset, count, *, fh="f1", post_size=None, xid=0, client="c1"):
    """A successful WRITE op (post_size defaults to offset+count)."""
    return op(
        NfsProc.WRITE, t, fh, offset, count,
        post_size=post_size if post_size is not None else offset + count,
        xid=xid, client=client,
    )


def lookup(t, dir_fh, name, child_fh, *, child_size=0, ftype="REG", client="c1"):
    """A successful LOOKUP binding (dir, name) -> child."""
    return op(
        NfsProc.LOOKUP, t, dir_fh, name=name, reply_fh=child_fh,
        post_size=child_size, post_ftype=ftype, client=client,
    )


def create(t, dir_fh, name, child_fh, *, client="c1"):
    """A successful CREATE."""
    return op(
        NfsProc.CREATE, t, dir_fh, name=name, reply_fh=child_fh,
        post_size=0, client=client,
    )


def remove(t, dir_fh, name, *, client="c1"):
    """A successful REMOVE."""
    return op(NfsProc.REMOVE, t, dir_fh, name=name, client=client)


def setattr_size(t, fh, new_size, *, client="c1"):
    """A successful truncating/extending SETATTR."""
    return op(
        NfsProc.SETATTR, t, fh, size=new_size, post_size=new_size, client=client
    )
