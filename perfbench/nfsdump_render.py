"""Seeded renderer: a native trace as Ellard ``nfsdump`` text.

The ``ingest-replay`` workload needs a foreign capture that exercises
format sniffing, adapter parsing and ingest's time repair.  This module
renders a simulated trace in the grammar ``repro.trace.nfsdump`` parses
(see that module's docstring), with two controlled defects:

* **bounded line disorder** -- every line is displaced by a seeded
  jitter of at most ``disorder`` seconds, which must stay below the
  ingest reorder window so the repair is exact;
* **malformed lines** -- exactly ``bad_lines`` records are rendered in
  a broken form (unknown procedure, bad hex XID, truncated line), so
  ingest must skip exactly that many.

:func:`check_ingested` is the self-check: ingest must return the source
records minus the corrupted ones, equal on every field the renderer
writes.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter

#: NFSv3 procedure numbers (RFC 1813), written as the proc-number column.
PROC_NUMBERS = {
    "null": 0, "getattr": 1, "setattr": 2, "lookup": 3, "access": 4,
    "readlink": 5, "read": 6, "write": 7, "create": 8, "mkdir": 9,
    "symlink": 10, "mknod": 11, "remove": 12, "rmdir": 13, "rename": 14,
    "link": 15, "readdir": 16, "readdirplus": 17, "fsstat": 18,
    "fsinfo": 19, "pathconf": 20, "commit": 21,
}
FTYPE_NUMBERS = {"REG": "1", "DIR": "2", "LNK": "5"}
NFS_PORT = "0801"
#: the three defects a corrupted record gets, in rotation
BAD_KINDS = ("proc", "xid", "short")
#: lines kept clean at the head, so format sniffing sees a clean sample
CLEAN_HEAD = 64


def client_address(name: str) -> str:
    """A client's ``host.port``: a pure function of its name, because
    pairs match on (client, xid) and so need one address per client."""
    return f"{name}.{zlib.crc32(name.encode()) & 0xFFFF:04x}"


def server_address(name: str) -> str:
    return f"{name}.{NFS_PORT}"


def render_line(record, bad: str | None = None) -> str:
    """One record as an nfsdump line (``bad`` names a defect to inject)."""
    proc = str(record.proc)
    client, server = client_address(record.client), server_address(record.server)
    call = record.direction == "C"
    src, dst = (client, server) if call else (server, client)
    xid = "zz" + format(record.xid, "x") if bad == "xid" else format(record.xid, "x")
    name = "frobnicate" if bad == "proc" else proc
    parts = [
        f"{record.time:.6f}", src, dst, "U",
        ("C" if call else "R") + str(record.version), xid,
        str(PROC_NUMBERS[proc]), name,
    ]
    if bad == "short":
        return " ".join(parts[:6])
    if not call:
        status = record.status
        parts.append("OK" if status is None or status.value == "NFS3_OK"
                     else status.value)
    if record.fh is not None:
        parts += ["fh", record.fh]
    if record.name is not None:
        parts += ["name", f'"{record.name}"']
    if record.target_fh is not None:
        parts += ["fh2", record.target_fh]
    if record.target_name is not None:
        parts += ["name2", f'"{record.target_name}"']
    for key, value in (("off", record.offset), ("count", record.count)):
        if value is not None:
            parts += [key, format(value, "x")]
    if record.size is not None:
        parts += ["size", format(record.size, "x")]
    if record.eof is not None:
        parts += ["eof", "1" if record.eof else "0"]
    if record.attr_ftype is not None:
        parts += ["ftype", FTYPE_NUMBERS[record.attr_ftype]]
    if record.attr_size is not None:
        parts += ["size", format(record.attr_size, "x")]
    if record.attr_mtime is not None:
        parts += ["mtime", repr(record.attr_mtime)]
    if record.attr_fileid is not None:
        parts += ["fileid", format(record.attr_fileid, "x")]
    uid, gid = (record.uid, record.gid) if call else (record.attr_uid, record.attr_gid)
    if uid is not None:
        parts += ["uid", format(uid, "x")]
    if gid is not None:
        parts += ["gid", format(gid, "x")]
    parts += ["con", "=", "130", "len", "=", str(len(parts) * 8)]
    return " ".join(parts)


def render(records, path, *, seed: int, disorder: float, bad_lines: int) -> set[int]:
    """Write ``records`` to ``path`` as disordered nfsdump text.

    Returns the source indices of the corrupted records.
    """
    rng = random.Random(f"nfsdump-render-{seed}")
    records = list(records)
    candidates = range(CLEAN_HEAD, len(records))
    corrupted = set(rng.sample(candidates, min(bad_lines, len(candidates))))
    kinds = {i: BAD_KINDS[n % len(BAD_KINDS)]
             for n, i in enumerate(sorted(corrupted))}
    # a line may land at most ``disorder`` seconds away from its wire
    # time; the clean head keeps its order so sniffing sees real records
    keyed = sorted(
        (r.time + (rng.uniform(0.0, disorder) if i >= CLEAN_HEAD else 0.0), i)
        for i, r in enumerate(records)
    )
    with open(path, "w", encoding="utf-8") as out:
        for _, i in keyed:
            out.write(render_line(records[i], kinds.get(i)) + "\n")
    return corrupted


def _fields(record, time, client, server) -> tuple:
    return (
        time, record.direction, record.xid, client, server,
        str(record.proc), record.version,
        record.status.value if record.status is not None else None,
        record.uid, record.gid, record.fh, record.name, record.target_fh,
        record.target_name, record.offset, record.count, record.size,
        record.eof, record.attr_ftype, record.attr_size, record.attr_mtime,
        record.attr_fileid, record.attr_uid, record.attr_gid,
    )


def check_ingested(source, corrupted: set[int], ingested) -> str | None:
    """``None`` when ``ingested`` is the source minus ``corrupted``
    record for record; otherwise a one-line reason.

    Order is not compared: ingest's time repair orders records that
    share a rendered (microsecond) timestamp by arrival.
    """
    want = Counter(
        _fields(r, float(f"{r.time:.6f}"), client_address(r.client),
                server_address(r.server))
        for i, r in enumerate(source) if i not in corrupted
    )
    got = Counter(_fields(r, r.time, r.client, r.server) for r in ingested)
    expected = sum(want.values())
    if sum(got.values()) != expected:
        return (f"ingest returned {sum(got.values())} records, expected "
                f"{expected} ({len(corrupted)} malformed lines)")
    if got != want:
        return "ingested records differ from the rendered source fields"
    return None
