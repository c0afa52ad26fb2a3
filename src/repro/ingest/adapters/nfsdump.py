"""Adapter for Ellard-style ``nfsdump`` captures (the paper's format).

The traces the paper released (later hosted by SNIA as the *Harvard
EECS/CAMPUS NFS traces*) are text lines produced by the authors'
modified tcpdump, shaped like::

    1004562602.021187 30.0801 31.03f2 U C3 fa09d317 3 lookup fh 6189...0f name ".profile" con = 130 len = 110
    1004562602.021667 31.03f2 30.0801 U R3 fa09d317 3 lookup OK ftype 1 fh 6189...10 size 1086 ... con = 130 len = 140

i.e.: timestamp, source ``host.port``, destination ``host.port``,
transport (``U``/``T``), direction+version (``C2/C3/R2/R3``), hex XID,
procedure number, procedure name, then procedure-specific ``key value``
pairs (with replies carrying a status token first), and trailing
``con = N len = M`` accounting.

The parser is deliberately *best-effort*: fields it does not
understand are skipped, and only the fields the analyses consume are
extracted.  Values follow nfsdump conventions: hexadecimal for
offsets/counts/sizes/ids, ``SECS.USECS`` for times.  Malformed lines
become :class:`BadLine` events, so skip-vs-fail belongs to the shared
normalization core.  :data:`PROC_ALIASES` and :data:`FTYPES` are shared
with the SNIA-style dialect, which uses the same names and codes.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

from repro.ingest.base import AdapterEvent, BadLine, TraceAdapter, data_lines
from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc
from repro.trace.record import Direction, TraceRecord

#: nfsdump procedure names -> our procedure enum (identity for most).
PROC_ALIASES = {
    "getattr": NfsProc.GETATTR,
    "setattr": NfsProc.SETATTR,
    "lookup": NfsProc.LOOKUP,
    "access": NfsProc.ACCESS,
    "readlink": NfsProc.READLINK,
    "read": NfsProc.READ,
    "write": NfsProc.WRITE,
    "create": NfsProc.CREATE,
    "mkdir": NfsProc.MKDIR,
    "symlink": NfsProc.SYMLINK,
    "mknod": NfsProc.MKNOD,
    "remove": NfsProc.REMOVE,
    "rmdir": NfsProc.RMDIR,
    "rename": NfsProc.RENAME,
    "link": NfsProc.LINK,
    "readdir": NfsProc.READDIR,
    "readdirp": NfsProc.READDIRPLUS,
    "readdirplus": NfsProc.READDIRPLUS,
    "fsstat": NfsProc.FSSTAT,
    "fsinfo": NfsProc.FSINFO,
    "pathconf": NfsProc.PATHCONF,
    "commit": NfsProc.COMMIT,
    "null": NfsProc.NULL,
}

#: nfsdump ftype numbers (NFSv3 ftype3) -> our attr_ftype strings.
FTYPES = {"1": "REG", "2": "DIR", "5": "LNK"}

#: direction+version token (C3, R2, ...) at its nfsdump position.
_DIRVER = re.compile(r"^[CR][23]$")


def parse_nfsdump_line(line: str) -> TraceRecord | None:
    """Parse one nfsdump line; returns None for non-record lines.

    Raises:
        ValueError: when the line looks like a record but is malformed.
    """
    tokens = _tokenize(line)
    if len(tokens) < 8:
        return None
    time = float(tokens[0])
    src, dst = tokens[1], tokens[2]
    # tokens[3] is the transport (U/T); direction+version is tokens[4]
    dirver = tokens[4]
    if len(dirver) < 2 or dirver[0] not in ("C", "R"):
        raise ValueError(f"bad direction/version token {dirver!r}")
    direction = Direction.CALL if dirver[0] == "C" else Direction.REPLY
    version = int(dirver[1])
    xid = int(tokens[5], 16)
    proc_name = tokens[7].lower()
    proc = PROC_ALIASES.get(proc_name)
    if proc is None:
        raise ValueError(f"unknown procedure {proc_name!r}")
    if direction == Direction.CALL:
        client, server = src, dst
    else:
        client, server = dst, src
    record = TraceRecord(
        time=time, direction=direction, xid=xid,
        client=client, server=server, proc=proc, version=version,
    )
    rest = tokens[8:]
    if direction == Direction.REPLY:
        if rest:
            record.status = _parse_status(rest[0])
            rest = rest[1:]
        else:
            record.status = NfsStatus.OK
    _parse_fields(record, rest, direction)
    return record


def _tokenize(line: str) -> list[str]:
    """Whitespace tokenization that keeps quoted names intact."""
    raw = line.split()
    tokens: list[str] = []
    buffer: list[str] = []
    for token in raw:
        if buffer:
            buffer.append(token)
            if token.endswith('"'):
                tokens.append(" ".join(buffer))
                buffer = []
        elif token.startswith('"') and not (
            token.endswith('"') and len(token) > 1
        ):
            buffer = [token]
        else:
            tokens.append(token)
    if buffer:
        tokens.append(" ".join(buffer))
    return tokens


def _parse_status(token: str) -> NfsStatus:
    if token == "OK":
        return NfsStatus.OK
    try:
        return NfsStatus.from_wire(token)
    except ValueError:
        # numeric or unknown error code: fold into generic IO error
        return NfsStatus.IO


def _parse_fields(record: TraceRecord, tokens: list[str], direction: str) -> None:
    """Consume ``key value`` pairs; unknown keys are skipped."""
    i = 0
    n = len(tokens)
    while i < n:
        key = tokens[i]
        if key in ("con", "len"):
            i += 3 if i + 1 < n and tokens[i + 1] == "=" else 2
            continue
        if i + 1 >= n:
            break
        value = tokens[i + 1]
        i += 2
        try:
            if key in ("fh", "fh2"):
                # a second handle (or an explicit fh2) is the target's
                if key == "fh" and record.fh is None:
                    record.fh = value
                else:
                    record.target_fh = value
            elif key in ("name", "fn"):
                record.name = _clean_name(value)
            elif key in ("name2", "fn2"):
                record.target_name = _clean_name(value)
            elif key in ("off", "offset"):
                record.offset = int(value, 16)
            elif key == "count":
                record.count = int(value, 16)
            elif key == "size":
                if direction == Direction.REPLY:
                    record.attr_size = int(value, 16)
                else:
                    record.size = int(value, 16)
            elif key == "eof":
                record.eof = value not in ("0", "false")
            elif key == "ftype":
                record.attr_ftype = FTYPES.get(value, "REG")
            elif key == "mtime":
                record.attr_mtime = float(value)
            elif key == "fileid":
                record.attr_fileid = int(value, 16)
            elif key == "uid":
                if direction == Direction.CALL:
                    record.uid = int(value, 16)
                else:
                    record.attr_uid = int(value, 16)
            elif key == "gid":
                if direction == Direction.CALL:
                    record.gid = int(value, 16)
                else:
                    record.attr_gid = int(value, 16)
            # every other key (mode, nlink, atime, ctime, tsize, ...)
            # carries nothing the analyses need: skip it
        except ValueError as exc:
            raise ValueError(f"bad value for {key!r}: {value!r}") from exc


def _clean_name(value: str) -> str:
    """Strip quotes and percent-encode whitespace (per docs/FORMAT.md,
    the trace format's fields are whitespace-free)."""
    return value.strip('"').replace(" ", "%20").replace("\t", "%09")


def _reason(exc: ValueError) -> str:
    """Fold a parser ValueError into a stable skip-reason token."""
    text = str(exc)
    if text.startswith("unknown procedure"):
        return "unknown-proc"
    if text.startswith("bad direction"):
        return "bad-direction"
    if text.startswith("bad value"):
        return "bad-value"
    return "unparseable"


class NfsdumpAdapter(TraceAdapter):
    """The paper's native capture format (Harvard EECS/CAMPUS dumps)."""

    name = "nfsdump"
    description = (
        "Ellard nfsdump text captures: timestamp, host.port addresses, "
        "C/R+version, hex xid, proc number+name, 'key value' pairs"
    )
    field_coverage = frozenset({
        "time", "direction", "xid", "client", "server", "proc", "version",
        "status", "uid", "gid", "fh", "name", "target_fh", "target_name",
        "offset", "count", "size", "eof", "attr_ftype", "attr_size",
        "attr_mtime", "attr_fileid", "attr_uid", "attr_gid",
    })

    def sniff_lines(self, lines: Sequence[str]) -> float:
        sample = data_lines(lines)
        if not sample:
            return 0.0
        hits = 0
        for line in sample:
            tokens = line.split(None, 6)
            if (
                len(tokens) >= 6
                and "." in tokens[0]
                and tokens[3] in ("U", "T")
                and _DIRVER.match(tokens[4])
                and "." in tokens[1]
                and "." in tokens[2]
                and _is_float(tokens[0])
            ):
                hits += 1
        return hits / len(sample)

    def records(self, lines: Iterable[str]) -> Iterator[AdapterEvent]:
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = parse_nfsdump_line(line)
            except ValueError as exc:
                yield BadLine(_reason(exc), line, lineno)
                continue
            if record is None:
                yield BadLine("short-line", line, lineno)
                continue
            yield record


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True
