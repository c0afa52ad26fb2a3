"""Adapter for Ellard-style ``nfsdump`` captures (the paper's format).

The traces the paper released (later hosted by SNIA as the *Harvard
EECS/CAMPUS NFS traces*) are text lines produced by the authors'
modified tcpdump, shaped like::

    1004562602.021187 30.0801 31.03f2 U C3 fa09d317 3 lookup fh 6189...0f name ".profile" con = 130 len = 110
    1004562602.021667 31.03f2 30.0801 U R3 fa09d317 3 lookup OK ftype 1 fh 6189...10 size 1086 ... con = 130 len = 140

i.e.: timestamp, source ``host.port``, destination ``host.port``,
transport (``U``/``T``), direction+version (exactly one of ``C2``,
``C3``, ``R2`` or ``R3``), hex XID, procedure number, procedure name,
then procedure-specific ``key value`` pairs (with replies carrying a
status token first), and trailing ``con = N len = M`` accounting.

The parser is deliberately *best-effort*: fields it does not
understand are skipped, and only the fields the analyses consume are
extracted.  A line without a ``"`` costs one ``str.split()``; only
quoted names send it through the quote-aware re-join.  The
``key value`` scan is table-driven (:data:`_CALL_KEYS`,
:data:`_REPLY_KEYS`: key -> record field and converter).  Values
follow nfsdump conventions: hexadecimal for offsets/counts/sizes/ids,
``SECS.USECS`` for times.  Malformed lines become :class:`BadLine`
events, so skip-vs-fail belongs to the shared normalization core.
:data:`PROC_ALIASES` and :data:`FTYPES` are shared with the SNIA-style
dialect, which uses the same names and codes.
"""

from __future__ import annotations

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

#: the four direction+version tokens -> (direction, version); any
#: other token is a ``bad direction/version token``
_DIRVERS = {
    "C2": (Direction.CALL, 2), "C3": (Direction.CALL, 3),
    "R2": (Direction.REPLY, 2), "R3": (Direction.REPLY, 3),
}


def parse_nfsdump_line(line: str) -> TraceRecord | None:
    """Parse one nfsdump line; returns None for non-record lines.

    Raises:
        ValueError: when the line looks like a record but is malformed.
    """
    tokens = line.split()
    if '"' in line:
        tokens = _tokenize(tokens)
    n = len(tokens)
    if n < 8:
        return None
    time = float(tokens[0])
    # tokens[3] is the transport (U/T); direction+version is tokens[4]
    dirver = _DIRVERS.get(tokens[4])
    if dirver is None:
        raise ValueError(f"bad direction/version token {tokens[4]!r}")
    direction, version = dirver
    xid = int(tokens[5], 16)
    proc = PROC_ALIASES.get(tokens[7].lower())
    if proc is None:
        raise ValueError(f"unknown procedure {tokens[7].lower()!r}")
    if direction == Direction.CALL:
        record = TraceRecord(
            time, direction, xid, tokens[1], tokens[2], proc, version,
        )
        keys = _CALL_KEYS
        i = 8
    else:
        # a reply's first token after the procedure is its status
        record = TraceRecord(
            time, direction, xid, tokens[2], tokens[1], proc, version,
            _parse_status(tokens[8]) if n > 8 else NfsStatus.OK,
        )
        keys = _REPLY_KEYS
        i = 9
    # ``key value`` pairs to the end; a trailing key without a value
    # carries nothing
    last = n - 1
    while i < last:
        key = tokens[i]
        value = tokens[i + 1]
        i += 2
        entry = keys.get(key)
        if entry is not None:
            field, convert = entry
            try:
                setattr(record, field, convert(value))
            except ValueError as exc:
                raise ValueError(f"bad value for {key!r}: {value!r}") from exc
        elif key == "fh":
            # a second handle is the target's
            if record.fh is None:
                record.fh = value
            else:
                record.target_fh = value
        elif key == "fh2":
            record.target_fh = value
        elif key == "con" or key == "len":
            # ``con = N len = M`` accounting: the ``=`` is optional
            if value == "=":
                i += 1
        # every other key (mode, nlink, atime, ctime, tsize, ...)
        # carries nothing the analyses need: skip it
    return record


def _tokenize(raw: list[str]) -> list[str]:
    """Rejoin the whitespace-split tokens of quoted names."""
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


def _hex(value: str) -> int:
    return int(value, 16)


def _eof(value: str) -> bool:
    return value not in ("0", "false")


def _ftype(value: str) -> str:
    return FTYPES.get(value, "REG")


def _clean_name(value: str) -> str:
    """Strip quotes and percent-encode whitespace (per docs/FORMAT.md,
    the trace format's fields are whitespace-free)."""
    return value.strip('"').replace(" ", "%20").replace("\t", "%09")


#: ``key value`` pairs -> (record field, converter), for calls and for
#: replies; only ``size``, ``uid`` and ``gid`` differ between the two
_CALL_KEYS = {
    "name": ("name", _clean_name),
    "fn": ("name", _clean_name),
    "name2": ("target_name", _clean_name),
    "fn2": ("target_name", _clean_name),
    "off": ("offset", _hex),
    "offset": ("offset", _hex),
    "count": ("count", _hex),
    "eof": ("eof", _eof),
    "ftype": ("attr_ftype", _ftype),
    "mtime": ("attr_mtime", float),
    "fileid": ("attr_fileid", _hex),
    "size": ("size", _hex),
    "uid": ("uid", _hex),
    "gid": ("gid", _hex),
}
_REPLY_KEYS = {
    **_CALL_KEYS,
    "size": ("attr_size", _hex),
    "uid": ("attr_uid", _hex),
    "gid": ("attr_gid", _hex),
}


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
                and tokens[4] in _DIRVERS
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
