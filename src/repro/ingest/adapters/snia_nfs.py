"""Adapter for the SNIA-style NFS dump dialect.

The SNIA IOTTA repository hosts NFS traces in a flattened text dialect
(one message per line, already client-normalized) rather than raw
nfsdump columns::

    1004562602.021187 C3 nfs0.17 srv.2049 fa09d317 lookup fh=6189ab name=.profile
    1004562602.021667 R3 nfs0.17 srv.2049 fa09d317 lookup OK ftype=REG size=1086 fileid=20951

i.e.: an ``epoch.micros`` timestamp, a direction+version token
(``C2``/``C3``/``R2``/``R3``), client and server addresses (the client
column is the caller on both directions — no reply-side swap), a hex
XID, the v2/v3 procedure name, for replies a status token (``OK`` or
the ``NFS3ERR_*`` wire name), then ``key=value`` attribute pairs.
Numeric values are decimal (unlike nfsdump's hex); ``ftype`` accepts
both the symbolic (``REG``/``DIR``/``LNK``) and nfsdump's numeric
codes.  Unknown keys are skipped — the dialect grew fields over time.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

from repro.ingest.adapters.nfsdump import FTYPES, PROC_ALIASES
from repro.ingest.base import AdapterEvent, BadLine, TraceAdapter, data_lines
from repro.nfs.messages import NfsStatus
from repro.trace.record import Direction, TraceRecord

_DIRVER = re.compile(r"^[CR][23]$")

#: key -> (record field on calls, record field on replies); None means
#: the key is ignored in that direction.
_INT_KEYS = {
    "off": ("offset", "offset"),
    "offset": ("offset", "offset"),
    "count": ("count", "count"),
    "size": ("size", "attr_size"),
    "fileid": (None, "attr_fileid"),
    "uid": ("uid", "attr_uid"),
    "gid": ("gid", "attr_gid"),
}

_STR_KEYS = {
    "fh": ("fh", "fh"),
    "fh2": ("target_fh", "target_fh"),
    "name": ("name", "name"),
    "name2": ("target_name", "target_name"),
}


class SniaNfsAdapter(TraceAdapter):
    """SNIA-style flattened NFS dump lines (see module docstring)."""

    name = "snia-nfs"
    description = (
        "SNIA-style NFS dump lines: epoch.micros, C/R+version, "
        "client-normalized addresses, v2/v3 proc names, key=value attrs"
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
            tokens = line.split()
            if (
                len(tokens) >= 6
                and _DIRVER.match(tokens[1])
                and "." in tokens[0]
                and _is_float(tokens[0])
                and all("=" in t for t in tokens[7:])
            ):
                hits += 1
        return hits / len(sample)

    def records(self, lines: Iterable[str]) -> Iterator[AdapterEvent]:
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            event = self._parse(line, lineno)
            if event is not None:
                yield event

    def _parse(self, line: str, lineno: int) -> AdapterEvent | None:
        tokens = line.split()
        if len(tokens) < 6:
            return BadLine("short-line", line, lineno)
        dirver = tokens[1]
        if not _DIRVER.match(dirver):
            return BadLine("bad-direction", line, lineno)
        try:
            time = float(tokens[0])
            xid = int(tokens[4], 16)
        except ValueError:
            return BadLine("bad-value", line, lineno)
        direction = Direction.CALL if dirver[0] == "C" else Direction.REPLY
        proc = PROC_ALIASES.get(tokens[5].lower())
        if proc is None:
            return BadLine("unknown-proc", line, lineno)
        record = TraceRecord(
            time=time, direction=direction, xid=xid,
            client=tokens[2], server=tokens[3], proc=proc,
            version=int(dirver[1]),
        )
        rest = tokens[6:]
        if direction == Direction.REPLY:
            if rest and "=" not in rest[0]:
                status_token = rest[0]
                rest = rest[1:]
            else:
                status_token = "OK"
            if status_token == "OK":
                record.status = NfsStatus.OK
            else:
                try:
                    record.status = NfsStatus.from_wire(status_token)
                except ValueError:
                    return BadLine("bad-status", line, lineno)
        for token in rest:
            key, sep, value = token.partition("=")
            if not sep:
                return BadLine("bad-field", line, lineno)
            try:
                self._apply(record, key, value, direction)
            except ValueError:
                return BadLine("bad-value", line, lineno)
        return record

    def _apply(
        self, record: TraceRecord, key: str, value: str, direction: str
    ) -> None:
        is_reply = direction == Direction.REPLY
        pair = _INT_KEYS.get(key)
        if pair is not None:
            field = pair[1] if is_reply else pair[0]
            if field is not None:
                setattr(record, field, int(value))
            return
        pair = _STR_KEYS.get(key)
        if pair is not None:
            setattr(record, pair[1] if is_reply else pair[0], value)
            return
        if key == "ftype":
            record.attr_ftype = (
                value if value in ("REG", "DIR", "LNK")
                else FTYPES.get(value, "REG")
            )
        elif key == "eof":
            record.eof = value not in ("0", "false")
        elif key == "mtime":
            record.attr_mtime = float(value)
        # every other key (mode, nlink, atime, ctime, ...) is skipped


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True
