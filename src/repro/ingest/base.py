"""The trace-adapter interface: foreign archive -> record stream.

An adapter owns one foreign trace dialect.  It declares a ``name``
(the ``--format`` token), a one-line ``description``, and a
``field_coverage`` manifest — the exact set of
:class:`~repro.trace.record.TraceRecord` fields the dialect can
populate, which the conformance harness enforces and docs/INGEST.md
tabulates.  Behaviour is two methods:

* :meth:`TraceAdapter.sniff_lines` scores a sample of input lines in
  ``[0, 1]`` so ``--format auto`` can pick an adapter (ties and
  all-zero scores are errors, raised by the registry);
* :meth:`TraceAdapter.records` converts a line iterable into a stream
  of :class:`~repro.trace.record.TraceRecord` — interleaved with
  :class:`BadLine` markers for anything malformed, so the shared
  normalization core (:mod:`repro.ingest.core`) can apply one error
  policy (``skip`` counts and drops, ``fail`` raises
  :class:`~repro.errors.IngestError`) uniformly across every dialect.

Adapters never open files themselves (the core handles paths, gzip,
and stdin), never sort globally (the core writes through the
TraceWriter's bounded sort window, which repairs capture jitter), and
never raise on bad data (they yield ``BadLine``): that keeps every
dialect byte-identical between file and ``--in -`` stream input,
which the conformance harness asserts.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields as dataclass_fields
from typing import Iterable, Iterator, Sequence, Union

from repro.trace.record import TraceRecord

#: Valid manifest entries: the record's own field names.
RECORD_FIELDS = frozenset(f.name for f in dataclass_fields(TraceRecord))

#: Lines the registry hands to ``sniff_lines`` (enough to amortize
#: header rows and mixed prologues without reading whole archives).
SNIFF_LINES = 64


@dataclass(slots=True)
class BadLine:
    """One malformed source unit, yielded in-stream by adapters.

    ``reason`` is a short stable token (``short-line``,
    ``unknown-proc``, ``bad-value``, ...) used as the ``reason`` label
    of the ``ingest.skipped`` metric; ``line`` is a clipped excerpt
    for diagnostics; ``lineno`` is 1-based in the source stream.
    """

    reason: str
    line: str
    lineno: int

    def __str__(self) -> str:
        excerpt = self.line if len(self.line) <= 80 else self.line[:77] + "..."
        return f"line {self.lineno}: {self.reason}: {excerpt!r}"


#: What an adapter's ``records`` stream yields.
AdapterEvent = Union[TraceRecord, BadLine]


class TraceAdapter(ABC):
    """One foreign trace dialect (see module docstring)."""

    #: The ``--format`` token; must be unique within a registry.
    name: str = ""
    #: One line for ``--format`` error listings and docs.
    description: str = ""
    #: TraceRecord fields this dialect can populate.  The conformance
    #: harness asserts ingested records never stray outside it.
    field_coverage: frozenset = frozenset()

    @abstractmethod
    def sniff_lines(self, lines: Sequence[str]) -> float:
        """Confidence in ``[0, 1]`` that ``lines`` are this dialect."""

    @abstractmethod
    def records(self, lines: Iterable[str]) -> Iterator[AdapterEvent]:
        """Convert source lines to records and :class:`BadLine` marks."""

    def sniff(self, path) -> float:
        """Confidence that the file at ``path`` is this dialect.

        Reads at most :data:`SNIFF_LINES` lines; the default simply
        defers to :meth:`sniff_lines`, so adapters only implement the
        line-based form (it must work for streamed stdin too).
        """
        from repro.ingest.core import open_lines

        head: list[str] = []
        with open_lines(path) as lines:
            for line in lines:
                head.append(line)
                if len(head) >= SNIFF_LINES:
                    break
        return self.sniff_lines(head)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceAdapter {self.name}>"


def data_lines(lines: Sequence[str]) -> list[str]:
    """The sniffable subset of a sample: non-blank, non-comment."""
    out = []
    for line in lines:
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


class XidSynth:
    """Deterministic per-client XID counters for sources without RPC.

    Foreign dialects that never carried RPC XIDs (workflow tables,
    block traces) still need the ``(client, xid)`` pairing key, so
    each synthesized call takes the next integer in its client's
    stream — deterministic for a fixed input order, which keeps
    ingest byte-identical across runs.
    """

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next: dict[str, int] = {}

    def take(self, client: str) -> int:
        """The next XID for ``client`` (starts at 1)."""
        xid = self._next.get(client, 0) + 1
        self._next[client] = xid
        return xid


def synth_handle(*parts: object) -> str:
    """A deterministic 16-hex pseudo file handle from identity parts.

    BLAKE2b over the joined parts: stable across runs and platforms,
    collision-safe at trace scale, and shaped like the opaque hex
    tokens every analysis already treats handles as.
    """
    joined = "\x1f".join(str(part) for part in parts)
    return hashlib.blake2b(joined.encode("utf-8"), digest_size=8).hexdigest()
