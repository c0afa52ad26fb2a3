"""Run detection and access-pattern classification (Section 4.2).

NFS has no open/close, so the paper defines a *run* per file as:

1. associate each read/write with the file's access list;
2. start a new run when the previous access referenced end-of-file, or
   when the previous access is older than 30 seconds.

A run is **sequential** when every access begins where the previous
one left off, with offsets and counts rounded up to 8 KB blocks; the
*processed* mode additionally tolerates seeks of fewer than 10 blocks
(Table 3's rightmost columns).  A sequential run covering byte 0
through EOF is **entire**; anything non-sequential is **random**.
Singleton runs are entire if they cover the whole file, else
sequential.  Runs are also typed read / write / read-write.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.analysis.pairing import PairedOp
from repro.fs.blockmap import BLOCK_SIZE
from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc

#: Gap after which a run is considered closed (paper: "e.g., older
#: than 30 seconds").
DEFAULT_IDLE_GAP = 30.0

#: Processed-mode seek tolerance: "seeks of less than 10 8k blocks".
DEFAULT_JUMP_BLOCKS = 10

_READ, _WRITE, _OK = NfsProc.READ, NfsProc.WRITE, NfsStatus.OK


class RunKind(enum.Enum):
    """Operation mix of a run."""

    READ = "read"
    WRITE = "write"
    READ_WRITE = "read-write"


class RunPattern(enum.Enum):
    """Access pattern of a run."""

    ENTIRE = "entire"
    SEQUENTIAL = "sequential"
    RANDOM = "random"


@dataclass(slots=True)
class Access:
    """One read or write inside a run."""

    time: float
    offset: int
    count: int
    is_read: bool
    file_size: int  # post-op size, the best EOF estimate at this access
    hit_eof: bool


@dataclass
class Run:
    """A completed run on one file."""

    fh: str
    accesses: list[Access] = field(default_factory=list)

    @property
    def bytes_accessed(self) -> int:
        """Total bytes moved by the run."""
        return sum(a.count for a in self.accesses)

    @property
    def file_size(self) -> int:
        """Largest file size observed during the run."""
        return max((a.file_size for a in self.accesses), default=0)

    @property
    def start_time(self) -> float:
        return self.accesses[0].time if self.accesses else 0.0

    def kind(self) -> RunKind:
        """read / write / read-write."""
        reads = any(a.is_read for a in self.accesses)
        writes = any(not a.is_read for a in self.accesses)
        if reads and writes:
            return RunKind.READ_WRITE
        return RunKind.READ if reads else RunKind.WRITE

    def is_sequential(self, *, jump_blocks: int = 1) -> bool:
        """Whether every access is (nearly) where the last left off.

        ``jump_blocks=1`` is the strict 8 KB-rounded rule; larger
        values allow the processed mode's small seeks.
        """
        for prev, cur in zip(self.accesses, self.accesses[1:]):
            expected = _round_up(prev.offset + prev.count)
            actual = _round_up(cur.offset)
            if abs(actual - expected) >= jump_blocks * BLOCK_SIZE:
                return False
        return True

    def covers_entire_file(self) -> bool:
        """Starts at byte 0 and reaches EOF."""
        if not self.accesses:
            return False
        starts_at_zero = self.accesses[0].offset == 0
        reaches_eof = any(
            a.hit_eof or (a.offset + a.count >= a.file_size > 0)
            for a in self.accesses
        )
        return starts_at_zero and reaches_eof

    def pattern(self, *, jump_blocks: int = 1) -> RunPattern:
        """entire / sequential / random, per the paper's taxonomy."""
        if len(self.accesses) == 1:
            return (
                RunPattern.ENTIRE
                if self.covers_entire_file()
                else RunPattern.SEQUENTIAL
            )
        if self.is_sequential(jump_blocks=jump_blocks):
            if self.covers_entire_file():
                return RunPattern.ENTIRE
            return RunPattern.SEQUENTIAL
        return RunPattern.RANDOM


def _round_up(nbytes: int) -> int:
    return -(-nbytes // BLOCK_SIZE) * BLOCK_SIZE


class RunBuilder:
    """Splits a stream of data ops into runs (the Section 4.2 rules).

    By default completed runs accumulate in a list returned by
    :meth:`finish`.  Pass ``sink`` to consume each run the moment it
    closes instead — the streaming mode: nothing is retained beyond
    the currently-open runs, so memory stays bounded by the set of
    concurrently-active files.
    """

    def __init__(
        self,
        *,
        idle_gap: float = DEFAULT_IDLE_GAP,
        sink: "Callable[[Run], None] | None" = None,
    ) -> None:
        self.idle_gap = idle_gap
        self.sink = sink
        self._open: dict[str, Run] = {}
        self._done: list[Run] = []
        #: last known file size per fh, persisted across runs, so we
        #: can tell an EOF-referencing write from an extending one
        self._last_size: dict[str, int] = {}

    def feed(self, op: PairedOp) -> None:
        """Consume one paired op (non-data and failed ops ignored).

        Each op is classified once, by ``proc`` and ``status`` identity.
        """
        proc = op.proc
        if proc is _READ:
            is_read = True
        elif proc is _WRITE:
            is_read = False
        else:
            return
        fh = op.fh
        offset = op.offset
        count = op.count
        if (op.status is not _OK or fh is None or offset is None
                or count is None or count == 0):
            return
        post_size = op.post_size
        file_size = post_size if post_size is not None else 0
        last_size = self._last_size
        prev_size = last_size.get(fh)
        if is_read:
            hit_eof = bool(op.eof) or (
                file_size > 0 and offset + count >= file_size
            )
        else:
            # A write "references EOF" when it finishes at the file's
            # end WITHOUT growing it (e.g. the final chunk of an
            # in-place rewrite).  A write that extends the file moves
            # EOF with it — closing runs there would make every
            # sequential new-file write a chain of singletons.
            grew = prev_size is None or file_size > prev_size
            hit_eof = (
                not grew and file_size > 0 and offset + count >= file_size
            )
        # the largest size seen: max(file_size, prev_size or 0)
        known = prev_size if prev_size is not None else 0
        last_size[fh] = known if known > file_size else file_size
        access = Access(op.time, offset, count, is_read, file_size, hit_eof)
        run = self._open.get(fh)
        if run is not None:  # an open run holds at least one access
            last = run.accesses[-1]
            if last.hit_eof or access.time - last.time > self.idle_gap:
                self._close(fh)
                run = None
        if run is None:
            run = self._open[fh] = Run(fh)
        run.accesses.append(access)

    def feed_all(self, ops: Iterable[PairedOp]) -> "RunBuilder":
        """Consume a whole op stream; returns self for chaining."""
        for op in ops:
            self.feed(op)
        return self

    def finish(self) -> list[Run]:
        """Close all open runs; returns the retained run list.

        In sink mode every run has already been handed to the sink and
        the returned list is empty.
        """
        for fh in list(self._open):
            self._close(fh)
        return self._done

    def _close(self, fh: str) -> None:
        run = self._open.pop(fh, None)
        if run is not None and run.accesses:
            if self.sink is not None:
                self.sink(run)
            else:
                self._done.append(run)

    def open_runs(self) -> int:
        """Currently-open (unfinished) runs — the builder's live state."""
        return len(self._open)


@dataclass
class RunPatternTable:
    """The Table 3 numbers for one trace + parameter set.

    All values are percentages.  ``reads``/``writes``/``read_writes``
    are the share of runs of that kind; each kind's dict splits its
    runs into entire/sequential/random.
    """

    reads: float
    writes: float
    read_writes: float
    read_split: dict[str, float]
    write_split: dict[str, float]
    read_write_split: dict[str, float]
    total_runs: int

    def as_rows(self) -> list[tuple[str, float]]:
        """Flatten to (label, percent) rows in the paper's order."""
        rows = [("Reads (% total)", self.reads)]
        rows += [
            (f"{p.capitalize()} (% read)", self.read_split[p])
            for p in ("entire", "sequential", "random")
        ]
        rows.append(("Writes (% total)", self.writes))
        rows += [
            (f"{p.capitalize()} (% write)", self.write_split[p])
            for p in ("entire", "sequential", "random")
        ]
        rows.append(("Read-Write (% total)", self.read_writes))
        rows += [
            (f"{p.capitalize()} (% r-w)", self.read_write_split[p])
            for p in ("entire", "sequential", "random")
        ]
        return rows


class RunPatternTally:
    """Constant-memory accumulation of the Table 3 percentages.

    Classifies each run the moment it is added and keeps only the
    (kind, pattern) counts — the run itself can be discarded.  Both
    :func:`classify_runs` and the streaming engine
    (:class:`repro.stream.analyses.StreamRuns`) aggregate through this
    class, so batch and streaming runs tables are identical by
    construction.
    """

    def __init__(self, *, jump_blocks: int = 1) -> None:
        self.jump_blocks = jump_blocks
        self.total = 0
        self._counts: dict[RunKind, dict[str, int]] = {
            kind: {"entire": 0, "sequential": 0, "random": 0}
            for kind in RunKind
        }

    def add(self, run: Run) -> None:
        """Classify one completed run into the tallies."""
        self.total += 1
        self._counts[run.kind()][
            run.pattern(jump_blocks=self.jump_blocks).value
        ] += 1

    def table(self) -> RunPatternTable:
        """The Table 3 percentages accumulated so far."""
        total = self.total

        def kind_total(kind: RunKind) -> int:
            return sum(self._counts[kind].values())

        def split(kind: RunKind) -> dict[str, float]:
            n = kind_total(kind)
            if n == 0:
                return {"entire": 0.0, "sequential": 0.0, "random": 0.0}
            return {k: 100.0 * v / n for k, v in self._counts[kind].items()}

        def pct(kind: RunKind) -> float:
            return 100.0 * kind_total(kind) / total if total else 0.0

        return RunPatternTable(
            reads=pct(RunKind.READ),
            writes=pct(RunKind.WRITE),
            read_writes=pct(RunKind.READ_WRITE),
            read_split=split(RunKind.READ),
            write_split=split(RunKind.WRITE),
            read_write_split=split(RunKind.READ_WRITE),
            total_runs=total,
        )


def classify_runs(
    runs: list[Run], *, jump_blocks: int = 1
) -> RunPatternTable:
    """Aggregate runs into the Table 3 percentages.

    ``jump_blocks=1`` reproduces the raw columns;
    ``jump_blocks=DEFAULT_JUMP_BLOCKS`` the processed columns.
    """
    tally = RunPatternTally(jump_blocks=jump_blocks)
    for run in runs:
        tally.add(run)
    return tally.table()
