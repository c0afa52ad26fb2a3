"""Create-based block lifetime accounting (Section 5.2).

Implements Roselli's create-based method as the paper applies it:

* **Phase 1** records block *births* and *deaths*;
* **Phase 2** (the *end margin*) records deaths only;
* deaths with lifespans longer than Phase 2's length are discarded to
  remove sampling bias; blocks that outlive the margin are the *end
  surplus*.

Birth causes (Table 4): a block is born **by write** when materialized
by a write at or before the old EOF boundary, and **by extension**
when a write follows an lseek past the end-of-file — in which case
*all* newly created blocks (explicitly written or gap) count as
extensions, reproducing the paper's noted mild exaggeration — or when
a setattr grows the file.

Death causes: **overwrite** (a live block is written again — including
the in-place create-truncate of an existing file's blocks being
recycled by later writes), **truncate** (setattr shrinks the file or a
non-exclusive CREATE truncates an existing file), and **file deletion**
(REMOVE, or a RENAME that displaces an existing target).  REMOVE calls
carry only (directory, name), so the analyzer resolves victims through
a :class:`~repro.analysis.hierarchy.HierarchyReconstructor`: its own,
or one it shares with other analyses of the same stream.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.hierarchy import HierarchyReconstructor
from repro.analysis.pairing import PairedOp
from repro.fs.blockmap import block_count, block_of, block_range
from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc

BIRTH_WRITE = "write"
BIRTH_EXTENSION = "extension"
DEATH_OVERWRITE = "overwrite"
DEATH_TRUNCATE = "truncate"
DEATH_DELETE = "delete"

_OK = NfsStatus.OK
_READ, _WRITE, _SETATTR = NfsProc.READ, NfsProc.WRITE, NfsProc.SETATTR
_CREATE, _RENAME = NfsProc.CREATE, NfsProc.RENAME
_REMOVE, _RMDIR = NfsProc.REMOVE, NfsProc.RMDIR


@dataclass
class LifetimeReport:
    """The Table 4 / Figure 3 numbers for one analysis window."""

    total_births: int
    births_by_cause: dict[str, int]
    total_deaths: int
    deaths_by_cause: dict[str, int]
    lifetimes: list[float]  # sorted, one entry per counted death
    end_surplus: int
    phase2_seconds: float

    def birth_fraction(self, cause: str) -> float:
        """Share of births with ``cause`` (0..1)."""
        if self.total_births == 0:
            return 0.0
        return self.births_by_cause.get(cause, 0) / self.total_births

    def death_fraction(self, cause: str) -> float:
        """Share of deaths with ``cause`` (0..1)."""
        if self.total_deaths == 0:
            return 0.0
        return self.deaths_by_cause.get(cause, 0) / self.total_deaths

    @property
    def end_surplus_fraction(self) -> float:
        """Share of Phase-1 births that outlived the end margin."""
        if self.total_births == 0:
            return 0.0
        return self.end_surplus / self.total_births

    def lifetime_cdf(self, points: Iterable[float]) -> list[tuple[float, float]]:
        """Cumulative % of deaths with lifetime <= each point (Fig 3)."""
        out = []
        n = len(self.lifetimes)
        for point in points:
            if n == 0:
                out.append((point, 0.0))
            else:
                idx = bisect.bisect_right(self.lifetimes, point)
                out.append((point, 100.0 * idx / n))
        return out

    def median_lifetime(self) -> float | None:
        """Median observed lifetime, None when nothing died."""
        if not self.lifetimes:
            return None
        return self.lifetimes[len(self.lifetimes) // 2]

    def fraction_dead_within(self, seconds: float) -> float:
        """Share of counted deaths with lifetime <= ``seconds``."""
        if not self.lifetimes:
            return 0.0
        return bisect.bisect_right(self.lifetimes, seconds) / len(self.lifetimes)


@dataclass
class _FileState:
    size: int
    #: birth time per live tracked block (blocks seen born in-trace)
    births: dict[int, float] = field(default_factory=dict)


class BlockLifetimeAnalyzer:
    """Streams paired ops and accounts block births and deaths.

    Args:
        phase1_start / phase1_end: the birth-recording window.
        phase2_end: end of the deaths-only end margin.  The paper used
            24-hour phases starting at 9am.
        hierarchy: a namespace to resolve victims through, shared with
            other analyses; default, a private one.  A sharing caller
            feeds :meth:`fold` and updates the namespace itself after
            it.  Ops past ``phase2_end`` are skipped whole, namespace
            update included, so share only when they all come after
            every other op, and fold none of them.
    """

    def __init__(
        self,
        phase1_start: float,
        phase1_end: float,
        phase2_end: float,
        *,
        hierarchy: HierarchyReconstructor | None = None,
    ) -> None:
        if not (phase1_start < phase1_end <= phase2_end):
            raise ValueError(
                f"phases must be ordered: {phase1_start}, {phase1_end}, {phase2_end}"
            )
        self.phase1_start = phase1_start
        self.phase1_end = phase1_end
        self.phase2_end = phase2_end
        self.hierarchy = (
            hierarchy if hierarchy is not None else HierarchyReconstructor()
        )
        self._files: dict[str, _FileState] = {}
        self._births_by_cause: Counter[str] = Counter()
        self._total_births = 0
        self._deaths: list[tuple[float, str]] = []  # (lifetime, cause)
        self.ops_skipped = 0

    # -- streaming ---------------------------------------------------------------

    def observe(self, op: PairedOp) -> None:
        """Feed one paired op (any procedure; in wire-time order)."""
        if op.time > self.phase2_end:
            return
        self.fold(op)
        # hierarchy updates must come after victim resolution
        self.hierarchy.observe(op)

    def fold(self, op: PairedOp) -> None:
        """One op's births and deaths, without the namespace update.

        Victims resolve through :attr:`hierarchy` as it stands, so a
        caller sharing that namespace updates it after this call.  Ops
        past ``phase2_end`` must not reach it (:meth:`observe` drops
        them).
        """
        if op.status is not _OK:
            return
        proc = op.proc
        if proc is _WRITE:
            self._observe_write(op)
        elif proc is _SETATTR and op.size is not None:
            self._observe_truncate(op)
        elif proc is _CREATE:
            self._observe_create(op)
        elif proc is _REMOVE or proc is _RMDIR:
            self._observe_remove(op)
        elif proc is _RENAME:
            self._observe_rename(op)
        else:
            # any other reply's attributes may reveal a file's size
            post_size = op.post_size
            target = op.reply_fh or op.fh
            if target is None or post_size is None:
                return
            state = self._files.get(target)
            if state is None:
                self._files[target] = _FileState(post_size)
            elif proc is not _READ and post_size > state.size:
                # reads don't change size; other attrs reflect server truth
                state.size = post_size

    def observe_all(self, ops: Iterable[PairedOp]) -> "BlockLifetimeAnalyzer":
        """Feed a whole stream; returns self for chaining."""
        for op in ops:
            self.observe(op)
        return self

    # -- results -------------------------------------------------------------------

    def report(self) -> LifetimeReport:
        """Finalize: apply the end-margin filter and count the surplus."""
        phase2_len = self.phase2_end - self.phase1_end
        lifetimes: list[float] = []
        deaths_by_cause: Counter[str] = Counter()
        overlong = 0
        for lifetime, cause in self._deaths:
            if lifetime > phase2_len:
                overlong += 1
                continue
            lifetimes.append(lifetime)
            deaths_by_cause[cause] += 1
        alive = sum(
            1
            for state in self._files.values()
            for birth in state.births.values()
            if self.phase1_start <= birth < self.phase1_end
        )
        lifetimes.sort()
        return LifetimeReport(
            total_births=self._total_births,
            births_by_cause=dict(self._births_by_cause),
            total_deaths=len(lifetimes),
            deaths_by_cause=dict(deaths_by_cause),
            lifetimes=lifetimes,
            end_surplus=alive + overlong,
            phase2_seconds=phase2_len,
        )

    # -- event mechanics ----------------------------------------------------------

    def _in_phase1(self, t: float) -> bool:
        return self.phase1_start <= t < self.phase1_end

    def _state(self, op: PairedOp) -> _FileState | None:
        """The file state a WRITE or SETATTR mutates, or None to skip it."""
        fh = op.fh
        if fh is None:
            return None
        state = self._files.get(fh)
        if state is None:
            known = self.hierarchy.lookup(fh)
            if known is None or known.last_size is None:
                # first sight of this file is a mutation: its prior
                # size is unknowable, so skip the op (counted)
                self.ops_skipped += 1
                self._files[fh] = _FileState(op.post_size or 0)
                return None
            state = _FileState(known.last_size)
            self._files[fh] = state
        return state

    def _birth(self, state: _FileState, block: int, t: float, cause: str) -> None:
        state.births[block] = t
        if self.phase1_start <= t < self.phase1_end:
            self._total_births += 1
            self._births_by_cause[cause] += 1

    def _death(self, state: _FileState, block: int, t: float, cause: str) -> None:
        birth = state.births.pop(block, None)
        if birth is None:
            return  # pre-existing block: create-based method ignores it
        if self.phase1_start <= birth < self.phase1_end:
            self._deaths.append((t - birth, cause))

    def _observe_write(self, op: PairedOp) -> None:
        state = self._state(op)
        offset, count = op.offset, op.count
        if state is None or offset is None or count is None or count == 0:
            return
        t = op.time
        birth, death = self._birth, self._death
        pre_size = state.size
        old_blocks = block_count(pre_size)
        lseek_past_eof = offset > pre_size
        # gap blocks between the old EOF and the write: extensions
        if lseek_past_eof:
            for block in range(old_blocks, block_of(offset)):
                birth(state, block, t, BIRTH_EXTENSION)
        tail_cause = BIRTH_EXTENSION if lseek_past_eof else BIRTH_WRITE
        for block in block_range(offset, count):
            if block < old_blocks:
                death(state, block, t, DEATH_OVERWRITE)
                birth(state, block, t, BIRTH_WRITE)
            else:
                birth(state, block, t, tail_cause)
        state.size = max(pre_size, offset + count)
        if op.post_size is not None:
            state.size = max(state.size, op.post_size)

    def _observe_truncate(self, op: PairedOp) -> None:
        state = self._state(op)
        if state is None or op.size is None:
            return
        self._apply_resize(state, op.size, op.time)

    def _apply_resize(self, state: _FileState, new_size: int, t: float) -> None:
        old_blocks = block_count(state.size)
        new_blocks = block_count(new_size)
        if new_blocks < old_blocks:
            for block in range(new_blocks, old_blocks):
                self._death(state, block, t, DEATH_TRUNCATE)
        elif new_blocks > old_blocks:
            for block in range(old_blocks, new_blocks):
                self._birth(state, block, t, BIRTH_EXTENSION)
        state.size = new_size

    def _observe_create(self, op: PairedOp) -> None:
        if op.reply_fh is None:
            return
        state = self._files.get(op.reply_fh)
        if state is not None and state.size > 0:
            # non-exclusive create of an existing file truncates it
            self._apply_resize(state, 0, op.time)
        elif state is None:
            self._files[op.reply_fh] = _FileState(size=0)

    def _kill_file(self, fh: str, t: float) -> None:
        state = self._files.pop(fh, None)
        if state is None:
            return
        for block in list(state.births):
            self._death(state, block, t, DEATH_DELETE)

    def _observe_remove(self, op: PairedOp) -> None:
        if op.fh is None or op.name is None:
            return
        victim = self.hierarchy.child(op.fh, op.name)
        if victim is not None:
            self._kill_file(victim, op.time)

    def _observe_rename(self, op: PairedOp) -> None:
        if op.fh is None or op.name is None:
            return
        target_dir = op.target_fh or op.fh
        target_name = op.target_name or op.name
        moved = self.hierarchy.child(op.fh, op.name)
        displaced = self.hierarchy.child(target_dir, target_name)
        if displaced is not None and displaced != moved:
            self._kill_file(displaced, op.time)
