"""The reorder window (Section 4.2, Figure 1).

NFS calls reach the wire out of issue order (nfsiods, Section 4.1.5),
which makes naive run analysis see phantom randomness.  The paper's
fix: partially sort requests within a small temporal window.  Issue
order is recovered from RPC XIDs, which each client assigns in strictly
increasing order.

:class:`StreamReorderer` is the one implementation of the paper's
look-ahead swap pass; ``reorder_window_sort`` runs a list through it.
``swapped_fraction`` measures the percentage of accesses the sort
moved, which regenerated over a range of window sizes is Figure 1.
The knee of that curve picks the per-system window (the paper chose
5 ms for EECS, 10 ms for CAMPUS).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Sequence

from repro.analysis.pairing import PairedOp


class _ClientScan:
    """One client's ops not yet emitted (``pending``, arrival order),
    ops emitted but not yet merged (``ready``), and the head's scan:
    its horizon and lowest-XID candidate so far."""

    __slots__ = ("pending", "ready", "horizon", "best", "best_xid")

    def __init__(self) -> None:
        self.pending: list[PairedOp] = []
        self.ready: deque[PairedOp] = deque()
        self.horizon, self.best, self.best_xid = 0.0, 0, 0


class StreamReorderer:
    """The paper's look-ahead swap pass, one push at a time.

    Per client, each position takes the lowest-XID op among the head
    and the ops after it up to the first one past ``head.time +
    window`` (XIDs are only comparable within one client).  That scan
    stops at the *first* op past the horizon, so the moment one arrives
    the head's candidates are complete.  The scan is incremental: a
    push that completes nothing looks only at the new op.  After an
    emission the next head's scan restarts from the front, because
    input order need not be time order (the engine feeds ops in
    completion order), so a new head's horizon can be shorter.
    Per-client emissions are re-merged in the arrival interleaving.  A
    window of 0 passes ops through unchanged.  Memory is bounded by the
    ops inside one look-ahead window per client.
    """

    __slots__ = ("window", "sink", "_clients", "_order")

    def __init__(
        self, window: float, sink: Callable[[PairedOp], None]
    ) -> None:
        self.window = window
        self.sink = sink
        self._clients: dict[str, _ClientScan] = {}
        #: the client of every buffered op, in arrival order
        self._order: deque[str] = deque()

    def push(self, op: PairedOp) -> None:
        """Consume one op; emits any ops now decidable."""
        if self.window <= 0:
            self.sink(op)
            return
        client = op.client
        self._order.append(client)
        scan = self._clients.get(client)
        if scan is None:
            scan = self._clients[client] = _ClientScan()
        pending = scan.pending
        pending.append(op)
        if len(pending) == 1:
            scan.horizon, scan.best, scan.best_xid = op.time + self.window, 0, op.xid
        elif op.time <= scan.horizon:
            if op.xid < scan.best_xid:
                scan.best, scan.best_xid = len(pending) - 1, op.xid
        else:
            self._drain(scan, final=False)
            self._emit_merged()

    def close(self) -> None:
        """End of stream: every pending scan is complete; flush all."""
        for scan in self._clients.values():
            if scan.pending:
                self._drain(scan, final=True)
        self._emit_merged()

    def buffered(self) -> int:
        """Ops currently held back awaiting their horizon."""
        return len(self._order)

    def _drain(self, scan: _ClientScan, *, final: bool) -> None:
        # The head's scan is complete: emit its pick, then scan the next
        # head from the front until one runs off the buffered end, which
        # is only decidable once the stream has closed (``final``).
        pending = scan.pending
        ready = scan.ready
        window = self.window
        best = scan.best
        while True:
            ready.append(pending.pop(best))
            if not pending:
                return
            head = pending[0]
            horizon = head.time + window
            best, best_xid = 0, head.xid
            for i in range(1, len(pending)):
                candidate = pending[i]
                if candidate.time > horizon:
                    break
                if candidate.xid < best_xid:
                    best, best_xid = i, candidate.xid
            else:
                if not final:
                    scan.horizon, scan.best, scan.best_xid = horizon, best, best_xid
                    return

    def _emit_merged(self) -> None:
        order = self._order
        clients = self._clients
        sink = self.sink
        while order:
            ready = clients[order[0]].ready
            if not ready:
                return
            order.popleft()
            sink(ready.popleft())


def reorder_window_sort(
    ops: Iterable[PairedOp], window: float
) -> list[PairedOp]:
    """The ops re-sorted by one :class:`StreamReorderer` pass."""
    out: list[PairedOp] = []
    reorderer = StreamReorderer(window, out.append)
    push = reorderer.push
    for op in ops:
        push(op)
    reorderer.close()
    return out


def swapped_fraction(ops: Sequence[PairedOp], window: float) -> float:
    """Fraction of accesses moved by a window sort of size ``window``.

    This is the y-axis of Figure 1: it rises with the window size and
    plateaus past the knee where all nfsiod-induced inversions have
    been repaired.
    """
    ops = list(ops)
    if not ops:
        return 0.0
    resorted = reorder_window_sort(ops, window)
    moved = sum(1 for before, after in zip(ops, resorted) if before is not after)
    return moved / len(ops)


def swapped_fraction_curve(
    ops: Sequence[PairedOp], windows_ms: Iterable[float]
) -> list[tuple[float, float]]:
    """(window_ms, swapped_fraction) series over a window sweep."""
    ops = list(ops)
    return [(w, swapped_fraction(ops, w / 1000.0)) for w in windows_ms]


def find_knee(curve: Sequence[tuple[float, float]], *, gain_threshold: float = 0.1) -> float:
    """Pick the window at the knee of a swapped-fraction curve.

    The knee is the smallest window after which the remaining gain to
    the curve's plateau is below ``gain_threshold`` of the total rise.
    """
    if not curve:
        return 0.0
    plateau = curve[-1][1]
    base = curve[0][1]
    rise = plateau - base
    if rise <= 0:
        return curve[0][0]
    for window, value in curve:
        if (plateau - value) <= gain_threshold * rise:
            return window
    return curve[-1][0]
