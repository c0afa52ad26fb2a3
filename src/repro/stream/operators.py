"""Bounded-memory one-pass stream operators.

Every operator in this module processes an unbounded input stream in a
single pass with memory fixed at construction time — the property that
lets :mod:`repro.stream.engine` analyze traces far larger than RAM and
observe a simulation while it runs.  The catalogue (memory bound in
parentheses, details in ``docs/STREAMING.md``):

* :class:`SpaceSaving` — heavy hitters / top-K counts with the
  space-saving guarantee (O(capacity));
* :class:`ReservoirSample` — uniform sample of the stream (O(capacity));
* :class:`P2Quantile` — the P² single-quantile estimator of Jain &
  Chlamtac (O(1): five markers);
* :class:`RunningStats` — count/min/max/mean/variance via Welford
  (O(1));
* :class:`TumblingWindow` / :class:`SlidingWindow` — time-window
  aggregation with watermark-driven flushing (O(open windows));
* :class:`ExpDecayRate` — exponentially-decayed event rate (O(1)).

Exactness: :class:`RunningStats`, window aggregators, and
:class:`ReservoirSample` membership are exact; :class:`SpaceSaving`
counts carry a per-item overestimate bounded by the smallest tracked
count; :class:`P2Quantile` is an approximation whose markers never
leave the observed [min, max] envelope.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from random import Random
from typing import Any, Callable, Iterable

from repro.errors import StreamMemoryError

LN2 = math.log(2.0)


class SpaceSaving:
    """Streaming top-K counter (Metwally's space-saving algorithm).

    Tracks at most ``capacity`` items.  A new item arriving while full
    evicts the item with the smallest count and inherits that count as
    its *error* bound: every reported count overestimates the true
    count by at most the reported error, and any item whose true count
    exceeds the smallest tracked count is guaranteed to be present.

    The victim is the least ``(count, item)``, found through a min-heap
    that holds one ``(count, item)`` entry per tracked item.  An
    increment leaves the item's entry as it is, a lower bound of its
    count; an eviction refreshes a stale top (re-pushes it with its
    count) until the top is current, and that top is the least.  A
    decrease pushes a new entry, keeping every item's least entry at or
    below its count; entries left by an evicted item are skipped, and
    the heap is compacted when it outgrows 4x the capacity.
    """

    __slots__ = ("capacity", "_counts", "_heap")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("SpaceSaving capacity must be >= 1")
        self.capacity = capacity
        #: item -> [count, error]
        self._counts: dict[Any, list] = {}
        #: min-heap of (count, item): one entry per tracked item, at or
        #: below its count, plus what decreases pushed
        self._heap: list[tuple[float, Any]] = []

    def add(self, item: Any, weight: float = 1) -> None:
        """Count one occurrence (or ``weight`` of them) of ``item``."""
        entry = self._counts.get(item)
        if entry is not None:
            entry[0] += weight
            if weight >= 0:
                return
            heapq.heappush(self._heap, (entry[0], item))
        elif len(self._counts) < self.capacity:
            self._counts[item] = [weight, 0]
            heapq.heappush(self._heap, (weight, item))
        else:
            count, victim = self._least()
            del self._counts[victim]
            self._counts[item] = [count + weight, count]
            heapq.heapreplace(self._heap, (count + weight, item))
            return
        if len(self._heap) > 4 * self.capacity:
            self._compact()

    def _least(self) -> tuple[float, Any]:
        """The least tracked ``(count, item)``, left on top of the heap.

        Entries of untracked items are dropped and stale ones refreshed
        until the top entry is current; every other tracked item has an
        entry at or below its count, so the top is the least.
        """
        heap, counts = self._heap, self._counts
        while True:
            count, item = heap[0]
            entry = counts.get(item)
            if entry is None:
                heapq.heappop(heap)
            elif entry[0] > count:
                heapq.heapreplace(heap, (entry[0], item))
            else:
                return count, item

    def _compact(self) -> None:
        self._heap = [(entry[0], item) for item, entry in self._counts.items()]
        heapq.heapify(self._heap)

    def top(self, k: int) -> list[tuple[Any, float, float]]:
        """The ``k`` largest (item, count, error) triples, count-desc."""
        ranked = sorted(
            self._counts.items(), key=lambda kv: kv[1][0], reverse=True
        )
        return [(item, entry[0], entry[1]) for item, entry in ranked[:k]]

    def count(self, item: Any) -> float:
        """The tracked (over-)count of ``item``, 0 if untracked."""
        entry = self._counts.get(item)
        return entry[0] if entry is not None else 0

    def __contains__(self, item: Any) -> bool:
        return item in self._counts

    def __len__(self) -> int:
        return len(self._counts)


class ReservoirSample:
    """Uniform random sample of a stream (Vitter's algorithm R).

    Holds at most ``capacity`` items; after ``n`` observations each has
    probability ``capacity / n`` of being in the sample.  Sampling is
    deterministic for a given ``seed``.
    """

    __slots__ = ("capacity", "seen", "_sample", "_rng")

    def __init__(self, capacity: int, *, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("ReservoirSample capacity must be >= 1")
        self.capacity = capacity
        self.seen = 0
        self._sample: list[Any] = []
        self._rng = Random(seed)

    def add(self, item: Any) -> None:
        """Offer one item to the reservoir."""
        self.seen += 1
        if len(self._sample) < self.capacity:
            self._sample.append(item)
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.capacity:
            self._sample[slot] = item

    def sample(self) -> list[Any]:
        """The current sample (a copy, at most ``capacity`` items)."""
        return list(self._sample)

    def __len__(self) -> int:
        return len(self._sample)


class P2Quantile:
    """The P² (piecewise-parabolic) single-quantile estimator.

    Estimates the ``p`` quantile of a stream with five markers and no
    stored samples (Jain & Chlamtac, CACM 1985).  The first five
    observations are exact; afterwards marker heights are adjusted by
    parabolic (fallback linear) interpolation.  The estimate always
    lies within the observed [min, max] envelope.
    """

    __slots__ = ("p", "count", "_q", "_n", "_np", "_dn")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        self.count = 0
        self._q: list[float] = []  # marker heights
        self._n = [0, 1, 2, 3, 4]  # marker positions
        self._np = [0.0, 2 * p, 4 * p, 2 + 2 * p, 4.0]  # desired positions
        self._dn = [0.0, p / 2, p, (1 + p) / 2, 1.0]

    def add(self, x: float) -> None:
        """Observe one value.

        The textbook loop over markers 1–3, unrolled over locals: each
        marker i moves by d = ±1 when its desired position is a step
        away and its neighbour is not, to the parabolic prediction

            q[i] + d / (n[i+1] - n[i-1]) * (
                (n[i] - n[i-1] + d) * (q[i+1] - q[i]) / (n[i+1] - n[i])
                + (n[i+1] - n[i] - d) * (q[i] - q[i-1]) / (n[i] - n[i-1]))

        or, when that leaves (q[i-1], q[i+1]), the linear one
        ``q[i] + d * (q[i+d] - q[i]) / (n[i+d] - n[i])``.  The float
        operations and their order are the loop's, so the markers are
        bit-identical to it.  ``n[0]`` and ``np[0]`` never move.
        """
        self.count += 1
        q = self._q
        if self.count <= 5:
            insort(q, x)
            return
        n = self._n
        np_ = self._np
        dn = self._dn
        q0, q1, q2, q3, q4 = q
        n0, n1, n2, n3, n4 = n
        # the cell of x: every marker above it moves up one position
        if x < q0:
            q[0] = q0 = x
            n1 += 1
            n2 += 1
            n3 += 1
        elif x >= q4:
            q[4] = q4 = x
        elif x >= q1:
            if x >= q2:
                if not x >= q3:
                    n3 += 1
            else:
                n2 += 1
                n3 += 1
        else:
            n1 += 1
            n2 += 1
            n3 += 1
        n4 += 1
        p1 = np_[1] = np_[1] + dn[1]
        p2 = np_[2] = np_[2] + dn[2]
        p3 = np_[3] = np_[3] + dn[3]
        np_[4] += dn[4]
        d = p1 - n1
        if (d >= 1 and n2 - n1 > 1) or (d <= -1 and n0 - n1 < -1):
            d = 1 if d > 0 else -1
            c = q1 + d / (n2 - n0) * (
                (n1 - n0 + d) * (q2 - q1) / (n2 - n1)
                + (n2 - n1 - d) * (q1 - q0) / (n1 - n0)
            )
            if not q0 < c < q2:
                if d > 0:
                    c = q1 + d * (q2 - q1) / (n2 - n1)
                else:
                    c = q1 + d * (q0 - q1) / (n0 - n1)
            q[1] = q1 = c
            n1 += d
        d = p2 - n2
        if (d >= 1 and n3 - n2 > 1) or (d <= -1 and n1 - n2 < -1):
            d = 1 if d > 0 else -1
            c = q2 + d / (n3 - n1) * (
                (n2 - n1 + d) * (q3 - q2) / (n3 - n2)
                + (n3 - n2 - d) * (q2 - q1) / (n2 - n1)
            )
            if not q1 < c < q3:
                if d > 0:
                    c = q2 + d * (q3 - q2) / (n3 - n2)
                else:
                    c = q2 + d * (q1 - q2) / (n1 - n2)
            q[2] = q2 = c
            n2 += d
        d = p3 - n3
        if (d >= 1 and n4 - n3 > 1) or (d <= -1 and n2 - n3 < -1):
            d = 1 if d > 0 else -1
            c = q3 + d / (n4 - n2) * (
                (n3 - n2 + d) * (q4 - q3) / (n4 - n3)
                + (n4 - n3 - d) * (q3 - q2) / (n3 - n2)
            )
            if not q2 < c < q4:
                if d > 0:
                    c = q3 + d * (q4 - q3) / (n4 - n3)
                else:
                    c = q3 + d * (q2 - q3) / (n2 - n3)
            q[3] = c
            n3 += d
        n[1] = n1
        n[2] = n2
        n[3] = n3
        n[4] = n4

    def value(self) -> float | None:
        """The current quantile estimate (None before any data).

        Exact (an order statistic of everything seen) for the first
        five observations; the P² approximation afterwards.
        """
        if self.count == 0:
            return None
        if self.count <= 5:
            index = min(len(self._q) - 1, int(self.p * len(self._q)))
            return self._q[index]
        return self._q[2]


class RunningStats:
    """Count, min, max, mean, and variance in O(1) memory (Welford)."""

    __slots__ = ("count", "total", "minimum", "maximum", "_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, x: float) -> None:
        """Observe one value."""
        self.count += 1
        self.total += x
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance (0.0 with fewer than two values)."""
        return self._m2 / self.count if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)


class TumblingWindow:
    """Non-overlapping time windows with watermark-driven flushing.

    Events are routed to the window ``[origin + i*width, origin +
    (i+1)*width)`` containing their timestamp; ``factory(start, end)``
    builds each window's accumulator, which must expose ``add(*args)``.
    :meth:`advance` flushes every window whose end (plus the allowed
    ``lateness``) has passed the watermark, calling ``sink(start, end,
    accumulator)`` in window order.  Events for an already-flushed
    window are dropped and counted in ``late_drops`` (:meth:`add`
    returns False for them).  Memory is bounded by ``max_open``
    concurrently open windows (exceeding it raises
    :class:`~repro.errors.StreamMemoryError`).
    """

    def __init__(
        self,
        width: float,
        factory: Callable[[float, float], Any],
        *,
        sink: Callable[[float, float, Any], None] | None = None,
        origin: float = 0.0,
        lateness: float = 0.0,
        max_open: int = 1024,
    ) -> None:
        if width <= 0:
            raise ValueError("window width must be positive")
        self.width = width
        self.factory = factory
        self.sink = sink
        self.origin = origin
        self.lateness = lateness
        self.max_open = max_open
        self.late_drops = 0
        self.windows_flushed = 0
        self._open: dict[int, Any] = {}
        self._flushed_below: int | None = None  # indices < this are gone

    def _index(self, t: float) -> int:
        return int((t - self.origin) // self.width)

    def bounds(self, index: int) -> tuple[float, float]:
        """The [start, end) bounds of window ``index``."""
        start = self.origin + index * self.width
        return start, start + self.width

    def add(self, t: float, *args) -> bool:
        """Route one event at time ``t`` to its window; False when the
        window was already flushed and the event is dropped as late."""
        index = self._index(t)
        if self._flushed_below is not None and index < self._flushed_below:
            self.late_drops += 1
            return False
        acc = self._open.get(index)
        if acc is None:
            if len(self._open) >= self.max_open:
                raise StreamMemoryError(
                    f"tumbling window: more than {self.max_open} windows "
                    "open; raise max_open or advance the watermark"
                )
            acc = self.factory(*self.bounds(index))
            self._open[index] = acc
        acc.add(*args)
        return True

    def advance(self, watermark: float) -> None:
        """Flush every window closed as of ``watermark``."""
        if not self._open:
            return
        horizon = self._index(watermark - self.lateness)
        ripe = sorted(i for i in self._open if i < horizon)
        for index in ripe:
            self._flush(index)
        if ripe:
            limit = ripe[-1] + 1
            if self._flushed_below is None or limit > self._flushed_below:
                self._flushed_below = limit

    def finish(self) -> None:
        """Flush every still-open window (end of stream)."""
        for index in sorted(self._open):
            self._flush(index)

    def pending(self) -> list[Any]:
        """The open windows' accumulators, in window order."""
        return [self._open[index] for index in sorted(self._open)]

    def _flush(self, index: int) -> None:
        acc = self._open.pop(index)
        self.windows_flushed += 1
        if self.sink is not None:
            start, end = self.bounds(index)
            self.sink(start, end, acc)

    def __len__(self) -> int:
        return len(self._open)


class SlidingWindow:
    """Overlapping time windows: one starts every ``slide`` seconds.

    Each window spans ``width`` seconds, so every event lands in
    ``ceil(width / slide)`` windows.  Flushing and accumulator
    semantics match :class:`TumblingWindow`; memory is bounded by
    ``max_open`` (overlap factor times the open span).
    """

    def __init__(
        self,
        width: float,
        slide: float,
        factory: Callable[[float, float], Any],
        *,
        sink: Callable[[float, float, Any], None] | None = None,
        origin: float = 0.0,
        lateness: float = 0.0,
        max_open: int = 4096,
    ) -> None:
        if width <= 0 or slide <= 0:
            raise ValueError("window width and slide must be positive")
        if slide > width:
            raise ValueError("slide must not exceed width (gaps would drop events)")
        self.width = width
        self.slide = slide
        self.factory = factory
        self.sink = sink
        self.origin = origin
        self.lateness = lateness
        self.max_open = max_open
        self.late_drops = 0
        self.windows_flushed = 0
        self._open: dict[int, Any] = {}
        self._flushed_below: int | None = None

    def bounds(self, index: int) -> tuple[float, float]:
        """The [start, end) bounds of window ``index``."""
        start = self.origin + index * self.slide
        return start, start + self.width

    def _span(self, t: float) -> range:
        last = int((t - self.origin) // self.slide)
        first = int(math.floor((t - self.origin - self.width) / self.slide)) + 1
        return range(first, last + 1)

    def add(self, t: float, *args) -> None:
        """Route one event at time ``t`` to every window covering it."""
        for index in self._span(t):
            start, end = self.bounds(index)
            if not start <= t < end:
                continue
            if self._flushed_below is not None and index < self._flushed_below:
                self.late_drops += 1
                continue
            acc = self._open.get(index)
            if acc is None:
                if len(self._open) >= self.max_open:
                    raise StreamMemoryError(
                        f"sliding window: more than {self.max_open} windows open"
                    )
                acc = self.factory(start, end)
                self._open[index] = acc
            acc.add(*args)

    def advance(self, watermark: float) -> None:
        """Flush every window closed as of ``watermark``."""
        ripe = sorted(
            i
            for i in self._open
            if self.bounds(i)[1] + self.lateness <= watermark
        )
        for index in ripe:
            self._flush(index)
        if ripe:
            limit = ripe[-1] + 1
            if self._flushed_below is None or limit > self._flushed_below:
                self._flushed_below = limit

    def finish(self) -> None:
        """Flush every still-open window (end of stream)."""
        for index in sorted(self._open):
            self._flush(index)

    def _flush(self, index: int) -> None:
        acc = self._open.pop(index)
        self.windows_flushed += 1
        if self.sink is not None:
            start, end = self.bounds(index)
            self.sink(start, end, acc)

    def __len__(self) -> int:
        return len(self._open)


class ExpDecayRate:
    """Exponentially-decayed event rate (events per second).

    ``observe(t, amount)`` adds weight that thereafter halves every
    ``halflife`` seconds; :meth:`rate` converts the decayed mass into
    an events-per-second estimate.  Equivalent to an EWMA whose window
    is set by the half-life; O(1) memory, any time unit.
    """

    __slots__ = ("halflife", "_mass", "_last")

    def __init__(self, halflife: float) -> None:
        if halflife <= 0:
            raise ValueError("halflife must be positive")
        self.halflife = halflife
        self._mass = 0.0
        self._last: float | None = None

    def _decay_to(self, t: float) -> None:
        if self._last is None:
            self._last = t
            return
        if t > self._last:
            self._mass *= 2.0 ** (-(t - self._last) / self.halflife)
            self._last = t

    def observe(self, t: float, amount: float = 1.0) -> None:
        """Record ``amount`` events at time ``t``."""
        self._decay_to(t)
        self._mass += amount

    def rate(self, t: float | None = None) -> float:
        """Decayed events/second as of ``t`` (default: last update)."""
        if self._last is None:
            return 0.0
        if t is not None:
            self._decay_to(t)
        return self._mass * LN2 / self.halflife


def fold_stream(items: Iterable, *operators) -> tuple:
    """Feed every item to every operator's ``add``; returns operators.

    Convenience for one-liners in tests and notebooks::

        top, p50 = fold_stream(values, SpaceSaving(8), P2Quantile(0.5))
    """
    for item in items:
        for operator in operators:
            operator.add(item)
    return operators
