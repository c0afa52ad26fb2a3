"""Wall-clock phase timers.

A :class:`PhaseTimer` accumulates real (host) seconds per named phase —
"simulate", "pair", "analyze" — so benchmarks and the CLI can report
where a run actually spent its time.  Phases may repeat; durations
accumulate and entries count.  These are the only deliberately
non-deterministic numbers in the observability layer, which is why they
live apart from the metrics registry.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class PhaseTimer:
    """Accumulating wall-clock timer keyed by phase name."""

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self.seconds: dict[str, float] = {}
        self.entries: dict[str, int] = {}
        self._order: list[str] = []

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one entry of ``name`` (nesting different names is fine)."""
        start = self._clock()
        try:
            yield
        finally:
            self.add(name, self._clock() - start)

    def add(self, name: str, seconds: float) -> None:
        """Record ``seconds`` against ``name`` directly."""
        if name not in self.seconds:
            self.seconds[name] = 0.0
            self.entries[name] = 0
            self._order.append(name)
        self.seconds[name] += seconds
        self.entries[name] += 1

    @property
    def total(self) -> float:
        """Sum of all phase durations."""
        return sum(self.seconds.values())

    def as_dict(self) -> dict:
        """Phases in first-entered order, JSON-ready."""
        return {
            "phases": [
                {
                    "name": name,
                    "seconds": round(self.seconds[name], 6),
                    "entries": self.entries[name],
                }
                for name in self._order
            ],
            "total_seconds": round(self.total, 6),
        }
