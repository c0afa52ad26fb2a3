"""Live observation of a running simulation (``repro watch``, ``monitor``).

:class:`LiveWatch` makes a :class:`~repro.stream.engine.StreamEngine`
(and optionally a trace writer) the sinks of a
:class:`~repro.trace.collector.TraceCollector`, which releases the
capture in wire order, and schedules periodic snapshot renders on the
simulation's own event loop, so the analyses see the written trace's
record stream in lock-step with simulated time.  Nothing accumulates:
the simulation can run for arbitrarily many simulated days in bounded
memory while the watcher narrates totals, decayed load, hot files,
and latency quantiles as they evolve.
"""

from __future__ import annotations

import sys
from typing import IO

from repro.obs.promtext import to_prom_text
from repro.simcore.clock import SECONDS_PER_DAY
from repro.stream.engine import StreamEngine


class LiveWatch:
    """Attaches an engine to a simulation and renders periodic snapshots.

    Args:
        system: a :class:`~repro.workloads.TracedSystem` (anything with
            ``collector``, ``loop``, and ``clock``).
        engine: the engine whose analyses should see the live records.
        interval: simulated seconds between snapshots.
        start_time: when the first snapshot interval begins — the
            measurement start, before which the collector releases
            nothing.
        stream: where snapshot text goes (default stderr, keeping
            stdout clean for final tables).
        writer: optional trace writer (anything with ``write(record)``)
            receiving the same released stream as the engine.
        server: optional :class:`~repro.stream.monitor.MonitorServer`;
            every snapshot publishes ``/metrics`` and ``/spans`` to it.
    """

    def __init__(
        self,
        system,
        engine: StreamEngine,
        *,
        interval: float,
        start_time: float = 0.0,
        stream: IO[str] | None = None,
        writer=None,
        server=None,
    ) -> None:
        if interval <= 0:
            raise ValueError("watch interval must be positive")
        self.system = system
        self.engine = engine
        self.interval = interval
        self.start_time = start_time
        self.stream = stream if stream is not None else sys.stderr
        self.server = server
        self.snapshots_rendered = 0
        self._end: float | None = None
        self._rendered_records = 0
        self._m_snapshots = engine.metrics.counter("stream.snapshots")
        sinks = [engine.feed]
        if writer is not None:
            sinks.append(writer.write)
        system.collector.sinks = sinks

    def start(self, end: float) -> None:
        """Schedule snapshot ticks up to simulated time ``end``."""
        self._end = end
        first = self.start_time + self.interval
        if first <= end:
            self.system.loop.schedule(first, self._tick)

    def _tick(self) -> None:
        self.render()
        now = self.system.clock.now
        if self._end is not None and now + self.interval <= self._end:
            self.system.loop.schedule_in(self.interval, self._tick)

    def finish(self) -> dict:
        """Flush the capture and close the engine; returns its results.

        Records that arrived after the last scheduled tick still get a
        snapshot: the final partial interval renders here, so a run
        whose end falls between ticks never silently drops its tail.
        """
        self.system.collector.flush()
        results = self.engine.finish()
        if self.engine.records > self._rendered_records:
            self.render()
        self.publish()
        return results

    # -- rendering -------------------------------------------------------------

    def render(self) -> None:
        """Render one snapshot now (also driven by the tick schedule)."""
        self.snapshots_rendered += 1
        self._m_snapshots.inc()
        self._rendered_records = self.engine.records
        print(self.render_text(), file=self.stream)
        self.publish()

    def publish(self) -> None:
        """Push the current metrics and span tail to the server."""
        if self.server is None:
            return
        self.server.publish("/metrics", to_prom_text(self.system.metrics))
        spans = getattr(self.system, "spans", None)
        if spans is not None and spans.tail is not None:
            self.server.publish("/spans", spans.tail_text())

    def render_text(self) -> str:
        """The current snapshot as a small block of text."""
        engine = self.engine
        lines = [
            f"[watch] sim {self.system.clock.now / SECONDS_PER_DAY:6.3f}d  "
            f"records {engine.records:>9,}  ops {engine.ops:>9,}  "
            f"outstanding {len(engine.pairer)}  "
            f"state {engine.state_items():,} items"
        ]
        summary = engine.analysis("summary")
        if summary is not None:
            totals = summary.totals
            lines.append(
                f"  totals: {totals.read_ops:,} reads / "
                f"{totals.write_ops:,} writes, "
                f"{totals.bytes_read / 1e9:.3f} GB read, "
                f"{totals.bytes_written / 1e9:.3f} GB written"
            )
        rates = engine.analysis("rates")
        if rates is not None:
            lines.append(
                f"  load: {rates.ops_per_second():,.1f} ops/s, "
                f"{rates.bytes_per_second() / 1e6:.3f} MB/s "
                f"({rates.halflife:g}s half-life)"
            )
        latency = engine.analysis("latency")
        if latency is not None and latency.stats.count:
            p50 = latency.quantile(0.5)
            p99 = latency.quantile(0.99)
            lines.append(
                f"  latency: p50 {p50 * 1000:.2f} ms, "
                f"p99 {p99 * 1000:.2f} ms over {latency.stats.count:,} ops"
            )
        top = engine.analysis("top_files")
        if top is not None and len(top.by_ops):
            hot = ", ".join(
                f"{fh}({int(count)})"
                for fh, count, _err in top.by_ops.top(3)
            )
            lines.append(f"  hot files: {hot}")
        return "\n".join(lines)
