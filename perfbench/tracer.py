"""Per-layer timing installed at the program's layer seams, from outside.

Nothing here edits the program: :func:`install` replaces functions and
methods at each layer seam (class and module attributes) with timing
wrappers before the CLI's ``main`` runs, inside the stage process.
Every layer keeps one in-memory accumulator; :meth:`Tracer.report`
hands them to the stage runner at the end.

A layer's *self* time is its inclusive time minus the time of the
wrapped calls nested inside it, so self times add up to the wall time
the wrappers cover.  Iterators (trace decoding, adapter parsing,
normalization, the shard merge) are timed per ``next()`` call, which
charges lazily pulled work to the layer that does it rather than to
its consumer.

Per-record seams are called hundreds of thousands of times, so the
wrappers' own cost would otherwise inflate the layers around them.  It
is measured once per process (:func:`_calibrate`) and taken out of
every span: the part inside a span from the span, the part around it
from the caller.  What the wrappers cost in total is reported as
``overhead_s``; the rest of a stage's wall is unattributed.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: fs methods the NFS server calls; the fs's internal helpers stay
#: inside them instead of paying a wrapper per nested call
FS_ENTRY_POINTS = (
    "getattr", "truncate", "lookup", "read", "write", "create", "mkdir",
    "symlink", "remove", "rmdir", "rename", "readdir",
)


class Tracer:
    """Self-time accumulators keyed by layer name."""

    def __init__(self) -> None:
        #: layer -> [self seconds, calls, iterator items]
        self.cells: dict[str, list] = {}
        #: child seconds of each open span, innermost last, above a
        #: root entry that absorbs top-level spans
        self.stack: list[float] = [0.0]
        #: pool-worker layer seconds, shipped back with each chunk result
        self.worker_s: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = defaultdict(float)
        self.systems: list = []
        #: per-span wrapper cost inside / around a call and a next()
        self.call_cost = (0.0, 0.0)
        self.next_cost = (0.0, 0.0)

    def cell(self, layer: str) -> list:
        cell = self.cells.get(layer)
        if cell is None:
            cell = self.cells[layer] = [0.0, 0, 0]
        return cell

    def timed(self, layer: str, fn):
        """``fn`` wrapped as a span of ``layer``."""
        cell = self.cell(layer)
        stack, clock = self.stack, time.perf_counter
        inside, around = self.call_cost

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += elapsed - stack.pop() - inside
                cell[1] += 1
                stack[-1] += elapsed + around

        return span

    def iterate(self, layer: str, iterable):
        """Re-yield ``iterable``, timing each ``next()`` as ``layer``."""
        cell = self.cell(layer)
        stack, clock = self.stack, time.perf_counter
        inside, around = self.next_cost
        iterator = iter(iterable)
        while True:
            stack.append(0.0)
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                cell[0] += elapsed - stack.pop() - inside
                stack[-1] += elapsed + around
            cell[2] += 1
            yield item

    def patch(self, owner, name: str, layer: str | None, after=None) -> None:
        """Replace ``owner.name`` by a span of ``layer`` (untimed when
        ``None``); ``after(args, result)`` observes each call.  The
        replacement keeps the original's name, so pool tasks still
        pickle by reference."""
        original = getattr(owner, name)
        wrapper = original if layer is None else self.timed(layer, original)
        if after is not None:
            inner = wrapper

            def wrapper(*args, **kwargs):
                result = inner(*args, **kwargs)
                after(args, result)
                return result

        setattr(owner, name, functools.update_wrapper(wrapper, original))

    def patch_iter(self, owner, name: str, layer: str) -> None:
        """Replace ``owner.name`` (returning an iterator) so the
        iterator it returns is timed as ``layer``."""
        original = getattr(owner, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.iterate(layer, original(*args, **kwargs))

        setattr(owner, name, wrapper)

    def report(self) -> dict:
        world: dict[str, float] = {}
        for system in self.systems:
            for key, value in sum_metrics(system.metrics.snapshot()).items():
                world[key] = world.get(key, 0.0) + value
        spans = sum(cell[1] for cell in self.cells.values())
        items = sum(cell[2] for cell in self.cells.values())
        return {
            "self_s": {k: c[0] for k, c in self.cells.items()},
            "calls": {k: c[1] for k, c in self.cells.items()},
            "items": {k: c[2] for k, c in self.cells.items()},
            "overhead_s": spans * sum(self.call_cost)
            + items * sum(self.next_cost),
            "worker_s": dict(self.worker_s),
            "values": dict(self.values),
            "world_metrics": world,
        }


def _calibrate(tracer: Tracer, rounds: int = 5, n: int = 20000) -> None:
    """Measure what one span costs inside and around the wrapped call.

    Best of ``rounds`` for each figure, so a preempted round does not
    count.  Inside = the span's measured time minus the bare call;
    around = the rest of the span's total extra cost.
    """

    def noop(a, b):
        return a

    def bare_calls():
        start = time.perf_counter()
        for i in range(n):
            noop(i, None)
        return time.perf_counter() - start

    def bare_items():
        start = time.perf_counter()
        for _ in iter(range(n)):
            pass
        return time.perf_counter() - start

    probe = Tracer()
    wrapped = probe.timed("probe", noop)

    def wrapped_calls():
        start = time.perf_counter()
        for i in range(n):
            wrapped(i, None)
        return time.perf_counter() - start

    def wrapped_items():
        start = time.perf_counter()
        for _ in probe.iterate("probe-iter", range(n)):
            pass
        return time.perf_counter() - start

    def cost(bare, traced, layer):
        best_bare = min(bare() for _ in range(rounds)) / n
        best_total = best_inside = float("inf")
        for _ in range(rounds):
            cell = probe.cell(layer)
            cell[0] = 0.0
            best_total = min(best_total, traced() / n - best_bare)
            best_inside = min(best_inside, cell[0] / n - best_bare)
        inside = max(0.0, best_inside)
        return inside, max(0.0, best_total - inside)

    tracer.call_cost = cost(bare_calls, wrapped_calls, "probe")
    tracer.next_cost = cost(bare_items, wrapped_items, "probe-iter")


def sum_metrics(snapshot: dict) -> dict[str, float]:
    """A metrics snapshot summed over labels: ``{name: total}``.

    Counters count, gauges give their value and histograms their sum,
    the shapes ``MetricsRegistry.snapshot`` and ``--metrics-out`` JSON
    use.
    """
    totals: dict[str, float] = {}
    for key, value in snapshot.items():
        name = key.split("{", 1)[0]
        if isinstance(value, dict):
            value = value.get("sum", value.get("value", 0.0))
        if isinstance(value, (int, float)):
            totals[name] = totals.get(name, 0.0) + value
    return totals


def install(command: str) -> Tracer:
    """Wrap every layer seam a ``repro <command>`` run can reach."""
    import repro.analysis.parallel as par
    import repro.ingest as ingest_pkg
    import repro.ingest.core as ingest_core
    import repro.stream.analyses as stream_analyses
    import repro.workloads.sharding as sharding
    from gzip import GzipFile
    from repro.analysis.pairing import StreamPairer
    from repro.analysis.reorder import StreamReorderer
    from repro.client.client import NfsClient
    from repro.client.nfsiod import NfsiodPool
    from repro.faults.injector import FaultInjector, _CaptureTap
    from repro.fs.filesystem import SimFileSystem
    from repro.ingest.registry import AdapterRegistry
    from repro.netsim.link import NetworkPath
    from repro.netsim.mirror import MirrorPort
    from repro.server.nfs_server import NfsServer
    from repro.simcore.events import EventLoop
    from repro.stream.engine import StreamAnalysis, StreamEngine
    from repro.trace.binfmt import DeterministicGzipWriter
    from repro.trace.collector import TraceCollector
    from repro.trace.reader import TraceReader
    from repro.trace.writer import TraceWriter
    from repro.workloads.harness import TracedSystem

    # the package re-exports ``main``, shadowing the module attribute
    cli = importlib.import_module("repro.cli.main")
    tracer = Tracer()
    _calibrate(tracer)
    values = tracer.values

    # -- simulate: event loop and the workload callbacks it dispatches ---
    tracer.patch(EventLoop, "run_until", "simcore")
    schedule = EventLoop.schedule

    def timed_schedule(loop, when, action):
        return schedule(loop, when, tracer.timed("workloads", action))

    EventLoop.schedule = timed_schedule

    # -- client, nfsiod, link, faults, server, fs, capture ---------------
    # append() delegates to write(), so it is counted once, as a write
    for name, value in vars(NfsClient).items():
        if callable(value) and not name.startswith("_") and name != "append":
            tracer.patch(NfsClient, name, "client")
    tracer.patch(NfsiodPool, "dispatch", "client.nfsiod")
    tracer.patch(NetworkPath, "__call__", "netsim.link")
    for name in ("call_wire_delay", "drop_call_wire", "crashed_in_flight",
                 "latency_factor", "reply_wire_delay", "drop_reply_wire"):
        tracer.patch(FaultInjector, name, "faults")
    for name in ("on_call", "on_reply"):
        tracer.patch(_CaptureTap, name, "faults")
        tracer.patch(MirrorPort, name, "netsim.mirror")
        tracer.patch(TraceCollector, name, "trace.collector")
    tracer.patch(NfsServer, "process", "server")
    for name in FS_ENTRY_POINTS:
        tracer.patch(SimFileSystem, name, "fs")
    tracer.patch(TraceCollector, "sorted_records", "trace.collector")
    tracer.patch(TraceCollector, "ingest", "trace.collector")
    tracer.patch(TracedSystem, "__init__", None,
                 lambda args, _: tracer.systems.append(args[0]))

    # -- trace writer and its gzip container -----------------------------
    for name in ("write", "extend", "close"):
        tracer.patch(TraceWriter, name, "trace.writer")
    for name, owner in (("write", GzipFile), ("flush", GzipFile),
                        ("close", DeterministicGzipWriter)):
        setattr(DeterministicGzipWriter, name, getattr(owner, name))
        tracer.patch(DeterministicGzipWriter, name, "trace.writer.gzip")

    # -- sharded simulation: in-world shard work and the parent merge ----
    tracer.patch(sharding, "_run_group", "parallel.shard")
    tracer.patch_iter(sharding.ShardRun, "merged", "parallel.shard.merge")

    # -- analysis: decode, pairing, reorder, batch analyses --------------
    reader = tracer.cell("trace.reader")

    def count_decoded(args, records) -> None:
        reader[2] += len(records)

    tracer.patch_iter(TraceReader, "__iter__", "trace.reader")
    for name in ("_spool_gz", "_plan"):
        tracer.patch(par, name, "trace.reader")
    tracer.patch(par, "decode_chunk", "trace.reader", count_decoded)
    tracer.patch(par, "pair_chunk", "analysis.pairing")
    tracer.patch(par, "_pair_partial", "analysis.pairing")

    def pairing_stats(stats) -> None:
        values["pairing.calls"] += stats.calls
        values["pairing.paired"] += stats.paired

    # a fan-out pass spends its own (parent) time merging worker output
    pair = par.parallel_pair
    fanout_pair = tracer.timed("parallel.pool.merge", pair)
    inline_pair = tracer.timed("analysis.pairing", pair)

    @functools.wraps(pair)
    def parallel_pair(*args, **kwargs):
        timed = fanout_pair if kwargs.get("jobs", 1) > 1 else inline_pair
        ops, stats = timed(*args, **kwargs)
        pairing_stats(stats)
        return ops, stats

    par.parallel_pair = parallel_pair
    tracer.patch(StreamPairer, "push", "analysis.pairing")
    tracer.patch(StreamPairer, "close", "analysis.pairing",
                 lambda args, stats: pairing_stats(stats))
    _install_pool_workers(tracer, par)

    reorder = "ingest.reorder" if command == "ingest" else "analysis.reorder"
    tracer.patch(StreamReorderer, "close", reorder)
    timed_push = tracer.timed(reorder, StreamReorderer.push)

    def push(reorderer, op):
        timed_push(reorderer, op)
        buffered = len(reorderer._order)
        if buffered > values["reorder.peak_buffered"]:
            values["reorder.peak_buffered"] = buffered

    StreamReorderer.push = push

    def batch_buffered(args, ops):
        values["reorder.peak_buffered"] = max(
            values["reorder.peak_buffered"], len(ops)
        )

    tracer.patch(cli, "reorder_window_sort", "analysis.reorder", batch_buffered)
    tracer.patch(cli, "summarize_trace", "analysis.summary")
    tracer.patch(cli, "_batch_runs_table", "analysis.runs")
    tracer.patch(cli, "characterize", "analysis.characterize")

    # -- streaming engine and its analyses -------------------------------
    for name in ("feed", "run", "finish"):
        tracer.patch(StreamEngine, name, "stream.engine")
    analyses = {cls for cls in vars(stream_analyses).values()
                if isinstance(cls, type) and issubclass(cls, StreamAnalysis)}
    for cls in analyses - {StreamAnalysis}:
        for name in ("process_record", "process_op", "advance", "finish"):
            if name in vars(cls):
                tracer.patch(cls, name, "stream.analyses")

    # -- ingest: sniff, adapter parse, normalization ---------------------
    tracer.patch(AdapterRegistry, "sniff", "ingest.sniff")
    for adapter in ingest_pkg.REGISTRY.adapters():
        if "records" in vars(type(adapter)):
            tracer.patch_iter(type(adapter), "records", "ingest.adapter")
    tracer.patch_iter(ingest_core, "normalize", "ingest.normalize")
    tracer.patch_iter(ingest_core, "_intern_records", "ingest.normalize")

    def count_out_of_order(args, stats) -> None:
        values["ingest.out_of_order"] += stats.out_of_order

    tracer.patch(ingest_pkg, "ingest", None, count_out_of_order)
    return tracer


def _install_pool_workers(tracer: Tracer, par) -> None:
    """Carry pool-worker layer times back to the parent.

    Analysis pool workers are forked from the stage process after
    :func:`install`, so they run the wrapped decode and pairing code.
    Each chunk task ships the seconds its layers took as an extra
    attribute on the chunk result, and the parent adds them up as
    worker seconds (they overlap the parent's wait on the pool, so they
    stay out of the parent's attribution).
    """
    task = par._pair_chunk_segment

    @functools.wraps(task)
    def worker_task(*args, **kwargs):
        before = {layer: cell[0] for layer, cell in tracer.cells.items()}
        partial = task(*args, **kwargs)
        partial.layer_seconds = {
            layer: cell[0] - before.get(layer, 0.0)
            for layer, cell in tracer.cells.items()
        }
        return partial

    par._pair_chunk_segment = worker_task
    reader = tracer.cell("trace.reader")

    def collect(args, result) -> None:
        partials, _token = result
        for partial in partials:
            for layer, seconds in getattr(partial, "layer_seconds", {}).items():
                tracer.worker_s[layer] += seconds
            reader[2] += partial.calls + partial.replies

    tracer.patch(par, "_map_chunks", "parallel.pool", collect)
