"""The sharded simulation engine: multi-process client fan-out.

One event loop simulating a whole client fleet is the largest serial
bottleneck left in the reproduction — simulated-week wall time scales
linearly with population.  This module partitions the fleet into
**client groups**, runs each group's complete world (file system, NFS
server, network, mirror port, collector, fault injector, event loop)
in a worker process, and k-way merges the per-group mirror-port
streams by ``(wire_time, client, xid)`` into one trace.

Determinism discipline — the merged output is **byte-identical for
every** ``--shards N``:

* The *group* count and group membership derive from the population
  alone (``index % groups``), never from the shard count.  Shards are
  just buckets of groups (round-robin), so changing ``N`` changes
  which worker runs a group, not what the group simulates.
* Each group's seed is :func:`repro.simcore.rng.shard_seed`
  ``(master_seed, gid)`` and its file-system id is ``gid + 1`` —
  both functions of the group id only.
* Shared hosts get group-tagged names (``smtp0.g3.campus``) so
  ``(client, xid)`` pairing keys never alias across groups, and each
  group's user subset keeps its global uid/login (populations *tile*
  the fleet rather than renumber it).
* Each group world's collector releases its records in
  :data:`~repro.trace.collector.record_key` order while the world
  runs, and the worker binary-encodes them as they come (the ``.rtb``
  codec) straight into a file named by the gid in the run's temp
  directory, the ``repro.parallel`` transport, so no world keeps or
  sorts its capture.  The parent opens and unlinks each group's file
  before :func:`run_sharded` returns and always merges the streams by
  the same key, in gid order — ties resolve identically no matter how
  groups were bucketed.  The merge works on the encoded frames
  (:func:`repro.trace.binfmt.merge_frames`), read through small
  windows: no record is decoded or re-encoded on the way to a binary
  trace file, and the parent never holds a group's stream whole.

The FaultLedger exactness argument survives sharding because group
worlds are shared-nothing: each group's ledger predicts its own
pairing stats exactly (PR 5), pairing keys are disjoint across groups,
so the per-group stats *sum* to the merged trace's stats exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time as _time
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from queue import Queue
from typing import IO, Iterator

from repro.faults import FaultSchedule
from repro.faults.ledger import aggregate_stats
from repro.obs.eventlog import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import sample_threshold
from repro.parallel import claim_segment, publish_segment, run_tasks
from repro.scenarios.compile import compile_workload
from repro.scenarios.library import load_scenario
from repro.simcore.clock import SECONDS_PER_DAY
from repro.trace.binfmt import (
    BinaryTraceDecoder,
    BinaryTraceEncoder,
    is_binary_trace_path,
    merge_frames,
    open_binary_for_write,
)
from repro.trace.collector import TraceCollector
from repro.trace.record import TraceRecord
from repro.trace.writer import TraceWriter
from repro.workloads.harness import TracedSystem

#: Default client-group count.  Fixed independently of ``--shards`` —
#: this is what makes output shard-count-invariant — and clamped to
#: the population so no group is empty.  8 groups parallelize up to 8
#: workers while keeping per-group host overhead modest.
DEFAULT_GROUPS = 8

#: Pool purpose key in the shared ``repro.parallel`` registry.
POOL_PURPOSE = "simulate"

#: Records a group world hands its encoder per ``encode_block`` call.
ENCODE_BLOCK = 256

#: Merged blocks waiting for the writer thread.  Two keep it busy
#: while the merge produces the next; a longer queue only holds more
#: of the trace in memory.
WRITE_QUEUE = 2


# ---------------------------------------------------------------------------
# Partitioning


@dataclass(frozen=True)
class GroupSpec:
    """One client group: a deterministic slice of the user fleet."""

    gid: int
    groups: int
    #: global user indices (``index % groups == gid``), ascending
    members: tuple[int, ...]


def partition_users(total: int, groups: int | None = None) -> list[GroupSpec]:
    """Split ``total`` users into client groups by ``index % groups``.

    The assignment is *stable*: a user's group depends only on the
    fleet size and the group count, so re-running with the same
    population always yields the same partition.  ``groups`` defaults
    to ``min(DEFAULT_GROUPS, total)`` and is clamped to ``total`` —
    every residue class of ``index % groups`` with ``groups <= total``
    is non-empty, so no group is ever empty.
    """
    if total < 1:
        raise ValueError(f"population needs at least one user, got {total}")
    if groups is None:
        groups = min(DEFAULT_GROUPS, total)
    if groups < 1:
        raise ValueError(f"need at least one client group, got {groups}")
    groups = min(groups, total)
    return [
        GroupSpec(
            gid=gid,
            groups=groups,
            members=tuple(range(gid, total, groups)),
        )
        for gid in range(groups)
    ]


def plan_shards(specs: list[GroupSpec], shards: int) -> list[tuple[int, ...]]:
    """Bucket group ids over ``shards`` workers, round-robin.

    Shard ``i`` gets groups ``i, i + shards, ...`` — with ``shards``
    clamped to the group count by the caller, every bucket is
    non-empty.  The bucketing affects only *where* a group runs; the
    merge consumes group streams in gid order regardless.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    shards = min(shards, len(specs))
    return [
        tuple(spec.gid for spec in specs[offset::shards])
        for offset in range(shards)
    ]


# ---------------------------------------------------------------------------
# Worker side


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs to simulate its groups.

    Small and picklable by construction: group membership is
    *recomputed* from ``(users, groups, gid)`` in the worker instead
    of shipping populations around.
    """

    system: str
    users: int
    seed: int
    start_time: float
    end_time: float
    mirror_bandwidth: float | None
    faults: str | None
    trace_sample: float
    gids: tuple[int, ...]
    groups: int
    #: the run's temp dir, where each group writes its payloads
    workdir: str


@dataclass
class GroupOutcome:
    """One group's results: small aggregates, and in the parent its
    span lines (its record stream is a file of the run)."""

    gid: int
    records: int
    wall_seconds: float
    span_payload: bytes | None = None
    spans_emitted: int = 0
    calls_seen: int = 0
    replies_seen: int = 0
    ledger: object | None = None  # PairingStats when faults are armed
    injected: dict[str, int] = field(default_factory=dict)
    retransmits: int = 0
    mirror_seen: int = 0
    mirror_dropped: int = 0


@dataclass
class ShardOutcome:
    """One worker's results: its wall time and its groups' outcomes."""

    wall_seconds: float
    groups: list[GroupOutcome]


def build_group_world(
    system_name: str,
    users: int,
    seed: int,
    group: GroupSpec,
    *,
    mirror_bandwidth: float | None = None,
    faults: str | None = None,
    trace_sample: float = 0.0,
):
    """One group's shared-nothing ``(system, workload)`` pair.

    ``system_name`` is any scenario reference the registry accepts —
    a library name (``campus``, ``fileserver``, ...), inline spec
    text, or a spec-file path — dispatched through
    :func:`repro.scenarios.compile_workload`.  Workers receive
    canonical spec text (see :func:`run_sharded`), so a group world
    never depends on the worker seeing the parent's files.
    """
    compiled = compile_workload(system_name, users=users, group=group)
    system = TracedSystem.for_group(
        seed, group,
        quota_bytes=compiled.quota_bytes,
        mirror_bandwidth=mirror_bandwidth,
        faults=faults,
        trace_sample=trace_sample,
    )
    return system, compiled.workload


def _run_group(task: ShardTask, gid: int) -> GroupOutcome:
    """Simulate one group end to end.

    The group's record stream goes to ``<gid>.rtb`` and its span lines
    to ``<gid>.spans`` in the run's temp dir, where the parent claims
    them; the outcome carries only small aggregates.
    """
    started = _time.perf_counter()
    spec = partition_users(task.users, task.groups)[gid]
    system, workload = build_group_world(
        task.system, task.users, task.seed, spec,
        mirror_bandwidth=task.mirror_bandwidth,
        faults=task.faults,
        trace_sample=task.trace_sample,
    )
    name = os.path.join(task.workdir, str(gid))
    with open(f"{name}.rtb", "wb") as out:
        # The collector releases the measured window in record_key
        # order (exact-key ties, a duplicate re-captured in the same
        # instant, in capture order); encode it as it comes, a block
        # at a time, so the parent k-way merges sorted group streams
        # and no world holds its capture.
        encoder = BinaryTraceEncoder(out, buffered=True)
        block: list[TraceRecord] = []
        add = block.append

        def capture(record: TraceRecord) -> None:
            add(record)
            if len(block) == ENCODE_BLOCK:
                encoder.encode_block(block)
                block.clear()

        system.collector.sinks = [capture]
        system.start_measurement(task.start_time)
        workload.attach(system)
        system.run(task.end_time)
        system.collector.flush()
        encoder.encode_block(block)
        encoder.flush()
    outcome = GroupOutcome(
        gid=gid,
        records=encoder.records_written,
        wall_seconds=0.0,
        calls_seen=system.collector.calls_seen,
        replies_seen=system.collector.replies_seen,
        retransmits=sum(c.retransmits for c in system.clients.values()),
        mirror_seen=system.mirror.packets_seen,
        mirror_dropped=system.mirror.packets_dropped,
    )
    lines = []
    if system.spans is not None:
        outcome.spans_emitted = system.spans.close()
        for event in system.spans.sink.events:
            payload = {k: v for k, v in event.items() if k != "seq"}
            lines.append(json.dumps(payload, separators=(",", ":"),
                                    sort_keys=True))
    publish_segment(task.workdir, f"{gid}.spans",
                    "\n".join(lines).encode("utf-8"))
    if system.faults is not None:
        outcome.ledger = system.fault_ledger.expected_stats()
        outcome.injected = dict(system.faults.injected)
    outcome.wall_seconds = _time.perf_counter() - started
    return outcome


def _run_shard_task(task: ShardTask) -> ShardOutcome:
    """Pool entry point: simulate every group assigned to this shard."""
    started = _time.perf_counter()
    groups = [_run_group(task, gid) for gid in task.gids]
    return ShardOutcome(
        wall_seconds=_time.perf_counter() - started, groups=groups
    )


# ---------------------------------------------------------------------------
# Parent side


class _BlockReader:
    """A readable file over an iterator of byte blocks: ``read(n)``
    returns ``n`` bytes until the blocks run out, as
    :class:`BinaryTraceDecoder` expects of a file."""

    def __init__(self, blocks: Iterator[bytes]) -> None:
        self._blocks = blocks
        self._pending = b""

    def read(self, size: int) -> bytes:
        pending = self._pending
        while len(pending) < size:
            block = next(self._blocks, None)
            if block is None:
                break
            pending += block
        self._pending = pending[size:]
        return pending[:size]


def _write_beside(blocks: Iterator[bytes], out: IO[bytes]) -> None:
    """Write ``blocks`` into ``out`` on a writer thread, then close it.

    zlib deflates with the interpreter lock released, so for a
    ``.rtb.gz`` the thread compresses one block while this thread
    produces the next (the frame merge, in :meth:`ShardRun.write`).  At
    most :data:`WRITE_QUEUE` blocks wait between them.  A failure on
    either side ends the write: a failed producer stops the thread
    after the blocks already queued, and a failed write makes the
    producer stop at its next block.  The thread is joined before
    ``out`` is closed here, so an error in the close (the gzip trailer,
    the last flush) is raised like any other, and ``out`` is closed
    however the write ends.
    """
    queue: Queue = Queue(WRITE_QUEUE)
    failed: list[BaseException] = []

    def drain() -> None:
        try:
            while (block := queue.get()) is not None:
                out.write(block)
        except BaseException as exc:
            failed.append(exc)
            while queue.get() is not None:  # unblock the producer
                pass

    thread = threading.Thread(target=drain, name="repro-writer")
    thread.start()
    try:
        try:
            for block in blocks:
                if failed:
                    break
                queue.put(block)
        finally:
            queue.put(None)
            thread.join()
        if failed:
            raise failed[0]
        out.close()
    except BaseException:
        with suppress(Exception):  # the first error is the one raised
            out.close()
        raise


@dataclass
class ShardRun:
    """A completed sharded simulation, ready to merge and report.

    The group worlds' record streams stay on disk until a merge reads
    them: :attr:`payloads` holds one open file per group, in gid
    order, already unlinked, so once :func:`run_sharded` has returned
    nothing of the run outlives it, even if the process is killed.
    (While the groups simulate, their streams are named files in the
    run's temp dir, which a killed parent leaves behind.)  Use the run
    as a context manager (or call :meth:`close`) to release them.
    """

    system: str
    users: int
    days: float
    seed: int
    shards: int
    requested_shards: int
    groups: int
    start_time: float
    outcomes: list[GroupOutcome]
    shard_walls: list[float]
    fanout_seconds: float
    #: each group's encoded record stream, an open unlinked file
    payloads: list[IO[bytes]]

    def __enter__(self) -> "ShardRun":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the group payload files (safe to call twice)."""
        for payload in self.payloads:
            payload.close()

    @property
    def record_count(self) -> int:
        """Records in the merged (measurement-window) trace."""
        return sum(o.records for o in self.outcomes)

    def _merged_blocks(self) -> Iterator[bytes]:
        """The frame merge of the group payloads: one ``.rtb`` stream in
        ``(wire_time, client, xid)`` order, in blocks.

        Payloads go in gid order, so an exact-key tie breaks by gid — a
        pure function of the groups, not of the shard bucketing — and
        the merged bytes are identical for every shard count.  Each
        merge reads the files at offsets of its own, so merges of one
        run may interleave.
        """
        return merge_frames(self.payloads)

    def write(self, path: str | Path) -> int:
        """Write the merged trace to ``path``; returns the record count.

        A binary path (``.rtb``/``.rtb.gz``) gets the frame merge's
        blocks as they come, with no record decoded, written (and for a
        ``.rtb.gz`` deflated) on a writer thread beside the merge; a
        text path gets the decoded :meth:`merged` stream through
        :class:`TraceWriter`.  If the write fails, the partial file is
        removed.
        """
        path = Path(path)
        try:
            if not is_binary_trace_path(path):
                with TraceWriter(path) as writer:
                    for record in self.merged():
                        writer.write(record)
                return writer.records_written
            _write_beside(self._merged_blocks(), open_binary_for_write(path))
            return self.record_count
        except BaseException:
            path.unlink(missing_ok=True)
            raise

    def merged(self) -> Iterator[TraceRecord]:
        """The single collector stream: the frame merge, decoded.

        These are the records :meth:`write` puts in a binary file, in
        its order, so ``monitor --shards`` and text output read the
        same stream the binary file holds.  Blocks are decoded as the
        merge yields them.
        """
        yield from BinaryTraceDecoder(_BlockReader(self._merged_blocks()))

    def collect(self, metrics: MetricsRegistry | None = None) -> TraceCollector:
        """The merged stream ingested into a parent-side collector."""
        collector = TraceCollector(metrics=metrics)
        collector.ingest(self.merged())
        return collector

    def span_events(self) -> list[dict]:
        """All sampled span events, group streams in gid order.

        Each group's recorder emitted in its own capture order; the
        concatenation in gid order is invariant under the shard count.
        ``seq`` is assigned by whichever log re-emits these.
        """
        events: list[dict] = []
        for outcome in self.outcomes:
            if not outcome.span_payload:
                continue
            for line in outcome.span_payload.decode("utf-8").splitlines():
                if line:
                    events.append(json.loads(line))
        return events

    def replay_spans(self, log: EventLog) -> int:
        """Re-emit the merged span stream through ``log`` with a fresh
        monotonic ``seq``; returns the count."""
        count = 0
        for event in self.span_events():
            fields = {
                k: v for k, v in event.items()
                if k not in ("seq", "event", "time")
            }
            log.emit(event["event"], time=event.get("time"), **fields)
            count += 1
        return count

    @property
    def spans_emitted(self) -> int:
        return sum(o.spans_emitted for o in self.outcomes)

    @property
    def fault_stats(self):
        """The aggregated FaultLedger prediction (PairingStats), or None.

        Exact by the shared-nothing argument: each group ledger is
        exact for its own (disjoint) pairing keys, so the field-wise
        sum is exact for the merged trace.
        """
        parts = [o.ledger for o in self.outcomes if o.ledger is not None]
        if not parts:
            return None
        return aggregate_stats(parts)

    @property
    def injected(self) -> dict[str, int]:
        """Aggregated injected-event tallies keyed ``fault.kind.where``."""
        total: dict[str, int] = {}
        for outcome in self.outcomes:
            for key, count in outcome.injected.items():
                total[key] = total.get(key, 0) + count
        return total

    @property
    def retransmits(self) -> int:
        return sum(o.retransmits for o in self.outcomes)

    @property
    def mirror_seen(self) -> int:
        return sum(o.mirror_seen for o in self.outcomes)

    @property
    def mirror_dropped(self) -> int:
        return sum(o.mirror_dropped for o in self.outcomes)

    @property
    def drop_rate(self) -> float:
        seen = self.mirror_seen
        return self.mirror_dropped / seen if seen else 0.0

    def publish_metrics(
        self, metrics: MetricsRegistry, *, merge_seconds: float | None = None
    ) -> None:
        """Record ``sim.fanout.*`` (and fault/retransmit aggregates) so
        ``repro stats --metrics`` can report the fan-out's health."""
        metrics.gauge("sim.fanout.shards").set(self.shards)
        metrics.gauge("sim.fanout.groups").set(self.groups)
        busy = sum(self.shard_walls)
        denominator = self.shards * self.fanout_seconds
        metrics.gauge("sim.fanout.utilization").set(
            busy / denominator if denominator > 0 else 0.0
        )
        shard_hist = metrics.histogram("sim.fanout.shard_seconds")
        for wall in self.shard_walls:
            shard_hist.observe(wall)
        metrics.counter("sim.fanout.records").inc(self.record_count)
        if merge_seconds is not None:
            metrics.gauge("sim.fanout.merge_seconds").set(merge_seconds)
        metrics.counter("trace.records", direction="call").inc(
            sum(o.calls_seen for o in self.outcomes)
        )
        metrics.counter("trace.records", direction="reply").inc(
            sum(o.replies_seen for o in self.outcomes)
        )
        for key, count in sorted(self.injected.items()):
            fault, kind, where = key.split(".", 2)
            metrics.counter(
                "faults.injected", fault=fault, kind=kind, where=where
            ).inc(count)
        if self.retransmits:
            metrics.counter("client.retransmits").inc(self.retransmits)


def run_sharded(
    system_name: str,
    *,
    users: int,
    days: float,
    seed: int = 0,
    shards: int = 1,
    groups: int | None = None,
    mirror_bandwidth: float | None = None,
    faults: str | None = None,
    trace_sample: float = 0.0,
    warmup_days: float = 1.0,
) -> ShardRun:
    """Simulate ``days`` of a fleet across ``shards`` worker processes.

    Returns a :class:`ShardRun` whose :meth:`~ShardRun.merged` stream,
    :attr:`~ShardRun.fault_stats`, and :meth:`~ShardRun.span_events`
    are byte-identical for every ``shards`` value (the group count is
    fixed by the population, not the worker count).  ``shards=1`` runs
    the same group worlds inline — same code path, no pool.  A pool
    worker that dies raises :class:`~repro.errors.WorkerDiedError`.
    The group streams are written to the run's temp dir while the
    groups simulate, so a run needs temp space about the size of its
    encoded trace; the returned run holds them as open, unlinked files
    and the temp dir is gone.  Close the run, or use it as a context
    manager, once it has been merged.

    The first ``warmup_days`` are simulated but excluded from the
    merged stream and the tallies, mirroring ``repro simulate``'s
    warm-up-Sunday convention.
    """
    if shards < 1:
        raise ValueError(f"--shards must be >= 1, got {shards}")
    if days <= 0:
        raise ValueError(f"need a positive number of days, got {days}")
    # resolve the scenario reference (library name, spec text, or file
    # path) in the parent: a bad reference fails fast with one clean
    # error, and workers receive self-contained canonical spec text
    # instead of a name they would have to resolve against local files
    system_name = load_scenario(system_name).spec()
    sample_threshold(trace_sample)  # validate the rate before forking
    if faults is not None:
        # parse in the parent so a bad spec fails fast with one clean
        # error; workers get the canonical round-tripped string
        faults = FaultSchedule.parse(faults).spec()
    specs = partition_users(users, groups)
    group_count = len(specs)
    pool_size = min(shards, group_count)
    start_time = warmup_days * SECONDS_PER_DAY
    end_time = (warmup_days + days) * SECONDS_PER_DAY

    base_task = dict(
        system=system_name,
        users=users,
        seed=seed,
        start_time=start_time,
        end_time=end_time,
        mirror_bandwidth=mirror_bandwidth,
        faults=faults,
        trace_sample=trace_sample,
        groups=group_count,
    )
    started = _time.perf_counter()
    workdir = tempfile.mkdtemp(prefix="repro-shard-")
    try:
        if pool_size == 1:
            task = ShardTask(gids=tuple(spec.gid for spec in specs),
                             workdir=workdir, **base_task)
            outcomes = [_run_group(task, gid) for gid in task.gids]
            shard_walls = [_time.perf_counter() - started]
        else:
            # the flowop interpreter, which compile_workload imports on
            # demand, loaded before the pool forks: the workers inherit
            # it instead of each importing (and, without a bytecode
            # cache, compiling) its own copy
            import repro.scenarios.generator  # noqa: F401

            tasks = [
                ShardTask(gids=gids, workdir=workdir, **base_task)
                for gids in plan_shards(specs, pool_size)
            ]
            shard_outcomes = run_tasks(
                POOL_PURPOSE, pool_size, _run_shard_task, tasks
            )
            outcomes = sorted((g for s in shard_outcomes for g in s.groups),
                              key=lambda o: o.gid)
            shard_walls = [s.wall_seconds for s in shard_outcomes]
        payloads = _claim_payloads(workdir, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fanout_seconds = _time.perf_counter() - started

    return ShardRun(
        system=system_name,
        users=users,
        days=days,
        seed=seed,
        shards=pool_size,
        requested_shards=shards,
        groups=group_count,
        start_time=start_time,
        outcomes=outcomes,
        shard_walls=shard_walls,
        fanout_seconds=fanout_seconds,
        payloads=payloads,
    )


def _claim_payloads(workdir: str, outcomes: list[GroupOutcome]) -> list:
    """Open and unlink each group's record stream, and read in its span
    lines; returns the open files in ``outcomes`` order.

    An unlinked file lives until it is closed, and the kernel closes it
    if the process dies, so from here on no file of the run is left on
    disk however the run ends.
    """
    payloads = []
    try:
        for outcome in outcomes:
            name = os.path.join(workdir, str(outcome.gid))
            payloads.append(open(f"{name}.rtb", "rb", buffering=0))
            os.unlink(f"{name}.rtb")
            outcome.span_payload = claim_segment(f"{name}.spans")
    except BaseException:
        for payload in payloads:
            payload.close()
        raise
    return payloads
