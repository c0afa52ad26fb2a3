"""The traced system: everything wired together.

One :class:`TracedSystem` is one complete simulated environment —
file system, NFS server, network path, optional mirror-port loss,
trace collector, event loop, and any number of client hosts.  The
workload generators attach to it, and ``run`` produces a trace: the
collector releases it in wire order behind the event loop's clock (see
:mod:`repro.trace.collector`), into ``system.collector.sinks``.
"""

from __future__ import annotations

from repro.client.client import NfsClient
from repro.faults import FaultInjector, FaultSchedule
from repro.fs.filesystem import SimFileSystem
from repro.netsim.link import NetworkPath
from repro.netsim.mirror import MirrorPort
from repro.nfs.procedures import NfsVersion
from repro.nfs.rpc import Transport
from repro.obs.eventlog import EventLog
from repro.obs.gcpause import paused_gc
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder, sample_threshold
from repro.server.nfs_server import NfsServer
from repro.simcore.events import EventLoop
from repro.simcore.rng import RngRegistry
from repro.trace.collector import TraceCollector
from repro.trace.record import TraceRecord
from repro.trace.writer import write_trace


class TracedSystem:
    """A complete client/server/tracer world.

    Args:
        seed: master seed; all randomness derives from it.
        quota_bytes: per-user quota (CAMPUS used 50 MB); None = none.
        mirror_bandwidth: mirror-port egress in bytes/s; ``None``
            disables loss (the EECS monitor configuration).
        mirror_buffer: switch buffer behind the mirror port.
        server_addr: the server's address as it appears in the trace.
        faults: a :class:`~repro.faults.FaultSchedule`, a spec string
            (``"drop(p=0.01);crash(at=3600,down=30)"``), or ``None``
            for a perfect wire.  Fault RNG streams derive from the
            same master seed, so one (seed, schedule) pair always
            reproduces the same trace byte for byte.
        trace_sample: span-sampling rate in [0, 1].  0 (the default)
            disables span tracing entirely; any rate uses hash-ratio
            sampling (no RNG draws), so the trace bytes never change.
        span_sink: where sampled spans go — an
            :class:`~repro.obs.eventlog.EventLog`-compatible object
            (e.g. a :class:`~repro.obs.rotate.RotatingEventLog`);
            defaults to an in-memory EventLog.
        span_tail: keep the last N span records in memory for live
            serving (``repro monitor``).
        fsid: the exported file system's id, embedded in every file
            handle.  Sharded simulations give each client group its
            own (see :meth:`for_group`); standalone worlds keep 1.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        quota_bytes: int | None = None,
        mirror_bandwidth: float | None = None,
        mirror_buffer: int = 512 * 1024,
        server_addr: str = "10.0.0.100",
        faults: FaultSchedule | str | None = None,
        trace_sample: float = 0.0,
        span_sink=None,
        span_tail: int = 0,
        fsid: int = 1,
    ) -> None:
        self.rngs = RngRegistry(seed)
        #: One registry for the whole world; every component surfaces
        #: its counters here.  ``system.metrics.snapshot()`` is the
        #: uniform way to read them all.
        self.metrics = MetricsRegistry()
        #: operation-level span tracing (repro.obs.spans).  The sampling
        #: decision is a deterministic hash of (client, xid, proc) — no
        #: RNG stream is consulted at any rate, so traces stay
        #: byte-identical whether sampling is off, on, or partial.  At
        #: rate 0 no recorder exists and every hop's check is a single
        #: ``is not None``.
        if trace_sample > 0.0:
            sink = span_sink if span_sink is not None else EventLog()
            self.spans = SpanRecorder(
                sink, sample=trace_sample, metrics=self.metrics,
                tail=span_tail,
            )
        else:
            sample_threshold(trace_sample)  # validate even when off
            self.spans = None
        self.fs = SimFileSystem(fsid=fsid, quota_bytes=quota_bytes)
        self.server = NfsServer(self.fs, metrics=self.metrics, spans=self.spans)
        self.server_addr = server_addr
        self.loop = EventLoop(metrics=self.metrics)
        self.collector = TraceCollector(
            metrics=self.metrics, spans=self.spans, clock=self.loop.clock
        )
        if faults is not None:
            #: the injector and its ledger; the capture tap sits between
            #: the mirror and the collector so the ledger sees exactly
            #: the packets the trace records (post mirror loss, post
            #: capture faults, duplicates included)
            self.faults = FaultInjector(
                faults, self.rngs, metrics=self.metrics
            )
            self.faults.spans = self.spans
            capture = self.faults.wrap_capture(self.collector)
        else:
            self.faults = None
            capture = self.collector
        self.mirror = MirrorPort(
            bandwidth=mirror_bandwidth,
            buffer_bytes=mirror_buffer,
            taps=[capture],
            metrics=self.metrics,
        )
        self.network = NetworkPath(
            self.server,
            self.rngs.stream("network.latency"),
            taps=[self.mirror],
            metrics=self.metrics,
            faults=self.faults,
            spans=self.spans,
        )
        self.clients: dict[str, NfsClient] = {}

    @classmethod
    def for_group(cls, master_seed: int, group, **kwargs) -> "TracedSystem":
        """A shard-local world for one client group.

        The group's seed derives from ``(master_seed, gid)`` via
        :func:`repro.simcore.rng.shard_seed` and its ``fsid`` is
        ``gid + 1``, so file handles (which embed the fsid) never
        collide across groups in the merged trace.  Both derive from
        the *group*, never the worker it runs on — the foundation of
        byte-identical output for every ``--shards N``.
        """
        from repro.simcore.rng import shard_seed

        return cls(seed=shard_seed(master_seed, group.gid),
                   fsid=group.gid + 1, **kwargs)

    @property
    def clock(self):
        """The shared simulated clock."""
        return self.loop.clock

    @property
    def fault_ledger(self):
        """The injected-loss ledger, or ``None`` without faults."""
        return self.faults.ledger if self.faults is not None else None

    def add_client(
        self,
        host: str,
        *,
        transport: Transport = Transport.TCP,
        version: NfsVersion = NfsVersion.V3,
        nfsiod_count: int = 4,
        ac_timeout: float = 3.0,
        name_timeout: float = 30.0,
        cache_blocks: int = 65536,
        readahead_blocks: int = 4,
    ) -> NfsClient:
        """Create (or return) the client for ``host``."""
        existing = self.clients.get(host)
        if existing is not None:
            return existing
        client = NfsClient(
            host=host,
            server_addr=self.server_addr,
            root=self.fs.root,
            exchange=self.network,
            clock=self.clock,
            rng=self.rngs.stream(f"client.{host}"),
            transport=transport,
            version=version,
            nfsiod_count=nfsiod_count,
            ac_timeout=ac_timeout,
            name_timeout=name_timeout,
            cache_blocks=cache_blocks,
            readahead_blocks=readahead_blocks,
            metrics=self.metrics,
            spans=self.spans,
        )
        self.clients[host] = client
        return client

    def start_measurement(self, t0: float) -> None:
        """Exclude packets with wire time before ``t0`` from the capture.

        Traffic before ``t0`` is still simulated, forwarded, and
        mirrored — only the ``server.*``, ``mirror.*``, and ``trace.*``
        instruments ignore it, and the collector never builds its
        records.  So the released capture is the trace windowed at
        ``t0`` (e.g. skipping a warm-up day), and
        ``server.calls{proc=...}`` equals the paired per-procedure
        counts an analysis derives from it.
        Client- and loop-level metrics are not windowed.
        """
        self.server.measure_from = t0
        self.network.measure_from = t0
        self.mirror.measure_from = t0
        self.collector.measure_from = t0

    def run(self, until: float) -> None:
        """Run the simulation to ``until`` simulated seconds.

        Cyclic GC is paused for the duration: the run allocates
        millions of acyclic records whose generation-2 rescans would
        otherwise cost ~25% of wall time (see repro.obs.gcpause).
        """
        with paused_gc():
            self.loop.run_until(until)

    def records(self) -> list[TraceRecord]:
        """The captured trace, in wire order; flushes the collector, so
        call it once the run is over."""
        return self.collector.sorted_records()

    def write_trace(self, path) -> int:
        """Write the captured trace to ``path``; returns the count."""
        return write_trace(path, self.records())
