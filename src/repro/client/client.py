"""POSIX-to-NFS translation for one simulated client host.

The workload generators speak a small POSIX-like interface (open,
read, write, close, create, unlink, stat, ...).  This class translates
it into NFS calls the way a real client does:

* path resolution walks the directory tree with LOOKUP calls, served
  from the name cache while fresh;
* open/close vanish — they surface only as ACCESS/GETATTR revalidation
  traffic (Section 4.1.2 of the paper);
* reads are absorbed by the block cache when attributes are fresh, and
  sequential reads trigger client read-ahead (Section 4.1.3);
* reads and writes go to the wire through the nfsiod pool, which is
  what reorders them (Section 4.1.5).

Every call is sent through an ``exchange`` callable — in full
simulations that is a :class:`repro.netsim.link.NetworkPath` with a
mirror-port tap; in unit tests it can wrap a server directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.fs.blockmap import BLOCK_SIZE
from repro.client.cache import ClientCache
from repro.client.nfsiod import NfsiodPool
from repro.nfs.attributes import FileAttributes
from repro.nfs.filehandle import FileHandle
from repro.nfs.messages import NfsCall, NfsReply, NfsStatus
from repro.nfs.procedures import NfsProc, NfsVersion
from repro.nfs.rpc import RpcChannel, Transport
from repro.obs.metrics import MetricsRegistry
from repro.simcore.clock import SimClock

Exchange = Callable[[NfsCall], NfsReply]


@dataclass
class OpenFile:
    """Client-side state for one open file (no wire presence)."""

    path: str
    fh: FileHandle
    uid: int
    gid: int
    last_block: int | None = None
    sequential_streak: int = 0
    wrote: bool = False
    attrs: FileAttributes | None = field(default=None, repr=False)
    #: blocks fetched by read-ahead for this stream and not yet read;
    #: a later cache hit on one of them counts as "readahead used"
    prefetched: set[int] | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        """Client's current idea of the file size."""
        return self.attrs.size if self.attrs is not None else 0


class NfsClient:
    """One client host mounted on one server export."""

    def __init__(
        self,
        host: str,
        server_addr: str,
        root: FileHandle,
        exchange: Exchange,
        clock: SimClock,
        rng: random.Random,
        *,
        version: NfsVersion = NfsVersion.V3,
        transport: Transport = Transport.TCP,
        nfsiod_count: int = 4,
        ac_timeout: float = 3.0,
        name_timeout: float = 30.0,
        cache_blocks: int = 65536,
        readahead_blocks: int = 4,
        op_gap: float = 0.0003,
        rpc_timeout: float = 1.1,
        rpc_timeout_max: float = 4.0,
        rpc_max_retransmits: int = 100,
        metrics: MetricsRegistry | None = None,
        spans=None,
    ) -> None:
        self.host = host
        self.server_addr = server_addr
        self.root = root
        self.exchange = exchange
        self.clock = clock
        self.rng = rng
        self.version = version
        self.transport = transport
        self.readahead_blocks = readahead_blocks
        self.op_gap = op_gap
        #: RPC retransmission: initial timeout, backoff cap, and give-up
        #: bound (the classic BSD client starts just over a second and
        #: doubles; the cap stays far below pairing's 8 s reply timeout
        #: so retransmitted exchanges never look like capture loss)
        self.rpc_timeout = rpc_timeout
        self.rpc_timeout_max = rpc_timeout_max
        self.rpc_max_retransmits = rpc_max_retransmits
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: optional repro.obs.spans.SpanRecorder; None keeps the RPC
        #: path span-free (a single is-None check per call)
        self._spans = spans
        self.cache = ClientCache(
            ac_timeout=ac_timeout,
            name_timeout=name_timeout,
            capacity_blocks=cache_blocks,
            metrics=self.metrics,
            host=host,
        )
        self.channel = RpcChannel(host, server_addr, transport)
        self.nfsiods = NfsiodPool(
            nfsiod_count, rng, transport=transport,
            metrics=self.metrics, host=host,
        )
        self._cursor = 0.0
        # per-block/per-call tallies stay plain integers; _sync_metrics
        # publishes them into the registry before any read
        self._n_calls_sent = 0
        self._n_absorbed = 0
        self._n_read_misses = 0
        self._n_ra_issued = 0
        self._n_ra_used = 0
        self._n_retransmits = 0
        self._m_calls_sent = self.metrics.counter("client.calls_sent", host=host)
        self._m_absorbed = self.metrics.counter("client.reads_absorbed", host=host)
        self._m_read_misses = self.metrics.counter("client.read_misses", host=host)
        self._m_ra_issued = self.metrics.counter("client.readahead_issued", host=host)
        self._m_ra_used = self.metrics.counter("client.readahead_used", host=host)
        self._m_retransmits = self.metrics.counter("client.retransmits", host=host)
        self.metrics.add_sync(self._sync_metrics)

    def _sync_metrics(self) -> None:
        self._m_calls_sent.inc(self._n_calls_sent - self._m_calls_sent.value)
        self._m_absorbed.inc(self._n_absorbed - self._m_absorbed.value)
        self._m_read_misses.inc(self._n_read_misses - self._m_read_misses.value)
        self._m_ra_issued.inc(self._n_ra_issued - self._m_ra_issued.value)
        self._m_ra_used.inc(self._n_ra_used - self._m_ra_used.value)
        self._m_retransmits.inc(self._n_retransmits - self._m_retransmits.value)

    @property
    def reads_absorbed(self) -> int:
        """Block reads served from the client cache."""
        return self._n_absorbed

    @property
    def calls_sent(self) -> int:
        """NFS calls this client put on the wire."""
        return self._n_calls_sent

    # -- public POSIX-ish interface -------------------------------------------

    def open(self, path: str, uid: int = 0, gid: int = 0) -> OpenFile:
        """Open an existing file; emits revalidation traffic as needed."""
        self._sync_cursor()
        fh = self._resolve(path, uid, gid)
        attrs = self._revalidate(fh, uid, gid)
        return OpenFile(path=path, fh=fh, uid=uid, gid=gid, attrs=attrs)

    def create(
        self, path: str, uid: int = 0, gid: int = 0, *, exclusive: bool = False
    ) -> OpenFile:
        """Create (or truncate) a file and return it open.

        Raises:
            FileNotFoundError: if the parent directory is missing.
            FileExistsError: on a failed exclusive create.
        """
        self._sync_cursor()
        dir_path, name = self._split(path)
        dir_fh = self._resolve(dir_path, uid, gid)
        reply = self._rpc(
            NfsProc.CREATE, uid=uid, gid=gid, fh=dir_fh, name=name
        )
        if reply.status is NfsStatus.EXIST and exclusive:
            raise FileExistsError(path)
        if not reply.ok():
            raise OSError(f"create {path}: {reply.status}")
        self.cache.cache_name(dir_fh, name, reply.fh, self._cursor)
        self.cache.update_attrs(reply.fh, reply.attributes, self._cursor)
        return OpenFile(
            path=path, fh=reply.fh, uid=uid, gid=gid, attrs=reply.attributes
        )

    def read(self, of: OpenFile, offset: int, count: int) -> int:
        """Read ``count`` bytes at ``offset``; returns bytes obtained.

        Cached, attribute-valid blocks are absorbed; misses go to the
        wire block by block through the nfsiod pool, plus read-ahead
        when the access pattern has been sequential.

        Most CAMPUS reads are absorbed in full.  When every block of
        the read is cached, and so is the read-ahead window the
        per-block loop would scan, the loop could issue no RPC, insert
        nothing and evict nothing: such a read touches each block of
        that span once (:meth:`ClientCache.touch_span`), which leaves
        the LRU in the loop's last-touch order, and settles its
        counters and streak arithmetically.  Any other read runs the
        per-block loop, where the sequential-streak tracking and
        read-ahead issue logic are inlined against a single
        cache-entry lookup per call.
        """
        self._sync_cursor()
        if count <= 0:
            return 0
        self._maybe_revalidate(of)
        size = of.size
        if offset >= size:
            return 0
        count = min(count, size - offset)
        cache = self.cache
        fh = of.fh
        entry = cache.get_file(fh)
        first = offset // BLOCK_SIZE
        last = (offset + count - 1) // BLOCK_SIZE
        last_block = of.last_block
        streak = of.sequential_streak
        prefetched = of.prefetched
        if entry is not None:
            # the streak the per-block loop reaches at ``last``: the
            # first block continues, repeats or breaks the stream, and
            # every later block of the read continues it
            end_streak = streak
            if last_block is not None and first != last_block:
                end_streak = streak + 1 if first == last_block + 1 else 0
            end_streak += last - first
            # the streak only grows within a read, so the span from
            # ``first`` to the window scanned at ``last`` covers every
            # earlier block's window
            span_end = last
            if end_streak >= 2:
                span_end = min(last + self.readahead_blocks,
                               (size - 1) // BLOCK_SIZE)
            if cache.touch_span(entry, first, span_end):
                if prefetched:
                    used = [b for b in prefetched if first <= b <= last]
                    if used:
                        prefetched.difference_update(used)
                        self._n_ra_used += len(used)
                of.last_block = last
                of.sequential_streak = end_streak
                self._n_absorbed += last - first + 1
                return count
        fh_hex = fh.hex
        blocks = entry.blocks if entry is not None else frozenset()
        lru_move = cache.block_lru.move_to_end
        readahead = self.readahead_blocks
        absorbed = ra_used = misses = 0
        for block in range(first, last + 1):
            if block in blocks:
                lru_move((fh_hex, block))
                absorbed += 1
                if prefetched and block in prefetched:
                    prefetched.discard(block)
                    ra_used += 1
            else:
                block_start = block * BLOCK_SIZE
                misses += 1
                reply = self._rpc(
                    NfsProc.READ,
                    uid=of.uid, gid=of.gid, fh=fh,
                    offset=block_start, count=min(BLOCK_SIZE, size - block_start),
                    asynchronous=True,
                )
                if reply.ok():
                    if entry is not None:
                        cache.add_block_entry(entry, block)
                    if reply.attributes is not None:
                        cache.note_local_write(fh, reply.attributes, self._cursor)
                        of.attrs = reply.attributes
                        if entry is None:
                            entry = cache.get_file(fh)
                            blocks = entry.blocks
            # sequential-streak tracking (kept in locals; flushed below)
            if last_block is not None and block == last_block + 1:
                streak += 1
            elif last_block is not None and block != last_block:
                streak = 0
            last_block = block
            # read-ahead of a sequential stream
            if streak >= 2:
                ra_size = of.size
                size_blocks = -(-ra_size // BLOCK_SIZE)
                for ahead in range(block + 1, block + 1 + readahead):
                    if ahead >= size_blocks:
                        break
                    if ahead in blocks:
                        lru_move((fh_hex, ahead))
                        continue
                    start = ahead * BLOCK_SIZE
                    reply = self._rpc(
                        NfsProc.READ, uid=of.uid, gid=of.gid, fh=fh,
                        offset=start, count=min(BLOCK_SIZE, ra_size - start),
                        asynchronous=True,
                    )
                    self._n_ra_issued += 1
                    if reply.ok():
                        if entry is not None:
                            cache.add_block_entry(entry, ahead)
                        if prefetched is None:
                            prefetched = of.prefetched = set()
                        prefetched.add(ahead)
        of.last_block = last_block
        of.sequential_streak = streak
        self._n_absorbed += absorbed
        self._n_ra_used += ra_used
        self._n_read_misses += misses
        return count

    def write(self, of: OpenFile, offset: int, count: int) -> int:
        """Write ``count`` bytes at ``offset`` (write-through, 8 KB chunks)."""
        self._sync_cursor()
        if count <= 0:
            return 0
        written = 0
        position = offset
        remaining = count
        while remaining > 0:
            chunk = min(remaining, BLOCK_SIZE - (position % BLOCK_SIZE))
            reply = self._rpc(
                NfsProc.WRITE,
                uid=of.uid, gid=of.gid, fh=of.fh,
                offset=position, count=chunk,
                asynchronous=True,
            )
            if not reply.ok():
                break
            if reply.attributes is not None:
                self.cache.note_local_write(of.fh, reply.attributes, self._cursor)
                of.attrs = reply.attributes
            self.cache.add_block(of.fh, position // BLOCK_SIZE)
            of.wrote = True
            written += chunk
            position += chunk
            remaining -= chunk
        return written

    def append(self, of: OpenFile, count: int) -> int:
        """Write ``count`` bytes at the client's idea of EOF."""
        return self.write(of, of.size, count)

    def close(self, of: OpenFile) -> None:
        """Close: v3 clients commit unstable writes on close."""
        self._sync_cursor()
        if of.wrote and self.version is NfsVersion.V3:
            self._rpc(NfsProc.COMMIT, uid=of.uid, gid=of.gid, fh=of.fh)
            of.wrote = False

    def stat(self, path: str, uid: int = 0, gid: int = 0) -> FileAttributes | None:
        """stat(2): absorbed while attributes are fresh.

        Returns None (after a wire round trip) when the file is absent.
        """
        self._sync_cursor()
        try:
            fh = self._resolve(path, uid, gid)
        except FileNotFoundError:
            return None
        return self._revalidate(fh, uid, gid)

    def truncate(self, of: OpenFile, size: int) -> None:
        """ftruncate(2) → SETATTR with a size."""
        self._sync_cursor()
        reply = self._rpc(
            NfsProc.SETATTR, uid=of.uid, gid=of.gid, fh=of.fh, size=size
        )
        if reply.ok() and reply.attributes is not None:
            self.cache.note_local_write(of.fh, reply.attributes, self._cursor)
            of.attrs = reply.attributes

    def unlink(self, path: str, uid: int = 0, gid: int = 0) -> bool:
        """unlink(2) → REMOVE; returns True on success."""
        self._sync_cursor()
        dir_path, name = self._split(path)
        try:
            dir_fh = self._resolve(dir_path, uid, gid)
        except FileNotFoundError:
            return False
        target = self.cache.lookup_name(dir_fh, name, self._cursor)
        reply = self._rpc(NfsProc.REMOVE, uid=uid, gid=gid, fh=dir_fh, name=name)
        self.cache.forget_name(dir_fh, name)
        if target is not None:
            self.cache.forget(target)
        return reply.ok()

    def mkdir(self, path: str, uid: int = 0, gid: int = 0) -> bool:
        """mkdir(2); returns True on success."""
        self._sync_cursor()
        dir_path, name = self._split(path)
        dir_fh = self._resolve(dir_path, uid, gid)
        reply = self._rpc(NfsProc.MKDIR, uid=uid, gid=gid, fh=dir_fh, name=name)
        if reply.ok():
            self.cache.cache_name(dir_fh, name, reply.fh, self._cursor)
            self.cache.update_attrs(reply.fh, reply.attributes, self._cursor)
        return reply.ok()

    def rename(self, src: str, dst: str, uid: int = 0, gid: int = 0) -> bool:
        """rename(2); returns True on success."""
        self._sync_cursor()
        src_dir, src_name = self._split(src)
        dst_dir, dst_name = self._split(dst)
        src_fh = self._resolve(src_dir, uid, gid)
        dst_fh = self._resolve(dst_dir, uid, gid)
        reply = self._rpc(
            NfsProc.RENAME, uid=uid, gid=gid, fh=src_fh, name=src_name,
            target_fh=dst_fh, target_name=dst_name,
        )
        self.cache.forget_name(src_fh, src_name)
        self.cache.forget_name(dst_fh, dst_name)
        if reply.ok() and reply.fh is not None:
            self.cache.cache_name(dst_fh, dst_name, reply.fh, self._cursor)
        return reply.ok()

    def readdir(self, path: str, uid: int = 0, gid: int = 0) -> tuple[str, ...]:
        """List a directory (READDIRPLUS on v3, READDIR on v2)."""
        self._sync_cursor()
        dir_fh = self._resolve(path, uid, gid)
        proc = (
            NfsProc.READDIRPLUS if self.version is NfsVersion.V3 else NfsProc.READDIR
        )
        reply = self._rpc(proc, uid=uid, gid=gid, fh=dir_fh)
        return reply.data_names if reply.ok() else ()

    @property
    def now(self) -> float:
        """The client's local operation cursor (simulated seconds)."""
        return self._cursor

    # -- internals ----------------------------------------------------------------

    def _sync_cursor(self) -> None:
        self._cursor = max(self._cursor, self.clock.now)

    @staticmethod
    def _split(path: str) -> tuple[str, str]:
        path = path.rstrip("/")
        head, _, name = path.rpartition("/")
        return head or "/", name

    def _resolve(self, path: str, uid: int, gid: int) -> FileHandle:
        """Walk ``path`` with cached or wire LOOKUPs.

        Raises:
            FileNotFoundError: if any component is missing.
        """
        fh = self.root
        for part in (p for p in path.split("/") if p):
            cached = self.cache.lookup_name(fh, part, self._cursor)
            if cached is not None:
                fh = cached
                continue
            reply = self._rpc(NfsProc.LOOKUP, uid=uid, gid=gid, fh=fh, name=part)
            if not reply.ok():
                raise FileNotFoundError(f"{path}: missing component {part!r}")
            self.cache.cache_name(fh, part, reply.fh, self._cursor)
            self.cache.update_attrs(reply.fh, reply.attributes, self._cursor)
            fh = reply.fh
        return fh

    def _revalidate(self, fh: FileHandle, uid: int, gid: int) -> FileAttributes | None:
        """GETATTR (plus v3 ACCESS) unless the attribute cache is fresh."""
        if self.cache.attrs_fresh(fh, self._cursor):
            entry = self.cache.get_file(fh)
            return entry.attrs if entry else None
        if self.version is NfsVersion.V3:
            self._rpc(NfsProc.ACCESS, uid=uid, gid=gid, fh=fh)
        reply = self._rpc(NfsProc.GETATTR, uid=uid, gid=gid, fh=fh)
        if not reply.ok():
            return None
        self.cache.update_attrs(fh, reply.attributes, self._cursor)
        return reply.attributes

    def _maybe_revalidate(self, of: OpenFile) -> None:
        if not self.cache.attrs_fresh(of.fh, self._cursor):
            attrs = self._revalidate(of.fh, of.uid, of.gid)
            if attrs is not None:
                of.attrs = attrs

    def _rpc(
        self,
        proc: NfsProc,
        *,
        uid: int,
        gid: int,
        asynchronous: bool = False,
        **args,
    ) -> NfsReply:
        """Issue one call and wait for its reply.

        Asynchronous-capable calls (read/write) are timestamped by the
        nfsiod pool, which may transmit them out of issue order;
        synchronous metadata calls transmit at issue time.
        """
        issue_time = self._cursor
        if asynchronous:
            wire_time = self.nfsiods.dispatch(issue_time)
        else:
            wire_time = issue_time
        # channel.next_xid()/register()/match(), inlined: three calls
        # per exchange on the hottest path in the simulator
        channel = self.channel
        xid = channel._next_xid
        channel._next_xid = xid + 1
        # leading fields positional (declaration order); only the
        # per-proc arguments travel as kwargs
        call = NfsCall(
            wire_time, xid, self.host, self.server_addr, proc,
            self.version, uid, gid, issue_time=issue_time, **args,
        )
        outstanding = channel._outstanding
        outstanding[xid] = call
        spans = self._spans
        tid = events = None
        if spans is not None:
            tid = spans.trace_of(self.host, xid, proc._value_)
            if tid is not None:
                events = [{"name": "issue", "time": issue_time}]
                if wire_time != issue_time:
                    events.append({"name": "wire", "time": wire_time})
        reply = self.exchange(call)
        if reply is None:  # fault-injected loss: retransmit until answered
            reply = self._retransmit(call, events)
        outstanding.pop(reply.xid, None)
        if tid is not None:
            self._emit_client_span(spans, tid, proc, call, reply, events)
        self._n_calls_sent += 1
        gap = self.op_gap * (0.5 + self.rng.random())
        if asynchronous:
            # reads/writes are pipelined through the nfsiods: the
            # application does not wait for each chunk's reply, so the
            # cursor advances by issue spacing only.  This is what
            # allows adjacent calls to reach the wire out of order.
            self._cursor = issue_time + gap
        else:
            # metadata calls are synchronous: the caller blocks
            self._cursor = max(self._cursor, reply.time) + gap
        return reply

    def _emit_client_span(self, spans, tid, proc, call, reply, events) -> None:
        """Emit the root span for one sampled RPC (issue to reply)."""
        attrs = {"client": self.host, "xid": call.xid, "proc": proc._value_}
        if call.fh is not None:
            attrs["fh"] = call.fh.hex
        if call.name is not None:
            attrs["name"] = call.name
        if call.offset is not None:
            attrs["offset"] = call.offset
        if call.count is not None:
            attrs["count"] = call.count
        spans.client_span(
            tid, proc._value_, call.issue_time, reply.time,
            status=reply.status._value_, attrs=attrs, events=events,
        )

    def _retransmit(self, call: NfsCall, events: list | None = None) -> NfsReply:
        """Resend ``call`` with exponential backoff until answered.

        The retransmission keeps its XID — on the wire it is the same
        RPC, just sent again later — so the capture shows the
        duplicate-XID call sequences real passive traces show.  Only
        reachable when the exchange is fault-injected (it returned
        ``None``).
        """
        timeout = self.rpc_timeout
        cap = self.rpc_timeout_max
        for _ in range(self.rpc_max_retransmits):
            call.time += timeout
            self._n_retransmits += 1
            if events is not None:
                events.append({"name": "retransmit", "time": call.time})
            reply = self.exchange(call)
            if reply is not None:
                return reply
            timeout = min(timeout * 2.0, cap)
        raise SimulationError(
            f"{self.host}: xid {call.xid} ({call.proc.value}) unanswered "
            f"after {self.rpc_max_retransmits} retransmissions"
        )

    @property
    def retransmits(self) -> int:
        """RPC retransmissions this client has sent."""
        return self._n_retransmits
