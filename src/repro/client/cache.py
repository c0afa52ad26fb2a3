"""Weakly-consistent client-side cache.

NFSv2/v3 clients cache data and attributes without server-side
invalidation.  The standard behaviour modelled here:

* Attributes are cached for an *attribute cache timeout* (``ac_timeout``,
  3 s by default, as in typical ``acregmin`` settings).  While fresh,
  opens and stats are absorbed; once stale, the client emits a GETATTR
  (or revalidating LOOKUP/ACCESS) — the traffic that dominates EECS.
* Data is cached per 8 KB block, keyed by file handle.  Whole-file
  invalidation on mtime change reproduces NFS's file-granularity
  consistency: one appended mail message invalidates the entire cached
  inbox (Section 6.1.2).
* The cache has a bounded block capacity with LRU eviction, standing in
  for the client's page cache.

Internally every table is keyed by the handle's hex token rather than
the handle object: string hashing is C-level and cached in the string,
which matters because a read touches the LRU once per 8 KB block.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.nfs.attributes import FileAttributes
from repro.nfs.filehandle import FileHandle
from repro.obs.metrics import MetricsRegistry


@dataclass
class CachedFile:
    """Per-file cache state on one client."""

    fh: FileHandle
    attrs: FileAttributes
    attrs_fetched_at: float
    blocks: set[int] = field(default_factory=set)


class ClientCache:
    """Attribute + block cache for one client host.

    Also caches directory lookups (name -> handle), since lookup
    results are cached by real clients with the same timeout discipline
    as attributes.
    """

    def __init__(
        self,
        *,
        ac_timeout: float = 3.0,
        name_timeout: float = 30.0,
        capacity_blocks: int = 65536,
        metrics: MetricsRegistry | None = None,
        host: str = "client",
    ) -> None:
        self.ac_timeout = ac_timeout
        #: Lookup results live longer than attributes (the dnlc), so a
        #: client with a cached name but stale attributes emits GETATTR
        #: rather than LOOKUP — the EECS-dominating traffic.
        self.name_timeout = name_timeout
        self.capacity_blocks = capacity_blocks
        self._files: dict[str, CachedFile] = {}
        #: (dir token, name) -> (child handle, cached_at)
        self._names: dict[tuple[str, str], tuple[FileHandle, float]] = {}
        #: global block LRU: (fh token, block) -> None
        self._lru: OrderedDict[tuple[str, int], None] = OrderedDict()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # per-block tallies stay plain integers; _sync publishes them
        self._n_invalidations = 0
        self._n_blocks_invalidated = 0
        self._n_evictions = 0
        self._blocks_hw = 0
        self._m_invalidations = self.metrics.counter(
            "client.cache_invalidations", host=host
        )
        self._m_blocks_invalidated = self.metrics.counter(
            "client.blocks_invalidated", host=host
        )
        self._m_cached_blocks = self.metrics.gauge("client.cached_blocks", host=host)
        self._m_evictions = self.metrics.counter("client.block_evictions", host=host)
        self.metrics.add_sync(self._sync)

    def _sync(self) -> None:
        self._m_invalidations.inc(self._n_invalidations - self._m_invalidations.value)
        self._m_blocks_invalidated.inc(
            self._n_blocks_invalidated - self._m_blocks_invalidated.value
        )
        self._m_evictions.inc(self._n_evictions - self._m_evictions.value)
        self._m_cached_blocks.set(self._blocks_hw)  # ratchet the high-water mark
        self._m_cached_blocks.set(len(self._lru))

    @property
    def invalidations(self) -> int:
        """File-granularity invalidation events so far."""
        return self._n_invalidations

    @property
    def blocks_invalidated(self) -> int:
        """Cached blocks discarded by invalidations."""
        return self._n_blocks_invalidated

    # -- attribute cache -----------------------------------------------------

    def get_file(self, fh: FileHandle) -> CachedFile | None:
        """Cached state for ``fh``, or None."""
        return self._files.get(fh.hex)

    def update_attrs(self, fh: FileHandle, attrs: FileAttributes, now: float) -> None:
        """Install fresh attributes, invalidating blocks on mtime change.

        This is the weak-consistency pivot: if the server's mtime
        differs from the cached one, every cached block of the file is
        dropped (file-granularity invalidation).
        """
        entry = self._files.get(fh.hex)
        if entry is None:
            self._files[fh.hex] = CachedFile(fh=fh, attrs=attrs, attrs_fetched_at=now)
            return
        if entry.attrs.mtime != attrs.mtime:
            self._invalidate_blocks(entry)
        entry.attrs = attrs
        entry.attrs_fetched_at = now

    def attrs_fresh(self, fh: FileHandle, now: float) -> bool:
        """True when ``fh`` has attributes within the ac timeout."""
        entry = self._files.get(fh.hex)
        return (
            entry is not None
            and (now - entry.attrs_fetched_at) <= self.ac_timeout
        )

    def note_local_write(self, fh: FileHandle, attrs: FileAttributes, now: float) -> None:
        """Record attributes produced by our *own* write reply.

        Our own writes move the server mtime; that must not invalidate
        our cache (we wrote the data), so this path updates attributes
        without the mtime comparison.
        """
        entry = self._files.get(fh.hex)
        if entry is None:
            self._files[fh.hex] = CachedFile(fh=fh, attrs=attrs, attrs_fetched_at=now)
        else:
            entry.attrs = attrs
            entry.attrs_fetched_at = now

    def forget(self, fh: FileHandle) -> None:
        """Drop all state for ``fh`` (file removed)."""
        entry = self._files.pop(fh.hex, None)
        if entry is not None:
            self._invalidate_blocks(entry)

    # -- name cache -----------------------------------------------------------

    def lookup_name(self, dir_fh: FileHandle, name: str, now: float) -> FileHandle | None:
        """Cached lookup result, or None if absent/expired."""
        hit = self._names.get((dir_fh.hex, name))
        if hit is None:
            return None
        fh, cached_at = hit
        if (now - cached_at) > self.name_timeout:
            return None
        return fh

    def cache_name(self, dir_fh: FileHandle, name: str, fh: FileHandle, now: float) -> None:
        """Remember a lookup result."""
        self._names[(dir_fh.hex, name)] = (fh, now)

    def forget_name(self, dir_fh: FileHandle, name: str) -> None:
        """Drop a name cache entry (after remove/rename)."""
        self._names.pop((dir_fh.hex, name), None)

    # -- block cache -----------------------------------------------------------

    def has_block(self, fh: FileHandle, block: int) -> bool:
        """True when ``block`` of ``fh`` is cached."""
        key = fh.hex
        entry = self._files.get(key)
        if entry is None or block not in entry.blocks:
            return False
        self._lru.move_to_end((key, block))
        return True

    def touch_span(self, entry: CachedFile, first: int, last: int) -> bool:
        """Touch blocks ``first..last`` of ``entry`` once each, ascending.

        Only when every one of them is cached: otherwise nothing is
        touched and the result is False.  One ascending pass leaves the
        LRU in the same order as any touch sequence whose *last* touch
        of each block comes in ascending block order, which is what a
        fully cached sequential read with read-ahead produces.
        """
        span = range(first, last + 1)
        if not entry.blocks.issuperset(span):
            return False
        key = entry.fh.hex
        move = self._lru.move_to_end
        for block in span:
            move((key, block))
        return True

    @property
    def block_lru(self) -> OrderedDict:
        """The global block LRU, keyed by ``(fh token, block)``.

        Exposed for the client's per-block read loop, which hoists
        ``block_lru.move_to_end`` out of the loop; treat it as
        read/touch-only — inserts and evictions stay in here.
        """
        return self._lru

    def add_block(self, fh: FileHandle, block: int) -> None:
        """Insert a block, evicting LRU blocks if over capacity."""
        entry = self._files.get(fh.hex)
        if entry is None:
            return  # no attributes yet: nothing to validate against
        self.add_block_entry(entry, block)

    def add_block_entry(self, entry: CachedFile, block: int) -> None:
        """:meth:`add_block` for callers already holding the entry."""
        lru = self._lru
        key = entry.fh.hex
        if block not in entry.blocks:
            entry.blocks.add(block)
            lru[(key, block)] = None
        else:
            lru.move_to_end((key, block))
        if len(lru) > self.capacity_blocks:
            files = self._files
            while len(lru) > self.capacity_blocks:
                (old_key, old_block), _ = lru.popitem(last=False)
                old_entry = files.get(old_key)
                if old_entry is not None:
                    old_entry.blocks.discard(old_block)
                self._n_evictions += 1
        if len(lru) > self._blocks_hw:
            self._blocks_hw = len(lru)

    def cached_blocks(self, fh: FileHandle) -> int:
        """Number of cached blocks for ``fh``."""
        entry = self._files.get(fh.hex)
        return len(entry.blocks) if entry else 0

    # -- internals ---------------------------------------------------------------

    def _invalidate_blocks(self, entry: CachedFile) -> None:
        self._n_invalidations += 1
        self._n_blocks_invalidated += len(entry.blocks)
        key = entry.fh.hex
        lru_pop = self._lru.pop
        for block in entry.blocks:
            lru_pop((key, block), None)
        entry.blocks.clear()
