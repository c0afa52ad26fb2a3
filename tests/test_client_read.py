"""Oracle property for ``NfsClient.read``.

``NfsClient.read`` settles a read whose blocks and read-ahead window
are all cached in one pass over that span.  ``ReferenceClient`` keeps
the per-block loop that handles every read the same way; random
sequences of reads, writes, foreign server-side writes, clock jumps and
reopens must leave both clients in the same state after every step.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.client import NfsClient
from repro.fs import BLOCK_SIZE, SimFileSystem
from repro.fs.blockmap import block_range
from repro.netsim import NetworkPath
from repro.nfs import NfsProc
from repro.server import NfsServer
from repro.simcore import SimClock
from repro.trace import TraceCollector

FILES = ("/a", "/b", "/c")
#: the file each open stream reads: two streams share ``/a``, so one
#: can cache blocks past the other's idea of EOF
STREAMS = (0, 0, 1, 2)
AC_TIMEOUT = 3.0


class ReferenceClient(NfsClient):
    """An :class:`NfsClient` whose read runs the per-block loop always."""

    def read(self, of, offset, count):
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
        fh_hex = fh.hex
        entry = cache.get_file(fh)
        blocks = entry.blocks if entry is not None else frozenset()
        lru_move = cache.block_lru.move_to_end
        readahead = self.readahead_blocks
        last_block = of.last_block
        streak = of.sequential_streak
        prefetched = of.prefetched
        absorbed = ra_used = misses = 0
        for block in block_range(offset, count):
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
            if last_block is not None and block == last_block + 1:
                streak += 1
            elif last_block is not None and block != last_block:
                streak = 0
            last_block = block
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


class World:
    """One client over a private server holding ``FILES``."""

    def __init__(self, client_cls, sizes, cache_blocks, readahead):
        self.fs = SimFileSystem(fsid=1)
        for path, size in zip(FILES, sizes):
            node = self.fs.create(self.fs.root, path[1:], 0.0)
            if size:
                self.fs.write(node.handle, 0, size, 0.0)
        self.collector = TraceCollector()
        self.clock = SimClock()
        self.client = client_cls(
            host="10.0.0.1",
            server_addr="10.0.0.100",
            root=self.fs.root,
            exchange=NetworkPath(
                NfsServer(self.fs), random.Random(1), taps=[self.collector]
            ),
            clock=self.clock,
            rng=random.Random(2),
            ac_timeout=AC_TIMEOUT,
            cache_blocks=cache_blocks,
            readahead_blocks=readahead,
        )
        self.open_files = [self.client.open(FILES[f]) for f in STREAMS]

    def apply(self, op):
        kind, *args = op
        client = self.client
        if kind == "advance":
            self.clock.advance_to(max(self.clock.now, client.now) + args[0])
            return None
        if kind == "reopen":
            self.open_files[args[0]] = client.open(FILES[STREAMS[args[0]]])
            return None
        of = self.open_files[args[0]]
        if kind == "read":
            return client.read(of, args[1], args[2])
        if kind == "next":
            # continue the stream; past EOF, start over (a mailbox re-read)
            block = of.last_block + 1 if of.last_block is not None else 0
            if block * BLOCK_SIZE >= of.size:
                block = 0
            return client.read(of, block * BLOCK_SIZE, args[1] * BLOCK_SIZE)
        if kind == "tail":
            return client.read(of, max(0, of.size - args[1]), args[2])
        if kind == "write":
            return client.write(of, args[1], args[2])
        if kind == "append":
            return client.append(of, args[1])
        assert kind == "foreign"
        # another host writes: the mtime moves, so the next revalidation
        # invalidates every cached block of the file
        node = self.fs.resolve(FILES[STREAMS[args[0]]])
        when = max(self.clock.now, client.now) + 1.0
        return self.fs.write(node.handle, args[1], args[2], when)

    def state(self):
        client = self.client
        cache = client.cache
        return {
            "lru": list(cache.block_lru),
            "absorbed": client._n_absorbed,
            "misses": client._n_read_misses,
            "ra_issued": client._n_ra_issued,
            "ra_used": client._n_ra_used,
            "evictions": cache._n_evictions,
            "cursor": client.now,
            "streams": [
                (of.last_block, of.sequential_streak, of.prefetched)
                for of in self.open_files
            ],
        }


_stream = st.integers(0, len(STREAMS) - 1)
_offset = st.one_of(
    st.integers(0, 40).map(lambda b: b * BLOCK_SIZE),
    st.integers(0, 40 * BLOCK_SIZE),
)
#: block multiples are drawn often: a file that ends on a block boundary
#: is where an off-by-one in the read-ahead window's end shows
_length = st.one_of(
    st.integers(1, 4).map(lambda b: b * BLOCK_SIZE),
    st.integers(1, 4 * BLOCK_SIZE),
)
_read = st.tuples(st.just("read"), _stream, _offset,
                  st.one_of(st.just(0), st.integers(1, 24 * BLOCK_SIZE)))
_next = st.tuples(st.just("next"), _stream,
                  st.one_of(st.integers(1, 3), st.integers(0, 12)))
_ops = st.lists(
    st.one_of(
        # weighted towards sequential reads: they build the streaks
        # that turn read-ahead on, and re-read what is cached
        _next, _next, _next, _next, _read, _read,
        st.tuples(st.just("tail"), _stream, st.integers(0, 3 * BLOCK_SIZE),
                  st.integers(1, 6 * BLOCK_SIZE)),
        st.tuples(st.just("write"), _stream, _offset, _length),
        st.tuples(st.just("append"), _stream, _length),
        st.tuples(st.just("foreign"), _stream, _offset, _length),
        st.tuples(st.just("advance"), st.sampled_from([0.5, AC_TIMEOUT + 0.5, 40.0])),
        st.tuples(st.just("reopen"), _stream),
    ),
    min_size=20,
    max_size=80,
)
_size = st.one_of(
    st.integers(0, 6).map(lambda b: b * BLOCK_SIZE),
    st.integers(0, 6 * BLOCK_SIZE),
    st.integers(0, 32 * BLOCK_SIZE),
)


@settings(max_examples=300, deadline=None)
# stream 1 appends a block past stream 0's idea of EOF, then stream 0
# re-reads its last block fully cached: the read-ahead window must
# stop at its own EOF, not take in the cached block beyond it
@example(
    sizes=[3 * BLOCK_SIZE, 0, 0], cache_blocks=64, readahead=1,
    ops=[("next", 0, 1), ("next", 0, 1), ("next", 0, 1),
         ("append", 1, BLOCK_SIZE), ("tail", 0, BLOCK_SIZE, BLOCK_SIZE)],
)
@given(
    sizes=st.lists(_size, min_size=3, max_size=3),
    cache_blocks=st.sampled_from([1, 2, 3, 5, 8, 64]),
    readahead=st.sampled_from([0, 1, 2, 4]),
    ops=_ops,
)
def test_read_matches_per_block_reference(sizes, cache_blocks, readahead, ops):
    fast = World(NfsClient, sizes, cache_blocks, readahead)
    ref = World(ReferenceClient, sizes, cache_blocks, readahead)
    assert fast.collector.records == ref.collector.records
    for step, op in enumerate(ops):
        seen = len(ref.collector.records)
        assert fast.apply(op) == ref.apply(op), (step, op)
        assert fast.collector.records[seen:] == ref.collector.records[seen:], \
            (step, op)
        assert fast.state() == ref.state(), (step, op)
