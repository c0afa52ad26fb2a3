"""Named, independently seeded random streams.

Reproducibility discipline for the whole library: a simulation owns one
:class:`RngRegistry` seeded with one integer, and every component asks it
for a *named* stream.  Stream seeds are derived by hashing the registry
seed with the stream name, so:

* the same (seed, name) pair always yields the same stream, and
* adding a new named consumer never changes the draws other consumers see.
"""

from __future__ import annotations

import random

from repro._hashing import blake2b


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name.

    Uses BLAKE2b rather than ``hash()`` so the derivation is stable across
    interpreter runs and PYTHONHASHSEED settings.
    """
    digest = blake2b(
        name.encode("utf-8"),
        digest_size=8,
        key=root_seed.to_bytes(8, "little", signed=False),
    ).digest()
    return int.from_bytes(digest, "little")


def shard_seed(root_seed: int, gid: int) -> int:
    """The master seed of client-group ``gid`` in a sharded simulation.

    The sharded engine (``repro.workloads.sharding``) gives every
    client group its own :class:`RngRegistry` seeded from the run's
    master seed and the group id — *never* from the shard (worker)
    the group happens to land on.  Group membership and group seeds
    are therefore invariant under ``--shards N``, which is what makes
    the merged trace byte-identical for every N.
    """
    if root_seed < 0:
        root_seed = -root_seed
    return derive_seed(root_seed, f"shard:g{gid:04d}")


class RngRegistry:
    """A factory for named :class:`random.Random` streams.

    Example::

        rngs = RngRegistry(seed=42)
        arrival_rng = rngs.stream("campus.arrivals")
        size_rng = rngs.stream("campus.mailbox-sizes")

    Asking for the same name twice returns the same stream object.
    """

    def __init__(self, seed: int = 0) -> None:
        if seed < 0:
            seed = -seed
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = random.Random(derive_seed(self.seed, name))
        self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RngRegistry":
        """Return a child registry whose streams are independent of ours.

        Useful when a sub-simulation (for example one simulated client
        host) needs its own namespace of streams.
        """
        return RngRegistry(derive_seed(self.seed, f"fork:{name}"))

    def names(self) -> list[str]:
        """Names of all streams created so far, in creation order."""
        return list(self._streams)
