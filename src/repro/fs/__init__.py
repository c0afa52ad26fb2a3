"""Simulated server-side file system.

The substrate the simulated NFS server exports.  It models exactly the
state a passive NFS tracer's view depends on — the namespace (directory
tree), per-file attributes, sizes at 8 KB block granularity, and
per-user quotas — without storing any file contents, since the paper's
analyses never look at data bytes, only at offsets and counts.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Inode",
    "SimFileSystem",
    "BLOCK_SIZE",
    "block_count",
    "block_range",
    "bytes_to_blocks",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "inode": ("Inode",),
    "blockmap": ("BLOCK_SIZE", "block_count", "block_range",
                 "bytes_to_blocks"),
    "filesystem": ("SimFileSystem",),
})
