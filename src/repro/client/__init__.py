"""Simulated NFS client.

Models the three client-side mechanisms the paper identifies as shaping
the server-observed workload:

* **Weakly-consistent caching** (:mod:`repro.client.cache`): cached
  blocks are revalidated with getattr; an mtime change invalidates the
  whole file, which is what makes CAMPUS mail delivery trigger multi-
  megabyte re-reads (Section 6.1.2).
* **nfsiod scheduling** (:mod:`repro.client.nfsiod`): the async I/O
  daemons that put calls on the wire out of issue order — the paper's
  source of call reordering (Section 4.1.5).
* **POSIX-to-NFS translation** (:mod:`repro.client.client`): open/close
  do not exist on the wire; they appear as lookup/getattr/access
  revalidation traffic.
"""

from repro._lazy import lazy_exports

__all__ = ["ClientCache", "CachedFile", "NfsiodPool", "NfsClient", "OpenFile"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "cache": ("CachedFile", "ClientCache"),
    "nfsiod": ("NfsiodPool",),
    "client": ("NfsClient", "OpenFile"),
})
