"""Simulated NFS server.

* :class:`~repro.server.nfs_server.NfsServer` processes
  :class:`~repro.nfs.messages.NfsCall` messages against a
  :class:`~repro.fs.filesystem.SimFileSystem` and produces replies.
* :mod:`repro.server.disk` is a seek-time disk model.
* :mod:`repro.server.readahead` implements both a conventional
  strictly-sequential read-ahead heuristic and the paper's
  sequentiality-metric heuristic (Section 6.4), so the ">5% improvement
  under ~10% reordering" experiment can be reproduced.
"""

from repro._lazy import lazy_exports

__all__ = [
    "NfsServer",
    "DiskModel",
    "ReadAheadEngine",
    "StrictSequentialHeuristic",
    "SequentialityMetricHeuristic",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "nfs_server": ("NfsServer",),
    "disk": ("DiskModel",),
    "readahead": ("ReadAheadEngine", "SequentialityMetricHeuristic",
                  "StrictSequentialHeuristic"),
})
