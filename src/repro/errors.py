"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at the API boundary.  Subsystems define their
own narrow subclasses here rather than in each package so the full error
surface of the library is visible in one place.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ClockError(SimulationError):
    """An operation attempted to move simulated time backwards."""


class FsError(ReproError):
    """Base class for simulated file system errors.

    Mirrors the NFS status codes the server would put on the wire; the
    ``nfs_status`` attribute carries the NFSv3 status name so the server
    layer can translate an exception directly into a reply status.
    """

    nfs_status = "NFS3ERR_IO"


class NoSuchFileError(FsError):
    """Lookup target does not exist (NFS3ERR_NOENT)."""

    nfs_status = "NFS3ERR_NOENT"


class NotADirectoryError_(FsError):
    """Path component is not a directory (NFS3ERR_NOTDIR)."""

    nfs_status = "NFS3ERR_NOTDIR"


class IsADirectoryError_(FsError):
    """File operation applied to a directory (NFS3ERR_ISDIR)."""

    nfs_status = "NFS3ERR_ISDIR"


class FileExistsError_(FsError):
    """Exclusive create of an existing name (NFS3ERR_EXIST)."""

    nfs_status = "NFS3ERR_EXIST"


class DirectoryNotEmptyError(FsError):
    """rmdir of a non-empty directory (NFS3ERR_NOTEMPTY)."""

    nfs_status = "NFS3ERR_NOTEMPTY"


class StaleHandleError(FsError):
    """File handle refers to a deleted file (NFS3ERR_STALE)."""

    nfs_status = "NFS3ERR_STALE"


class QuotaExceededError(FsError):
    """Write would exceed the owner's quota (NFS3ERR_DQUOT)."""

    nfs_status = "NFS3ERR_DQUOT"


class TraceFormatError(ReproError):
    """A trace file or record could not be parsed."""


class AnonymizationError(ReproError):
    """The anonymizer was configured or used inconsistently."""


class IngestError(ReproError):
    """A foreign-trace adapter or the ingest pipeline failed.

    Raised for unreadable input streams and, under the ``fail`` error
    policy, for any malformed source line (the ``skip`` policy counts
    and drops them instead — see :mod:`repro.ingest`).
    """


class AnalysisError(ReproError):
    """An analysis was run on input it cannot interpret."""


class StreamMemoryError(AnalysisError):
    """A streaming operator exceeded its configured memory budget."""


class WorkerDiedError(ReproError):
    """A fan-out worker process died before its task finished.

    Raised by :func:`repro.parallel.run_tasks` when the process pool
    reports a broken worker (killed by a signal or the OOM killer); the
    run is abandoned, not retried.
    """


class WorkloadConfigError(ReproError):
    """A workload generator was configured with invalid parameters."""


class FaultSpecError(ReproError):
    """A fault-injection spec string or clause was invalid."""


class ScenarioSpecError(ReproError):
    """A workload-scenario spec string or clause was invalid."""
