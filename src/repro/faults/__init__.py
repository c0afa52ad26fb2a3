"""Deterministic fault injection for the simulated NFS pipeline.

See ``docs/FAULTS.md`` for the spec grammar, the determinism
guarantee, and the ledger semantics the chaos tests verify.
"""

from repro._lazy import lazy_exports

__all__ = [
    "MAX_FAULT_DELAY",
    "CrashClause",
    "DelayClause",
    "DropClause",
    "DupClause",
    "FaultClause",
    "FaultInjector",
    "FaultLedger",
    "FaultSchedule",
    "ReorderClause",
    "SlowDiskClause",
    "crash",
    "delay",
    "drop",
    "dup",
    "reorder",
    "slowdisk",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "injector": ("FaultInjector",),
    "ledger": ("FaultLedger",),
    "spec": ("MAX_FAULT_DELAY", "CrashClause", "DelayClause", "DropClause",
             "DupClause", "FaultClause", "FaultSchedule", "ReorderClause",
             "SlowDiskClause", "crash", "delay", "drop", "dup", "reorder",
             "slowdisk"),
})
