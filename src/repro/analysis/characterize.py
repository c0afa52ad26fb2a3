"""Whole-system characterization (Table 1).

Table 1 is a qualitative side-by-side of CAMPUS and EECS; each row is
backed by a measurable quantity.  :func:`characterize` computes all of
them from one op stream, its analyses folding each op in one pass over
one shared reconstructed namespace, so the benchmark can print the
table with the measured values substantiating each claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import attrgetter

from repro.analysis.activity import ActivityAnalyzer
from repro.analysis.hierarchy import HierarchyReconstructor
from repro.analysis.lifetimes import (
    DEATH_DELETE,
    DEATH_OVERWRITE,
    DEATH_TRUNCATE,
    BlockLifetimeAnalyzer,
)
from repro.analysis.names import NameCategoryAnalyzer
from repro.analysis.pairing import PairedOp
from repro.analysis.summary import TraceSummary, summarize_trace
from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc
from repro.workloads.namespaces import (
    CATEGORY_LOCK,
    CATEGORY_MAILBOX,
    classify_name,
)

_READ, _WRITE, _OK = NfsProc.READ, NfsProc.WRITE, NfsStatus.OK
_TIME = attrgetter("time")


@dataclass
class Characterization:
    """Measured values behind each Table 1 row for one system."""

    summary: TraceSummary
    metadata_fraction: float
    rw_byte_ratio: float
    rw_op_ratio: float
    peak_variance_reduction: float
    mailbox_file_share: float  # of unique files accessed in peak hours
    lock_file_share: float
    mailbox_byte_share: float  # of data bytes moved
    median_block_lifetime: float | None
    fraction_blocks_dead_within_1s: float
    death_overwrite_fraction: float
    death_delete_fraction: float
    death_truncate_fraction: float

    def dominant_call_type(self) -> str:
        """Table 1 row: 'Most NFS calls are for data/metadata'."""
        return "metadata" if self.metadata_fraction > 0.5 else "data"

    def read_write_balance(self) -> str:
        """Table 1 row: who outnumbers whom, by what factor."""
        if self.summary.read_ops == 0 and self.summary.write_ops == 0:
            return "no data traffic"
        if self.summary.read_ops == 0:
            return "writes outnumber reads entirely"
        if self.rw_op_ratio >= 1.0:
            return f"reads outnumber writes by {self.rw_op_ratio:.1f}"
        return f"writes outnumber reads by {1.0 / self.rw_op_ratio:.1f}"

    def dominant_death_cause(self) -> str:
        """Table 1 row: why blocks die."""
        causes = {
            "overwriting": self.death_overwrite_fraction,
            "deletion": self.death_delete_fraction,
            "truncation": self.death_truncate_fraction,
        }
        return max(causes, key=causes.get)


def characterize(
    ops: list[PairedOp],
    start: float,
    end: float,
    *,
    peak_ops: list[PairedOp] | None = None,
    lifetime_phase_end: float | None = None,
    summary: TraceSummary | None = None,
) -> Characterization:
    """Run every Table 1 measurement over one op window.

    One pass feeds each op through the activity, lifetime and name
    folds, then updates the one namespace they share: victims resolve
    before the namespace changes, as in each analyzer's own
    ``observe``.  The unique-file census reads the ops once more.

    Args:
        ops: paired ops for the full window [start, end).
        peak_ops: ops restricted to peak hours, for the unique-file
            shares; defaults to all ops.
        lifetime_phase_end: end of the block-lifetime end margin;
            defaults to ``end`` (phase 1 is the first half, phase 2
            the second).
        summary: the Table 2 summary of ``ops`` over [start, end), if
            the caller has built it already; default, built here.
    """
    if summary is None:
        summary = summarize_trace(ops, start, end)
    activity = ActivityAnalyzer()
    mid = start + (end - start) / 2
    phase2_end = lifetime_phase_end if lifetime_phase_end is not None else end
    names = NameCategoryAnalyzer()
    hierarchy = names.hierarchy
    # lifetimes skips ops past phase 2 whole, namespace update included,
    # so it shares the namespace only when those ops trail all the rest
    # (as in call-ordered ops): then they update the shared namespace
    # after lifetimes' last fold, and its report never reads it
    cut = _trailing_cut(ops, phase2_end)
    shared = cut is not None
    lifetime = BlockLifetimeAnalyzer(
        start, mid, phase2_end, hierarchy=hierarchy if shared else None
    )
    if shared:
        passes = ((ops[:cut], lifetime.fold), (ops[cut:], _skip))
    else:
        passes = ((ops, lifetime.observe),)
    observe_activity = activity.observe
    fold_names = names.fold
    observe_namespace = hierarchy.observe
    # READ/WRITE bytes per handle, resolved through the final namespace
    moved: dict[str | None, int] = {}
    for batch, fold_lifetime in passes:
        for op in batch:
            observe_activity(op)
            fold_lifetime(op)
            fold_names(op)
            observe_namespace(op)
            if op.status is _OK:
                proc = op.proc
                if proc is _READ or proc is _WRITE:
                    fh = op.fh
                    moved[fh] = moved.get(fh, 0) + (op.count or 0)
    table5 = activity.table5(start, end)
    life_report = lifetime.report()
    shares = names.accessed_shares(peak_ops if peak_ops is not None else ops)
    return Characterization(
        summary=summary,
        metadata_fraction=summary.metadata_fraction,
        rw_byte_ratio=summary.rw_byte_ratio,
        rw_op_ratio=summary.rw_op_ratio,
        peak_variance_reduction=table5.variance_reduction("total_ops"),
        mailbox_file_share=shares.get(CATEGORY_MAILBOX, 0.0),
        lock_file_share=shares.get(CATEGORY_LOCK, 0.0),
        mailbox_byte_share=_mailbox_share(moved, hierarchy),
        median_block_lifetime=life_report.median_lifetime(),
        fraction_blocks_dead_within_1s=life_report.fraction_dead_within(1.0),
        death_overwrite_fraction=life_report.death_fraction(DEATH_OVERWRITE),
        death_delete_fraction=life_report.death_fraction(DEATH_DELETE),
        death_truncate_fraction=life_report.death_fraction(DEATH_TRUNCATE),
    )


def _trailing_cut(ops: list[PairedOp], phase2_end: float) -> int | None:
    """Where the ops past ``phase2_end`` begin, if they all trail the
    rest (``len(ops)`` when none lies past it); else None.  One pass:
    the tail from the back, then the rest at C speed."""
    cut = len(ops)
    while cut and ops[cut - 1].time > phase2_end:
        cut -= 1
    if cut and max(map(_TIME, islice(ops, cut))) > phase2_end:
        return None
    return cut


def _skip(op: PairedOp) -> None:
    """The lifetime fold of an op past phase 2: nothing."""


def _mailbox_share(
    moved: dict[str | None, int], hierarchy: HierarchyReconstructor
) -> float:
    """Share of read+written bytes moving through mailbox files, from
    per-handle byte tallies named by the final namespace."""
    mailbox = total = 0
    for fh, nbytes in moved.items():
        total += nbytes
        known = hierarchy.lookup(fh) if fh else None
        if known is not None and known.name is not None:
            if classify_name(known.name) == CATEGORY_MAILBOX:
                mailbox += nbytes
    return mailbox / total if total else 0.0
