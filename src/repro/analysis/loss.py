"""Capture-loss estimation (Section 4.1.4).

The paper's monitor lost packets during bursts (up to ~10% on CAMPUS).
Since a reply cannot be decoded without its call, a lost call takes its
reply with it.  The estimator counts unexpected holes: replies with no
call (orphans) and calls with no reply within the reply timeout
(unanswered) — exactly the accounting of
:class:`repro.analysis.pairing.StreamPairer`, which every pairing path
runs.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.pairing import PairingStats, pair_records
from repro.trace.record import TraceRecord


def estimate_loss(records: Iterable[TraceRecord]) -> PairingStats:
    """Pair the trace purely for loss accounting; returns the stats."""
    stats = PairingStats()
    for _ in pair_records(records, stats=stats):
        pass
    return stats


def effective_op_loss_rate(stats: PairingStats) -> float:
    """Fraction of *operations* unusable due to capture loss.

    An operation is lost when either of its packets was dropped: the
    orphan reply's op is undecodable and the unanswered call's op has
    no outcome.
    """
    total = stats.paired + stats.orphan_replies + stats.unanswered_calls
    if total == 0:
        return 0.0
    return (stats.orphan_replies + stats.unanswered_calls) / total
