"""Daily activity summaries (Table 2).

Total operations, data read/written, read/write operation counts, and
the byte and op read/write ratios, normalized to per-day averages over
the analysis window — the numbers Table 2 compares against the INS,
RES, NT, and Sprite traces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.pairing import PairedOp
from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import (
    ATTRIBUTE_CHECK_PROCS,
    DATA_PROCS,
    METADATA_PROCS,
    NfsProc,
)
from repro.simcore.clock import SECONDS_PER_DAY

_READ, _WRITE, _OK = NfsProc.READ, NfsProc.WRITE, NfsStatus.OK


@dataclass
class TraceSummary:
    """Aggregate counts over one analysis window."""

    start: float
    end: float
    total_ops: int = 0
    read_ops: int = 0
    write_ops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    metadata_ops: int = 0
    data_ops: int = 0
    attribute_check_ops: int = 0
    ops_by_proc: Counter = field(default_factory=Counter)

    @property
    def days(self) -> float:
        """Window length in days."""
        return max((self.end - self.start) / SECONDS_PER_DAY, 1e-9)

    # -- per-day figures (the Table 2 rows) -------------------------------------

    @property
    def ops_per_day(self) -> float:
        return self.total_ops / self.days

    @property
    def read_ops_per_day(self) -> float:
        return self.read_ops / self.days

    @property
    def write_ops_per_day(self) -> float:
        return self.write_ops / self.days

    @property
    def gb_read_per_day(self) -> float:
        return self.bytes_read / 1e9 / self.days

    @property
    def gb_written_per_day(self) -> float:
        return self.bytes_written / 1e9 / self.days

    @property
    def rw_byte_ratio(self) -> float:
        """Read/write bytes ratio (CAMPUS ≈ 2.7-3.0, EECS < 1)."""
        if self.bytes_written == 0:
            return float("inf") if self.bytes_read else 0.0
        return self.bytes_read / self.bytes_written

    @property
    def rw_op_ratio(self) -> float:
        """Read/write ops ratio (CAMPUS ≈ 3, EECS ≈ 0.7)."""
        if self.write_ops == 0:
            return float("inf") if self.read_ops else 0.0
        return self.read_ops / self.write_ops

    @property
    def metadata_fraction(self) -> float:
        """Share of ops that are metadata (Table 1's data-vs-metadata)."""
        if self.total_ops == 0:
            return 0.0
        return self.metadata_ops / self.total_ops

    @property
    def attribute_check_fraction(self) -> float:
        """Share of ops that are lookup/getattr/access (Section 6.1.1)."""
        if self.total_ops == 0:
            return 0.0
        return self.attribute_check_ops / self.total_ops

    # -- accumulation ------------------------------------------------------------

    def add(self, op: PairedOp) -> None:
        """Fold one op into the summary (no window check).

        The single shared stat definition: both the batch
        :func:`summarize_trace` and the streaming port
        (:class:`repro.stream.analyses.StreamSummary`) accumulate
        through this method, so the two paths cannot drift.
        """
        proc = op.proc
        self.total_ops += 1
        self.ops_by_proc[proc] += 1
        if proc in METADATA_PROCS:
            self.metadata_ops += 1
        if proc in DATA_PROCS:
            self.data_ops += 1
        if proc in ATTRIBUTE_CHECK_PROCS:
            self.attribute_check_ops += 1
        if op.status is not _OK:
            return
        if proc is _READ:
            self.read_ops += 1
            self.bytes_read += op.count or 0
        elif proc is _WRITE:
            self.write_ops += 1
            self.bytes_written += op.count or 0


def summarize_trace(
    ops: Iterable[PairedOp], start: float, end: float
) -> TraceSummary:
    """Build a :class:`TraceSummary` over ops in [start, end)."""
    summary = TraceSummary(start=start, end=end)
    add = summary.add
    for op in ops:
        if start <= op.time < end:
            add(op)
    return summary


#: Reference rows from the prior studies quoted in Table 2, for the
#: benchmark harness to print alongside our measured values.  Values
#: are per-day averages exactly as the paper tabulates them.
PRIOR_STUDY_ROWS = {
    "CAMPUS (paper, 10/21-10/27)": {
        "ops_millions": 26.7, "gb_read": 119.6, "read_ops_millions": 17.29,
        "gb_written": 44.57, "write_ops_millions": 5.73,
        "rw_byte_ratio": 2.68, "rw_op_ratio": 3.01,
    },
    "EECS (paper, 10/21-10/27)": {
        "ops_millions": 4.44, "gb_read": 5.10, "read_ops_millions": 0.461,
        "gb_written": 9.086, "write_ops_millions": 0.667,
        "rw_byte_ratio": 0.56, "rw_op_ratio": 0.69,
    },
    "INS (Roselli)": {
        "ops_millions": 8.30, "gb_read": 3.05, "read_ops_millions": 2.32,
        "gb_written": 0.542, "write_ops_millions": 0.15,
        "rw_byte_ratio": 5.6, "rw_op_ratio": 15.4,
    },
    "RES (Roselli)": {
        "ops_millions": 3.20, "gb_read": 1.70, "read_ops_millions": 0.303,
        "gb_written": 0.455, "write_ops_millions": 0.071,
        "rw_byte_ratio": 3.7, "rw_op_ratio": 4.27,
    },
    "NT (Roselli)": {
        "ops_millions": 3.87, "gb_read": 4.04, "read_ops_millions": 1.27,
        "gb_written": 0.639, "write_ops_millions": 0.231,
        "rw_byte_ratio": 6.3, "rw_op_ratio": 4.49,
    },
    "Sprite (Baker)": {
        "ops_millions": 0.432, "gb_read": 5.36, "read_ops_millions": 0.207,
        "gb_written": 1.16, "write_ops_millions": 0.057,
        "rw_byte_ratio": 4.6, "rw_op_ratio": 3.61,
    },
}
