"""Shared simulated-trace fixtures for the benchmark harness.

Both traced systems are simulated once per pytest session: a full week
(Sunday 00:00 through Saturday 24:00, matching the paper's 10/21-10/27
window which ran Sunday-Saturday) at small scale.  Every bench then
analyzes the same pair of traces, exactly as the paper's analyses all
ran over the same one-week subset.

Scale note: the generators run at roughly 1/500 of the real systems'
volume (see DESIGN.md); benches therefore report and compare *shape*
statistics (ratios, percentages, distributions), not absolute counts.
"""

from __future__ import annotations

import pytest

from repro.analysis.pairing import PairedOp, PairingStats, pair_all
from repro.simcore.clock import SECONDS_PER_DAY
from repro.workloads import (
    CampusEmailWorkload,
    CampusParams,
    EecsParams,
    EecsResearchWorkload,
    TracedSystem,
)

DAY = SECONDS_PER_DAY
WEEK = 7 * DAY

#: Monday 00:00 (day 1) .. Saturday 24:00 — the analysis window used
#: by the benches (the simulated Sunday warms the caches up).
ANALYSIS_START = 0.0
ANALYSIS_END = WEEK


class SimulatedWeek:
    """One system's simulated week plus its paired operation stream."""

    def __init__(self, name: str, system: TracedSystem, workload) -> None:
        self.name = name
        self.system = system
        self.workload = workload
        self.ops: list[PairedOp]
        self.pairing: PairingStats
        self.ops, self.pairing = pair_all(system.records())

    def window(self, start: float, end: float) -> list[PairedOp]:
        """Ops with call time in [start, end)."""
        return [op for op in self.ops if start <= op.time < end]

    def data_ops(self, start: float, end: float) -> list[PairedOp]:
        """Read/write ops only, in [start, end)."""
        return [
            op
            for op in self.ops
            if start <= op.time < end and (op.is_read() or op.is_write())
        ]


def _simulate_week(name: str, system: TracedSystem, workload) -> SimulatedWeek:
    workload.attach(system)
    # run 10h past the week so Friday's 24h block-lifetime end margin
    # (which reaches Sunday 9am) is fully covered
    system.run(WEEK + 10 * 3600.0)
    return SimulatedWeek(name, system, workload)


@pytest.fixture(scope="session")
def campus_week() -> SimulatedWeek:
    """A week of the CAMPUS email workload."""
    system = TracedSystem(seed=1001, quota_bytes=50 * 1024 * 1024)
    return _simulate_week("CAMPUS", system, CampusEmailWorkload(CampusParams(users=24)))


@pytest.fixture(scope="session")
def eecs_week() -> SimulatedWeek:
    """A week of the EECS research workload."""
    system = TracedSystem(seed=2002)
    return _simulate_week("EECS", system, EecsResearchWorkload(EecsParams(users=5)))
