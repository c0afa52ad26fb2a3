"""Codec throughput and parallel fan-out benches.

Checks the trace pipeline downstream of simulation on the week-long
CAMPUS trace: binary decode must beat text parsing by a wide margin,
both containers must decode every record, and the ``--jobs``
decode+pair fan-out must give one result for every jobs count.  The
``bench`` and ``speedup`` gates of ``smoke.py`` time the same paths
at smoke scale (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.analysis.parallel import parallel_pair
from repro.trace import read_trace, write_trace


@pytest.fixture(scope="module")
def trace_files(campus_week, tmp_path_factory):
    """The CAMPUS week written once in both container formats."""
    out = tmp_path_factory.mktemp("codec")
    text = out / "campus.trace"
    binary = out / "campus.rtb"
    records = campus_week.system.records()
    write_trace(text, records)
    write_trace(binary, records)
    return text, binary, len(records)


def _decode(path) -> tuple[float, int]:
    """``(wall seconds, records)`` of one full decode of ``path``."""
    started = time.perf_counter()
    count = len(read_trace(path))
    return time.perf_counter() - started, count


def test_decode_throughput(trace_files):
    """Binary decode must beat text parsing by a wide margin."""
    text, binary, count = trace_files
    # len() immediately so each decoded list is freed before the next
    # phase: holding ~900k records of dead weight skews the faster
    # (allocation-bound) codec far more than the parse-bound one
    gc.collect()
    text_s, n_text = _decode(text)
    gc.collect()
    binary_s, n_binary = _decode(binary)
    gc.collect()
    assert n_text == count
    assert n_binary == count

    ratio = text_s / binary_s if binary_s > 0 else float("inf")
    # noise-tolerant floor; the ratio is >=3x on an idle machine
    assert ratio > 2.0


def test_parallel_pair_jobs(trace_files):
    """Decode+pair results are independent of the jobs count."""
    _text, binary, _count = trace_files
    results = {jobs: parallel_pair(binary, jobs=jobs) for jobs in (1, 2, 4)}
    assert results[1] == results[2] == results[4]
