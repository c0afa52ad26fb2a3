"""Property-based tests (hypothesis) for the ingest normalization core.

The core's contract: for ANY interleaving of valid, out-of-order,
duplicate, and garbage source lines, the ``skip`` policy never raises
and always writes a time-sorted trace from a deterministic record
stream; the ``fail`` policy raises :class:`IngestError` exactly when
something is wrong.
"""

import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import IngestError
from repro.ingest import (
    REGISTRY, AdapterRegistry, IngestStats, TraceAdapter, ingest, normalize,
)
from repro.ingest.base import BadLine
from repro.nfs.procedures import NfsProc
from repro.trace.reader import read_trace
from repro.trace.record import Direction, TraceRecord


def _record(time: float, xid: int) -> TraceRecord:
    return TraceRecord(
        time=time, direction=Direction.CALL, xid=xid,
        client="c", server="s", proc=NfsProc.GETATTR,
    )


# an adapter event stream: records with arbitrary (bounded) times,
# now and then a non-finite one, interleaved with BadLine garbage;
# duplicates arise naturally from the narrow time/xid ranges
events_strategy = st.lists(
    st.one_of(
        st.builds(
            _record,
            st.one_of(
                st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
                st.sampled_from([math.nan, math.inf, -math.inf]),
            ),
            st.integers(min_value=1, max_value=5),
        ),
        st.builds(
            BadLine,
            st.sampled_from(["unparseable", "bad-value", "short-line"]),
            st.text(max_size=20),
            st.integers(min_value=1, max_value=99),
        ),
    ),
    max_size=60,
)


class _Canned(TraceAdapter):
    """Replays a fixed event stream, whatever the source lines."""

    name = "canned"
    field_coverage = frozenset(
        {"time", "direction", "xid", "client", "server", "proc"}
    )

    def __init__(self, events) -> None:
        self.events = events

    def sniff_lines(self, lines) -> float:
        return 1.0

    def records(self, lines):
        yield from self.events


def _ingest_events(events, out, *, window, on_error="skip") -> IngestStats:
    registry = AdapterRegistry()
    registry.register(_Canned(events))
    return ingest([], out, registry=registry, fmt="canned",
                  on_error=on_error, window=window)


@given(events_strategy, st.floats(min_value=0.1, max_value=40.0))
@settings(max_examples=200)
def test_skip_never_raises_and_sorts(events, window):
    """skip: any interleaving ingests to a finite, non-decreasing trace."""
    # a non-finite time is always skipped, like a garbage line
    garbage = sum(
        1 for e in events
        if isinstance(e, BadLine) or not math.isfinite(e.time)
    )
    records = len(events) - garbage
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.rtb"
        if records == 0:
            with pytest.raises(ValueError, match="no records ingested"):
                _ingest_events(events, out, window=window)
            assert not out.exists()
            return
        stats = _ingest_events(events, out, window=window)
        written = read_trace(out)
    times = [r.time for r in written]
    assert all(math.isfinite(t) for t in times)
    assert times == sorted(times)
    # every record is either written or counted as skipped, never lost
    assert stats.records == len(written)
    assert len(written) + (stats.skipped - garbage) == records
    assert stats.skipped >= garbage


def _calls(*times: float) -> list:
    return [_record(time, xid) for xid, time in enumerate(times, 1)]


class TestLateRecordRule:
    """A record more than ``window`` behind the newest one is late."""

    def test_skip_drops_a_record_past_the_window(self, tmp_path):
        out = tmp_path / "out.rtb"
        stats = _ingest_events(_calls(0.0, 10.0, 3.0), out, window=5.0)
        assert stats.reasons == {"time-regression": 1}
        assert stats.skipped == 1
        assert [r.time for r in read_trace(out)] == [0.0, 10.0]

    def test_fail_raises_on_a_record_past_the_window(self, tmp_path):
        out = tmp_path / "out.rtb"
        with pytest.raises(IngestError, match="late"):
            _ingest_events(_calls(0.0, 10.0, 3.0), out, window=5.0,
                           on_error="fail")
        assert not out.exists()

    def test_record_exactly_window_behind_is_kept_in_order(self, tmp_path):
        out = tmp_path / "out.rtb"
        stats = _ingest_events(_calls(0.0, 5.0, 0.0), out, window=5.0,
                               on_error="fail")
        assert stats.skipped == 0
        assert stats.out_of_order == 1
        assert [(r.time, r.xid) for r in read_trace(out)] == [
            (0.0, 1), (0.0, 3), (5.0, 2),
        ]


class TestNonFiniteTime:
    """A record whose time is nan, inf or -inf is a ``bad-time``."""

    def test_skip_drops_an_infinite_time(self, tmp_path):
        out = tmp_path / "out.rtb"
        stats = _ingest_events(_calls(0.0, math.inf, 1.0, 2.0), out,
                               window=5.0)
        assert stats.reasons == {"bad-time": 1}
        assert [r.time for r in read_trace(out)] == [0.0, 1.0, 2.0]

    def test_skip_drops_a_nan_time(self, tmp_path):
        out = tmp_path / "out.rtb"
        stats = _ingest_events(_calls(0.0, math.nan, 1.0), out, window=5.0)
        assert stats.reasons == {"bad-time": 1}
        assert [r.time for r in read_trace(out)] == [0.0, 1.0]

    def test_fail_raises_on_an_infinite_time(self, tmp_path):
        out = tmp_path / "out.rtb"
        with pytest.raises(IngestError, match="not finite"):
            _ingest_events(_calls(0.0, math.inf, 1.0), out, window=5.0,
                           on_error="fail")
        assert not out.exists()


@given(events_strategy, st.floats(min_value=0.1, max_value=40.0))
@settings(max_examples=100)
def test_skip_is_deterministic(events, window):
    """The same event stream always normalizes identically."""
    runs = [
        list(normalize(iter(events), adapter="x", on_error="skip",
                       window=window))
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


@given(events_strategy)
@settings(max_examples=100)
def test_fail_raises_iff_garbage_or_regression(events):
    """fail: IngestError exactly when skip would have skipped."""
    stats = IngestStats(adapter="x")
    list(normalize(iter(events), adapter="x", on_error="skip",
                   window=1.0, stats=stats))
    if stats.skipped == 0:
        out = list(normalize(iter(events), adapter="x", on_error="fail",
                             window=1.0))
        assert len(out) == stats.records
    else:
        with pytest.raises(IngestError):
            list(normalize(iter(events), adapter="x", on_error="fail",
                           window=1.0))


@given(st.text(max_size=200))
@settings(max_examples=100)
def test_adapters_never_raise_on_garbage_text(text):
    """records() yields BadLine for garbage; it never raises."""
    lines = text.splitlines()
    for adapter in REGISTRY.adapters():
        for event in adapter.records(lines):
            assert isinstance(event, (TraceRecord, BadLine))


def test_bad_policy_raises():
    with pytest.raises(IngestError, match="error policy"):
        list(normalize(iter([]), adapter="x", on_error="abort"))
