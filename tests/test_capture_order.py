"""The collector's release rule: captures leave in wire order.

A :class:`~repro.trace.TraceCollector` with a clock holds each record
until ``clock.now`` passes its wire time, then releases it to its
sinks in :data:`~repro.trace.collector.record_key` order, arrival
breaking exact ties.  The generated captures follow the simulator's
invariant — no wire time below the clock — and include exact-time ties
across clients, the same packet captured twice, and bursts far ahead
of the clock.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.nfs.messages import NfsCall, NfsReply, NfsStatus
from repro.nfs.procedures import NfsProc
from repro.simcore.clock import SimClock
from repro.trace import TraceCollector
from repro.trace.collector import record_key

#: how far ahead of the clock a capture lands: exactly at it (ties),
#: a reply latency, or a burst far ahead
_AHEAD = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 100.0])
_STEP = st.one_of(
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.25, 0.5, 1.0, 50.0])),
    st.tuples(
        st.just("capture"), _AHEAD,
        st.sampled_from(["a", "b", "c"]),   # client
        st.integers(min_value=1, max_value=3),  # xid
        st.booleans(),                       # reply?
    ),
    st.just(("again",)),  # the last packet captured a second time
)
_STEPS = st.lists(_STEP, min_size=1, max_size=60)


def _packet(index, time, client, xid, reply):
    """A packet whose ``count`` carries its capture index."""
    if reply:
        return NfsReply(time=time, xid=xid, client=client, server="s",
                        proc=NfsProc.GETATTR, status=NfsStatus.OK, count=index)
    return NfsCall(time=time, xid=xid, client=client, server="s",
                   proc=NfsProc.GETATTR, count=index)


def _tap(collector, packet):
    if isinstance(packet, NfsReply):
        collector.on_reply(packet)
    else:
        collector.on_call(packet)


def _replay(steps, *, clocked):
    """Drive a collector through ``steps``; returns what it released,
    each record with the clock reading at its release, plus the
    captures in arrival order."""
    clock = SimClock(10.0)  # room below for the out-of-order capture
    collector = TraceCollector(clock=clock if clocked else None)
    released = []
    collector.sinks = [lambda record: released.append((record, clock.now))]
    captured = []
    last = None
    for step in steps:
        if step[0] == "advance":
            clock.advance_by(step[1])
            last = None  # duplicates are captured in the same instant
            continue
        if step[0] == "again":
            if last is None:
                continue
            packet = last
        else:
            _, ahead, client, xid, reply = step
            packet = _packet(len(captured), clock.now + ahead, client, xid,
                             reply)
        _tap(collector, packet)
        captured.append(packet)
        last = packet
        if clocked:
            # every record the clock has passed is out, and no other
            passed = sum(1 for p in captured if p.time < clock.now)
            assert len(released) == passed
        else:
            assert released == []
    return collector, released, captured


def _stable_sort(captured):
    """The capture order: a stable sort by record_key, as indices."""
    return [p.count for p in sorted(captured, key=record_key)]


@settings(max_examples=300, deadline=None)
@given(steps=_STEPS)
def test_release_is_a_stable_sort_by_record_key(steps):
    collector, released, captured = _replay(steps, clocked=True)
    # released only once the clock had passed the record's wire time
    assert all(record.time < now for record, now in released)
    collector.flush()
    assert [record.count for record, _ in released] == _stable_sort(captured)
    assert len(collector) == 0


@settings(max_examples=150, deadline=None)
@given(steps=_STEPS)
def test_a_clockless_collector_releases_only_on_flush(steps):
    collector, released, captured = _replay(steps, clocked=False)
    assert len(collector) == len(captured)
    collector.flush()
    assert [record.count for record, _ in released] == _stable_sort(captured)


@settings(max_examples=150, deadline=None)
@given(steps=_STEPS, clocked=st.booleans(), same_time=st.booleans())
def test_a_capture_below_the_released_point_raises(steps, clocked, same_time):
    collector, released, _ = _replay(steps, clocked=clocked)
    if not released:
        collector.flush()
    if not released:
        return
    last = released[-1][0]
    # behind the released point: earlier in time, or the same instant
    # with a smaller pairing key than the last record out
    time = last.time if same_time else last.time - 0.125
    with pytest.raises(SimulationError):
        collector.on_call(_packet(-1, time, "", 0, False))


def test_exact_ties_keep_arrival_order():
    clock = SimClock()
    collector = TraceCollector(clock=clock)
    packets = [_packet(index, 1.0, "c", 7, False) for index in range(3)]
    packets.insert(1, _packet(9, 1.0, "b", 7, False))
    for packet in packets:
        _tap(collector, packet)
    clock.advance_to(2.0)
    _tap(collector, _packet(10, 2.0, "a", 1, False))
    assert [r.count for r in collector.records] == [9, 0, 1, 2]
    assert [r.count for r in collector.sorted_records()] == [9, 0, 1, 2, 10]
