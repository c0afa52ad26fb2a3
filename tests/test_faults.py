"""Unit tests for the repro.faults package: spec grammar, ledger, and
injector plumbing (the end-to-end guarantees live in
tests/test_chaos_matrix.py)."""

import math

import pytest

from repro.errors import FaultSpecError, SimulationError
from repro.faults import (
    CrashClause,
    DropClause,
    FaultInjector,
    FaultLedger,
    FaultSchedule,
    SlowDiskClause,
    crash,
    delay,
    drop,
    dup,
    reorder,
    slowdisk,
)
from repro.nfs.messages import NfsCall, NfsReply
from repro.nfs.procedures import NfsProc
from repro.simcore.rng import RngRegistry
from repro.workloads import CampusEmailWorkload, CampusParams, TracedSystem


class TestSpecGrammar:
    def test_parse_single_clause(self):
        schedule = FaultSchedule.parse("drop(p=0.01)")
        assert len(schedule) == 1
        clause = schedule.clauses[0]
        assert isinstance(clause, DropClause)
        assert clause.p == 0.01
        assert clause.kind == "both"
        assert clause.where == "wire"

    def test_parse_full_grammar(self):
        schedule = FaultSchedule.parse(
            "drop(p=0.01,kind=reply,where=capture,window=100:200);"
            "dup(p=0.005,kind=call);delay(p=0.01,ms=50);"
            "reorder(p=0.02,ms=20,window=50:);"
            "crash(at=3600,down=30,every=86400);"
            "slowdisk(at=100,dur=60,factor=8)"
        )
        assert [c.name for c in schedule] == [
            "drop", "dup", "delay", "reorder", "crash", "slowdisk",
        ]
        d = schedule.clauses[0]
        assert (d.start, d.end, d.kind, d.where) == (100.0, 200.0, "reply", "capture")
        r = schedule.clauses[3]
        assert r.start == 50.0 and r.end == math.inf

    def test_parse_is_idempotent_on_schedules(self):
        schedule = drop(0.1)
        assert FaultSchedule.parse(schedule) is schedule

    def test_spec_round_trips(self):
        specs = [
            "drop(p=0.01)",
            "drop(p=0.01,kind=reply,where=capture,window=100:200)",
            "dup(p=0.005,kind=call);delay(p=0.01,ms=50)",
            "crash(at=3600,down=30,every=86400)",
            "slowdisk(at=100,dur=60,factor=8)",
        ]
        for spec in specs:
            schedule = FaultSchedule.parse(spec)
            assert FaultSchedule.parse(schedule.spec()) == schedule

    def test_builders_match_grammar(self):
        built = drop(0.01) + dup(0.005, kind="call") + delay(0.01, 50) \
            + reorder(0.02, 20) + crash(3600, 30) + slowdisk(100, 60, 8)
        parsed = FaultSchedule.parse(
            "drop(p=0.01);dup(p=0.005,kind=call);delay(p=0.01,ms=50);"
            "reorder(p=0.02,ms=20);crash(at=3600,down=30);"
            "slowdisk(at=100,dur=60,factor=8)"
        )
        assert built == parsed

    @pytest.mark.parametrize("bad", [
        "",
        ";",
        "explode(p=0.1)",
        "drop",
        "drop(p)",
        "drop(p=)",
        "drop(p=banana)",
        "drop(p=2.0)",
        "drop(p=-0.1)",
        "drop(p=0.1,kind=sideways)",
        "drop(p=0.1,where=everywhere)",
        "drop(p=0.1,window=10)",
        "drop(p=0.1,window=abc:def)",
        "drop(p=0.1,window=50:20)",
        "drop(p=0.1,ms=5)",
        "delay(p=0.1)",
        "delay(p=0.1,ms=0)",
        "crash(at=10,down=0)",
        "crash(at=10,down=30,every=20)",
        "slowdisk(at=10,dur=60,factor=0.5)",
        "slowdisk(at=10,dur=60,factor=1000)",
    ])
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            FaultSchedule.parse(bad)

    def test_crash_windows(self):
        clause = CrashClause(at=100.0, down=10.0, every=50.0)
        assert not clause.crashed(99.0)
        assert clause.crashed(100.0)
        assert clause.crashed(109.9)
        assert not clause.crashed(110.0)
        assert clause.crashed(150.0)  # periodic repeat
        assert not clause.crashed(165.0)

    def test_slowdisk_window(self):
        clause = SlowDiskClause(at=100.0, dur=50.0, factor=8.0)
        assert not clause.slowed(99.0)
        assert clause.slowed(100.0)
        assert not clause.slowed(150.0)


def _call(t, xid, client="c1"):
    return NfsCall(time=t, xid=xid, client=client, server="s",
                   proc=NfsProc.GETATTR, fh=None)


def _reply(t, xid, client="c1"):
    return NfsReply(time=t, xid=xid, client=client, server="s",
                    proc=NfsProc.GETATTR)


class TestFaultLedger:
    def test_reply_timeout_mirrors_pairing(self):
        # the ledger keeps its own literal to avoid a package cycle;
        # it must track the pairer's timeout exactly
        from repro.analysis.pairing import DEFAULT_REPLY_TIMEOUT as pairing_timeout
        from repro.faults.ledger import DEFAULT_REPLY_TIMEOUT as ledger_timeout

        assert ledger_timeout == pairing_timeout

    def test_clean_pairs(self):
        ledger = FaultLedger()
        for xid in range(3):
            ledger.on_call(_call(xid * 1.0, xid))
            ledger.on_reply(_reply(xid * 1.0 + 0.001, xid))
        stats = ledger.expected_stats()
        assert (stats.calls, stats.replies, stats.paired) == (3, 3, 3)
        assert stats.unanswered_calls == 0

    def test_outstanding_calls_count_as_unanswered(self):
        ledger = FaultLedger()
        ledger.on_call(_call(1.0, 1))
        ledger.on_call(_call(2.0, 2))
        ledger.on_reply(_reply(2.001, 2))
        assert ledger.expected_stats().unanswered_calls == 1
        # non-destructive: asking twice reports the same thing
        assert ledger.expected_stats().unanswered_calls == 1

    def test_duplicate_call_shadows_twin(self):
        ledger = FaultLedger()
        ledger.on_call(_call(1.0, 1))
        ledger.on_call(_call(1.0, 1))
        ledger.on_reply(_reply(1.001, 1))
        stats = ledger.expected_stats()
        assert stats.paired == 1
        assert stats.unanswered_calls == 1

    def test_duplicate_reply_within_timeout(self):
        ledger = FaultLedger()
        ledger.on_call(_call(1.0, 1))
        ledger.on_reply(_reply(1.001, 1))
        ledger.on_reply(_reply(1.002, 1))
        stats = ledger.expected_stats()
        assert stats.duplicate_replies == 1
        assert stats.orphan_replies == 0

    def test_stale_reply_is_an_orphan(self):
        ledger = FaultLedger()
        ledger.on_call(_call(1.0, 1))
        ledger.on_reply(_reply(1.001, 1))
        ledger.on_reply(_reply(100.0, 1))  # far beyond the 8s timeout
        stats = ledger.expected_stats()
        assert stats.duplicate_replies == 0
        assert stats.orphan_replies == 1

    def test_reply_after_timeout_loses_its_call(self):
        ledger = FaultLedger()
        ledger.on_call(_call(0.0, 1))
        ledger.on_reply(_reply(9.0, 1))  # 1 s past the 8 s timeout
        stats = ledger.expected_stats()
        assert stats.paired == 0
        assert stats.unanswered_calls == 1
        assert stats.orphan_replies == 1


class TestInjectorPlumbing:
    def test_rng_streams_are_per_clause(self):
        # two injectors over the same registry names draw identically
        a = FaultInjector("drop(p=0.5)", RngRegistry(7))
        b = FaultInjector("drop(p=0.5)", RngRegistry(7))
        decisions = [(a.drop_call_wire(t), b.drop_call_wire(t))
                     for t in range(100)]
        assert all(x == y for x, y in decisions)
        assert any(x for x, _ in decisions)
        assert not all(x for x, _ in decisions)

    def test_inactive_window_draws_nothing(self):
        inj = FaultInjector("drop(p=1.0,window=1000:2000)", RngRegistry(7))
        assert not inj.drop_call_wire(10.0)
        assert inj.drop_call_wire(1500.0)
        assert not inj.drop_call_wire(2500.0)
        assert inj.injected == {"drop.call.wire": 1}

    def test_latency_factor_compounds(self):
        inj = FaultInjector(
            "slowdisk(at=0,dur=100,factor=4);slowdisk(at=50,dur=100,factor=2)",
            RngRegistry(7),
        )
        assert inj.latency_factor(10.0) == 4.0
        assert inj.latency_factor(75.0) == 8.0
        assert inj.latency_factor(200.0) == 1.0

    def test_retransmission_gives_up_eventually(self):
        system = TracedSystem(
            seed=3, faults="drop(p=1.0,kind=call)",
        )
        client = system.add_client("10.1.1.1")
        client.rpc_max_retransmits = 5
        with pytest.raises(SimulationError, match="unanswered after 5"):
            client.stat("/")

    def test_faultless_system_has_no_injector(self):
        system = TracedSystem(seed=3)
        assert system.faults is None
        assert system.fault_ledger is None


class TestRetransmissionTrace:
    """Wire drops must self-heal: the trace shows the retransmitted
    exchange and pairing reports zero loss."""

    def test_wire_drops_leave_no_unanswered_calls(self):
        system = TracedSystem(seed=9, faults="drop(p=0.05)")
        CampusEmailWorkload(CampusParams(users=2)).attach(system)
        system.run(86400.0)  # a full day: the workload is diurnal
        injected = system.faults.injected
        assert injected.get("drop.call.wire") or injected.get("drop.reply.wire")
        retransmits = sum(c.retransmits for c in system.clients.values())
        assert retransmits >= sum(
            v for k, v in injected.items() if k.startswith("drop.")
        )
        stats = system.fault_ledger.expected_stats()
        assert stats.unanswered_calls == 0
        assert stats.orphan_replies == 0
