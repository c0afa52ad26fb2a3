"""Chaos matrix: fault schedules x workloads, end to end.

Every cell of the matrix drives a full simulated day through a fault
schedule and checks the three headline guarantees of `repro.faults`:

* determinism — one (seed, schedule) pair always produces the same
  trace, byte for byte;
* exact accounting — the injector's ledger predicts the pairing stats
  (batch, streaming, and parallel) exactly, so injected loss equals
  analysis-reported loss with no slack term;
* pipeline equivalence — `repro analyze` and `repro analyze --stream`
  render identical summary and runs sections from a faulted trace.

Simulations are cached per cell (module scope) since several tests
inspect the same run.
"""

import functools

import pytest

from repro.analysis.pairing import PairingStats, pair_records
from repro.analysis.parallel import parallel_pair
from repro.cli import main
from repro.scenarios import compile_workload
from repro.simcore.clock import SECONDS_PER_DAY
from repro.stream import StreamEngine
from repro.trace.record import record_to_line

SEED = 11
SIM_SECONDS = SECONDS_PER_DAY  # EECS is diurnal and only wakes mid-day

#: The matrix rows: one schedule per fault family plus a kitchen sink.
#: Crash windows sit in the afternoon so both workloads are busy when
#: the server goes down.
SCHEDULES = {
    "drop": "drop(p=0.02)",
    "dup": "dup(p=0.02,kind=reply);dup(p=0.01,kind=call)",
    "reorder": "reorder(p=0.05,ms=40);delay(p=0.05,ms=30)",
    "crash": "crash(at=46800,down=30,every=7200)",
    "capture": "drop(p=0.01,where=capture);dup(p=0.02,kind=reply)",
    "mixed": (
        "drop(p=0.01,window=21600:86400);dup(p=0.01,kind=reply);"
        "reorder(p=0.03,ms=25);crash(at=50400,down=20)"
    ),
}

#: The matrix columns: the two paper systems plus a flowops library
#: scenario, all dispatched through the scenario registry — the fault
#: guarantees must hold for the generic interpreter too.
SYSTEMS = ("campus", "eecs", "fileserver")

#: Small populations keep a cell's simulated day tractable.
USERS = {"campus": 3, "eecs": 2, "fileserver": 3}

CELLS = [(system, name) for system in SYSTEMS for name in SCHEDULES]


def _simulate(system_name, spec):
    """One faulted simulated day; returns everything the tests inspect."""
    from repro.workloads import TracedSystem

    compiled = compile_workload(system_name, users=USERS[system_name])
    system = TracedSystem(
        seed=SEED, quota_bytes=compiled.quota_bytes, faults=spec
    )
    compiled.workload.attach(system)
    system.run(SIM_SECONDS)
    records = system.records()
    text = "\n".join(record_to_line(r) for r in records) + "\n"
    expected = system.fault_ledger.expected_stats()
    injected = dict(system.faults.injected)
    return records, text, expected, injected


@functools.lru_cache(maxsize=None)
def _cached(system_name, schedule_name):
    return _simulate(system_name, SCHEDULES[schedule_name])


@pytest.mark.parametrize(("system_name", "schedule_name"), CELLS)
class TestChaosMatrix:
    def test_schedule_actually_fires(self, system_name, schedule_name):
        records, _, _, injected = _cached(system_name, schedule_name)
        assert len(records) > 500
        assert sum(injected.values()) > 0

    def test_rerun_is_byte_identical(self, system_name, schedule_name):
        _, text, expected, injected = _cached(system_name, schedule_name)
        _, text2, expected2, injected2 = _simulate(
            system_name, SCHEDULES[schedule_name]
        )
        assert text2 == text
        assert expected2 == expected
        assert injected2 == injected

    def test_ledger_predicts_batch_pairing(self, system_name, schedule_name):
        records, _, expected, _ = _cached(system_name, schedule_name)
        stats = PairingStats()
        for _op in pair_records(records, stats=stats):
            pass
        assert stats == expected

    def test_stream_pairer_matches_ledger(self, system_name, schedule_name):
        # the streaming engine's pass, as `repro stats` and
        # `analyze --stream` run it
        records, _, expected, _ = _cached(system_name, schedule_name)
        assert StreamEngine().run(records)["pairing"] == expected

    def test_parallel_pair_matches_ledger(
        self, system_name, schedule_name, tmp_path
    ):
        records, text, expected, _ = _cached(system_name, schedule_name)
        path = tmp_path / "chaos.trace"
        path.write_text(text)
        # small chunks force boundary merges through the faulted trace,
        # on the pool (at jobs=1 parallel_pair is the serial pass)
        _ops, stats = parallel_pair(path, jobs=2, chunk_records=1500)
        assert stats == expected

    def test_batch_and_stream_analyze_agree(
        self, system_name, schedule_name, tmp_path, capsys
    ):
        _, text, _, _ = _cached(system_name, schedule_name)
        path = tmp_path / "chaos.trace"
        path.write_text(text)
        # a window wider than MAX_FAULT_DELAY (1s) keeps the batch
        # (call-ordered) and stream (completion-ordered) op sequences
        # sortable to the same order despite injected reorder delays;
        # at the default 10ms the runs sections legitimately diverge
        argv = ["analyze", "--in", str(path), "--window-ms", "3000"]
        assert main(argv) == 0
        batch_out = capsys.readouterr().out
        assert main(argv + ["--stream"]) == 0
        stream_out = capsys.readouterr().out
        # the summary and runs sections are exact streaming twins; the
        # third section legitimately differs (characterization vs
        # sketch extras)
        assert batch_out.split("\n\n")[:2] == stream_out.split("\n\n")[:2]


class TestDupAccountingIdentity:
    """For a dup-only schedule the ledger fields are exactly the
    injected-event tallies: every duplicated reply is a duplicate to
    the pairer, every duplicated call shadows its twin."""

    @pytest.mark.parametrize("system_name", SYSTEMS)
    def test_dup_counts_are_identities(self, system_name):
        _, _, expected, injected = _cached(system_name, "dup")
        assert expected.duplicate_replies == injected.get(
            "dup.reply.capture", 0
        )
        assert expected.unanswered_calls == injected.get(
            "dup.call.capture", 0
        )
        assert expected.orphan_replies == 0


class TestCliFaultDeterminism:
    def test_simulate_with_faults_is_deterministic(self, tmp_path):
        spec = "drop(p=0.02);dup(p=0.01,kind=reply);reorder(p=0.05,ms=30)"
        outs = []
        for name in ("a.trace", "b.trace"):
            out = tmp_path / name
            code = main([
                "simulate", "--system", "campus", "--days", "0.3",
                "--users", "2", "--seed", "5", "--faults", spec,
                "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_bad_spec_is_a_clean_error(self, tmp_path, capsys):
        code = main([
            "simulate", "--system", "campus", "--days", "0.1",
            "--users", "2", "--faults", "drop(p=2.0)",
            "--out", str(tmp_path / "x.trace"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
