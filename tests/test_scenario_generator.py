"""The flowops interpreter: determinism, op coverage, flash crowds,
and sharded byte-identity for a generic (non-model) scenario."""

import functools

import pytest

from repro.analysis.pairing import PairingStats, pair_records
from repro.nfs.procedures import NfsProc
from repro.scenarios import ScenarioSpec, ScenarioWorkload, compile_workload
from repro.simcore.clock import SECONDS_PER_DAY
from repro.trace.record import record_to_line
from repro.workloads import TracedSystem, run_sharded

SEED = 7

#: Flat rhythm + brisk rates: every op kind fires within a fraction of
#: a simulated day, so op-coverage tests stay fast.
ALL_OPS = """
scenario(name=all-ops)
population(users=3)
diurnal(shape=flat)
hosts(name=box,count=2)
fileset(name=data,files=40,size=uniform:2048:65536,dirs=4)
flowop(op=read,fileset=data,rate=300,pattern=rand,bytes=uniform:512:8192)
flowop(op=write,fileset=data,rate=200,bytes=const:4096)
flowop(op=append,fileset=data,rate=100,bytes=const:2048,cap=131072)
flowop(op=churn,fileset=data,rate=150,bytes=const:1024,lifetime=expo:120,cap=50)
flowop(op=scan,fileset=data,rate=40)
flowop(op=stat,fileset=data,rate=200,burst=3,think=const:0.5)
"""


def _run(ref, *, users=None, seed=SEED, seconds=0.2 * SECONDS_PER_DAY):
    compiled = compile_workload(ref, users=users)
    system = TracedSystem(seed=seed, quota_bytes=compiled.quota_bytes)
    compiled.workload.attach(system)
    system.run(seconds)
    return system.records()


def _text(records):
    return "\n".join(record_to_line(r) for r in records) + "\n"


@functools.lru_cache(maxsize=None)
def _all_ops_records():
    return _run(ALL_OPS)


class TestInterpreter:
    def test_rerun_is_byte_identical(self):
        assert _text(_run("fileserver", users=4)) == _text(
            _run("fileserver", users=4)
        )

    def test_different_seed_different_trace(self):
        a = _text(_run("fileserver", users=4))
        b = _text(_run("fileserver", users=4, seed=SEED + 1))
        assert a != b

    def test_every_op_kind_leaves_its_procedures(self):
        procs = {r.proc for r in _all_ops_records()}
        # read/write/append -> data ops; churn -> create+remove;
        # scan -> readdir(plus on v3); stat and scan -> getattr
        for expected in (NfsProc.READ, NfsProc.WRITE, NfsProc.CREATE,
                         NfsProc.REMOVE, NfsProc.GETATTR):
            assert expected in procs, expected
        assert procs & {NfsProc.READDIR, NfsProc.READDIRPLUS}

    def test_hosts_pool_names_appear(self):
        clients = {r.client for r in _all_ops_records()}
        assert {"box0.all-ops", "box1.all-ops"} <= clients

    def test_trace_pairs_cleanly_without_faults(self):
        stats = PairingStats()
        ops = list(pair_records(_all_ops_records(), stats=stats))
        assert len(ops) > 200
        assert stats.unanswered_calls == 0
        assert stats.orphan_replies == 0

    def test_model_backed_spec_is_rejected(self):
        spec = ScenarioSpec.parse("scenario(name=m);model(kind=campus)")
        with pytest.raises(ValueError, match="model-backed"):
            ScenarioWorkload(spec)

    def test_users_override_changes_population(self):
        few = _run("fileserver", users=2)
        many = _run("fileserver", users=12)
        assert len({r.client for r in many}) >= len({r.client for r in few})


class TestFlashCrowd:
    """The crowd is a rate shape: same machinery, multiplied arrivals."""

    BASE = (
        "scenario(name=crowd)\n"
        "population(users=4)\n"
        "diurnal(shape=flat)\n"
        "hosts(name=web,count=2)\n"
        "fileset(name=docs,files=50,size=const:8192)\n"
        "flowop(op=read,fileset=docs,rate=100)"
    )
    WINDOW = (10 * 3600.0, 12 * 3600.0)

    def _window_count(self, spec_text):
        lo, hi = self.WINDOW
        records = _run(spec_text, seconds=0.5 * SECONDS_PER_DAY)
        return sum(1 for r in records if lo <= r.time < hi)

    def test_crowd_multiplies_arrivals_in_window(self):
        crowd = self.BASE + (
            f"\nflashcrowd(at={self.WINDOW[0]:g},dur=7200,factor=8)"
        )
        quiet = self._window_count(self.BASE)
        spiked = self._window_count(crowd)
        assert quiet > 0
        assert spiked > 3 * quiet

    def test_crowd_is_deterministic(self):
        crowd = self.BASE + "\nflashcrowd(at=36000,dur=7200,factor=8)"
        a = _text(_run(crowd, seconds=0.5 * SECONDS_PER_DAY))
        b = _text(_run(crowd, seconds=0.5 * SECONDS_PER_DAY))
        assert a == b

    def test_shaped_rate_multiplier(self):
        from repro.scenarios.generator import _ShapedRate
        from repro.scenarios.spec import FlashCrowdClause
        from repro.workloads.diurnal import flat_model

        crowd = FlashCrowdClause(at=100.0, dur=50.0, factor=4.0)
        shaped = _ShapedRate(flat_model(), (crowd,))
        flat = flat_model()
        assert shaped.peak == pytest.approx(flat.peak * 4.0)
        assert shaped.multiplier(125.0) == pytest.approx(
            flat.multiplier(125.0) * 4.0
        )
        assert shaped.multiplier(200.0) == pytest.approx(
            flat.multiplier(200.0)
        )


class TestShardedGeneric:
    """The sharding invariants hold for interpreter scenarios too."""

    FAULTS = "drop(p=0.02);dup(p=0.01,kind=reply)"

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _sharded(shards, faults):
        # warmup 0: the ledgers account every captured packet, so the
        # merged stream must cover the same window for exactness
        with run_sharded(
            "fileserver", users=6, days=0.3, seed=11, shards=shards,
            warmup_days=0.0, faults=faults,
        ) as run:
            return _text(run.merged()), run.fault_stats

    def test_shard_counts_agree(self):
        base, _ = self._sharded(1, None)
        assert len(base.splitlines()) > 100
        for shards in (2, 4):
            text, _ = self._sharded(shards, None)
            assert text == base

    def test_faulted_shard_counts_agree_and_ledger_is_exact(self):
        base, base_stats = self._sharded(1, self.FAULTS)
        text, stats = self._sharded(2, self.FAULTS)
        assert text == base
        assert stats == base_stats
        # the aggregated ledger predicts batch pairing over the merge
        from repro.trace.record import record_from_line

        records = [record_from_line(line) for line in base.splitlines()]
        observed = PairingStats()
        for _op in pair_records(records, stats=observed):
            pass
        assert observed == stats
