"""The DSL compatibility gate: scenarios are not a new simulator.

The ``campus`` and ``eecs`` library entries compile to the same
generator classes, params, and RNG stream names as the hand-coded
pre-DSL code paths — so their traces must be **byte-identical** to
the legacy classes', unsharded and at every ``--shards`` value, with
and without a fault schedule.  These tests are the non-negotiable
floor under every future DSL change.
"""

import functools

import pytest

from repro.scenarios import compile_workload
from repro.simcore.clock import SECONDS_PER_DAY
from repro.trace.record import record_to_line
from repro.workloads import (
    CampusEmailWorkload,
    CampusParams,
    EecsParams,
    EecsResearchWorkload,
    TracedSystem,
    run_sharded,
)

SEED = 23
SIM_SECONDS = 0.4 * SECONDS_PER_DAY
FAULTS = "drop(p=0.02);dup(p=0.01,kind=reply)"
USERS = {"campus": 3, "eecs": 2}

#: model-backed spec text equivalent to each library entry — the
#: scenario *name* is identity only; the model kind picks the streams
INLINE = {
    "campus": "scenario(name=renamed-mail)\nmodel(kind=campus)",
    "eecs": "scenario(name=renamed-lab)\nmodel(kind=eecs)",
}


def _text(records):
    return "\n".join(record_to_line(r) for r in records) + "\n"


def _run_legacy(system_name, faults):
    if system_name == "campus":
        system = TracedSystem(
            seed=SEED, quota_bytes=50 * 1024 * 1024, faults=faults
        )
        CampusEmailWorkload(CampusParams(users=USERS["campus"])).attach(system)
    else:
        system = TracedSystem(seed=SEED, faults=faults)
        EecsResearchWorkload(EecsParams(users=USERS["eecs"])).attach(system)
    system.run(SIM_SECONDS)
    return _text(system.records())


def _run_dsl(ref, system_name, faults):
    compiled = compile_workload(ref, users=USERS[system_name])
    system = TracedSystem(
        seed=SEED, quota_bytes=compiled.quota_bytes, faults=faults
    )
    compiled.workload.attach(system)
    system.run(SIM_SECONDS)
    return _text(system.records())


@functools.lru_cache(maxsize=None)
def _legacy(system_name, faults):
    return _run_legacy(system_name, faults)


@pytest.mark.parametrize("system_name", ("campus", "eecs"))
@pytest.mark.parametrize("faults", (None, FAULTS))
class TestUnshardedByteIdentity:
    def test_library_name_matches_legacy(self, system_name, faults):
        assert _run_dsl(system_name, system_name, faults) == _legacy(
            system_name, faults
        )

    def test_inline_spec_matches_legacy(self, system_name, faults):
        # a model-backed spec under any scenario name hits the same
        # generator streams: the name is identity, not behavior
        assert _run_dsl(INLINE[system_name], system_name, faults) == _legacy(
            system_name, faults
        )

    def test_spec_file_matches_legacy(self, system_name, faults, tmp_path):
        path = tmp_path / f"{system_name}.scn"
        path.write_text(INLINE[system_name] + "\n")
        assert _run_dsl(str(path), system_name, faults) == _legacy(
            system_name, faults
        )


@functools.lru_cache(maxsize=None)
def _sharded(system_name, shards, faults):
    with run_sharded(
        system_name,
        users=USERS[system_name],
        days=0.2,
        seed=SEED,
        shards=shards,
        warmup_days=0.5,
        faults=faults,
    ) as run:
        stats = run.fault_stats
        injected = tuple(sorted(run.injected.items()))
        return _text(run.merged()), stats, injected


@pytest.mark.parametrize("system_name", ("campus", "eecs"))
@pytest.mark.parametrize("faults", (None, FAULTS))
class TestShardedByteIdentity:
    def test_every_shard_count_is_byte_identical(self, system_name, faults):
        base_text, base_stats, base_injected = _sharded(
            system_name, 1, faults
        )
        assert len(base_text.splitlines()) > 50
        for shards in (2, 4):
            text, stats, injected = _sharded(system_name, shards, faults)
            assert text == base_text
            assert stats == base_stats
            assert injected == base_injected

    def test_fault_ledger_present_iff_faulted(self, system_name, faults):
        _, stats, injected = _sharded(system_name, 1, faults)
        if faults is None:
            assert stats is None
            assert injected == ()
        else:
            assert stats is not None
            assert sum(n for _, n in injected) > 0
