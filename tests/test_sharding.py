"""The sharded simulation engine (repro.workloads.sharding).

The load-bearing property is *shard-count invariance*: the merged
trace bytes, the aggregated pairing prediction, and the span stream
must be identical for every ``--shards N`` — including under fault
injection and span sampling.  Plus the client partitioner's contract
and the shared warm-pool registry.
"""

import io
import json

import pytest

from repro.analysis.pairing import PairingStats, pair_all
from repro.faults.ledger import aggregate_stats
from repro.obs.eventlog import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.parallel import pool_registry
from repro.simcore.rng import shard_seed
from repro.trace import binfmt
from repro.trace.binfmt import BinaryTraceEncoder
from repro.trace.collector import TraceCollector
from repro.workloads.sharding import (
    DEFAULT_GROUPS,
    partition_users,
    plan_shards,
    run_sharded,
)

# Small but non-trivial window: Monday daytime traffic so the
# measurement window actually contains records.
USERS = 4
DAYS = 0.05
WARMUP = 1.40
SEED = 11


#: runs made by :func:`_run`, closed after each test
_OPEN_RUNS = []


@pytest.fixture(autouse=True)
def _close_runs():
    yield
    while _OPEN_RUNS:
        _OPEN_RUNS.pop().close()


def _run(shards, *, faults=None, sample=0.0, system="campus", seed=SEED):
    run = run_sharded(
        system, users=USERS, days=DAYS, seed=seed, shards=shards,
        mirror_bandwidth=2e6, faults=faults, trace_sample=sample,
        warmup_days=WARMUP,
    )
    _OPEN_RUNS.append(run)
    return run


def _trace_bytes(run) -> bytes:
    buffer = io.BytesIO()
    encoder = BinaryTraceEncoder(buffer, buffered=True)
    encoder.encode_block(list(run.merged()))
    encoder.flush()
    return buffer.getvalue()


def _span_bytes(run) -> bytes:
    log = EventLog()
    run.replay_spans(log)
    return "\n".join(
        json.dumps(e, separators=(",", ":"), sort_keys=True)
        for e in log.events
    ).encode()


class TestPartitioner:
    def test_stable_assignment(self):
        assert partition_users(20) == partition_users(20)
        assert partition_users(20, 4) == partition_users(20, 4)

    def test_members_tile_the_fleet(self):
        specs = partition_users(23)
        everyone = sorted(i for s in specs for i in s.members)
        assert everyone == list(range(23))

    def test_no_empty_groups(self):
        for total in (1, 2, 7, 8, 9, 100):
            specs = partition_users(total)
            assert len(specs) == min(DEFAULT_GROUPS, total)
            assert all(s.members for s in specs)

    def test_groups_clamped_to_population(self):
        specs = partition_users(3, 16)
        assert len(specs) == 3
        assert all(s.members for s in specs)

    def test_membership_is_residue_class(self):
        for spec in partition_users(30, 4):
            assert all(i % 4 == spec.gid for i in spec.members)

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            partition_users(0)
        with pytest.raises(ValueError):
            partition_users(10, 0)

    def test_plan_shards_covers_all_groups(self):
        specs = partition_users(16)
        for shards in (1, 2, 3, 8):
            buckets = plan_shards(specs, shards)
            assert len(buckets) == min(shards, len(specs))
            gids = sorted(g for bucket in buckets for g in bucket)
            assert gids == [s.gid for s in specs]
            assert all(bucket for bucket in buckets)

    def test_plan_shards_clamps_oversubscription(self):
        specs = partition_users(3)
        assert len(plan_shards(specs, 64)) == 3

    def test_plan_shards_rejects_zero(self):
        with pytest.raises(ValueError):
            plan_shards(partition_users(4), 0)

    def test_shard_seed_distinct_per_group(self):
        seeds = {shard_seed(7, g) for g in range(16)}
        assert len(seeds) == 16
        assert shard_seed(7, 3) == shard_seed(7, 3)
        assert shard_seed(7, 3) != shard_seed(8, 3)
        # negative master seeds follow the RngRegistry convention
        assert shard_seed(-7, 3) == shard_seed(7, 3)


class TestShardInvariance:
    """The tentpole property: output is a pure function of the world,
    not of how many workers simulated it."""

    @pytest.mark.parametrize("faults", [None, "drop(p=0.03)"])
    @pytest.mark.parametrize("sample", [0.0, 1.0])
    def test_byte_identical_across_shard_counts(self, faults, sample):
        runs = {n: _run(n, faults=faults, sample=sample) for n in (1, 2, 4)}
        reference = runs[1]
        assert reference.record_count > 0
        blob = _trace_bytes(reference)
        spans = _span_bytes(reference)
        stats = reference.fault_stats
        for n in (2, 4):
            assert _trace_bytes(runs[n]) == blob
            assert _span_bytes(runs[n]) == spans
            assert runs[n].fault_stats == stats
            assert runs[n].injected == reference.injected
            assert runs[n].retransmits == reference.retransmits
        if faults is None:
            assert stats is None
        else:
            assert stats.calls > 0
        if sample > 0:
            assert reference.spans_emitted > 0
            assert spans
        else:
            assert reference.spans_emitted == 0

    def test_eecs_byte_identical(self):
        one, two = (_run(n, system="eecs") for n in (1, 2))
        assert one.record_count > 0
        assert _trace_bytes(one) == _trace_bytes(two)

    def test_merge_is_repeatable_and_ordered(self):
        run = _run(2)
        first = list(run.merged())
        second = list(run.merged())
        assert [r.key() for r in first] == [r.key() for r in second]
        keys = [(r.time, r.client, r.xid) for r in first]
        assert keys == sorted(keys)

    def test_interleaved_merges_agree(self, monkeypatch):
        """Each merge reads the payload files at offsets of its own, so
        two live merges of one run see the same stream."""
        monkeypatch.setattr(binfmt, "_WINDOW_BYTES", 64)
        monkeypatch.setattr(binfmt, "_FLUSH_BYTES", 512)
        run = _run(2, system="eecs")
        whole = list(run.merged())
        assert len(whole) > 1000
        first, second = run.merged(), run.merged()
        pairs = list(zip(first, second))
        assert next(second, None) is None
        assert [a for a, _b in pairs] == [b for _a, b in pairs] == whole

    def test_ledger_matches_pairer_on_merged_trace(self):
        """The aggregated prediction is exact: the real pairer run over
        the merged stream must report exactly the summed ledger.

        The ledgers account every captured packet, so the run's window
        must start at 0 for the merged stream to cover the same set.
        """
        with run_sharded(
            "campus", users=USERS, days=0.2, seed=SEED, shards=2,
            mirror_bandwidth=2e6, faults="drop(p=0.05)", warmup_days=0.0,
        ) as run:
            _ops, stats = pair_all(list(run.merged()))
        assert stats.calls > 0
        assert stats == run.fault_stats

    def test_seed_changes_output(self):
        assert _trace_bytes(_run(2)) != _trace_bytes(_run(2, seed=SEED + 1))


class TestAggregateStats:
    def test_field_wise_sum(self):
        a = PairingStats(calls=3, replies=2, paired=2, orphan_replies=1,
                         unanswered_calls=1, errors=1, duplicate_replies=0)
        b = PairingStats(calls=5, replies=5, paired=4, orphan_replies=0,
                         unanswered_calls=1, errors=0, duplicate_replies=2)
        total = aggregate_stats([a, b])
        assert total == PairingStats(
            calls=8, replies=7, paired=6, orphan_replies=1,
            unanswered_calls=2, errors=1, duplicate_replies=2,
        )

    def test_empty(self):
        assert aggregate_stats([]) == PairingStats()


class TestCollectorIngest:
    def test_ingest_matches_live_tallies(self):
        run = _run(1)
        metrics = MetricsRegistry()
        collector = TraceCollector(metrics=metrics)
        merged = list(run.merged())
        assert collector.ingest(iter(merged)) == len(merged)
        assert len(collector) == len(merged)
        assert collector.calls_seen == sum(1 for r in merged if r.is_call())
        assert collector.replies_seen == sum(
            1 for r in merged if r.is_reply()
        )
        assert collector.sorted_records() == sorted(
            merged, key=lambda r: r.time
        )
        assert metrics.value("trace.records", direction="call") \
            == collector.calls_seen

    def test_ingest_respects_measurement_window(self):
        run = _run(1)
        merged = list(run.merged())
        cutoff = merged[len(merged) // 2].time
        collector = TraceCollector()
        collector.measure_from = cutoff
        collector.ingest(iter(merged))
        assert collector.calls_seen == sum(
            1 for r in merged if r.is_call() and r.time >= cutoff
        )
        assert len(collector) == len(merged)  # retention is unwindowed


class TestPoolReuse:
    def test_repeated_runs_reuse_workers(self):
        _run(2)
        pool = pool_registry().get(("simulate", 2))
        assert pool is not None
        _run(2)
        assert pool_registry().get(("simulate", 2)) is pool

    def test_simulate_pool_separate_from_analysis(self):
        _run(2)
        assert ("simulate", 2) in pool_registry()
        assert all(purpose in ("simulate", "analysis")
                   for purpose, _size in pool_registry())


class TestParentMemory:
    """The parent holds no group stream: from the fan-out through the
    written ``.rtb.gz``, its traced allocations do not grow with the
    simulated days (they did, by each payload's size, while the parent
    read the payloads into memory)."""

    @staticmethod
    def _peak(days, path) -> tuple[int, int]:
        """Traced bytes held after ``run_sharded`` returns, and the
        traced peak through the write."""
        import tracemalloc

        tracemalloc.start()
        try:
            with run_sharded("eecs", users=USERS, days=days, seed=SEED,
                             shards=2, warmup_days=1.3) as run:
                held = tracemalloc.get_traced_memory()[0]
                assert run.write(path) == run.record_count > 0
            return held, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_peak_is_flat_in_days(self, tmp_path):
        _run(2)  # the pool forks before tracing starts
        (short_held, short), (long_held, long) = (
            self._peak(days, tmp_path / f"{days}.rtb.gz")
            for days in (0.1, 0.6)
        )
        # six times the days, about five times the payload bytes
        assert (tmp_path / "0.6.rtb.gz").stat().st_size \
            > 4 * (tmp_path / "0.1.rtb.gz").stat().st_size
        assert max(short_held, long_held) < 256 * 1024
        assert long < 1.25 * short


class TestShardRunAccounting:
    def test_publish_metrics_round_trip(self):
        run = _run(2, faults="drop(p=0.03)")
        metrics = MetricsRegistry()
        run.publish_metrics(metrics, merge_seconds=0.5)
        assert metrics.value("sim.fanout.shards") == run.shards
        assert metrics.value("sim.fanout.groups") == run.groups
        assert metrics.value("sim.fanout.records") == run.record_count
        assert metrics.value("sim.fanout.merge_seconds") == 0.5
        assert 0.0 < metrics.value("sim.fanout.utilization") <= 1.0
        hist = metrics.get("sim.fanout.shard_seconds")
        assert hist.count == len(run.shard_walls)
        assert metrics.total("faults.injected") == sum(
            run.injected.values()
        )
        assert metrics.value("trace.records", direction="call") \
            + metrics.value("trace.records", direction="reply") \
            == run.record_count

    def test_collect_builds_equivalent_collector(self):
        run = _run(1)
        collector = run.collect()
        assert len(collector) == run.record_count
        assert collector.sorted_records()[0].time >= run.start_time
