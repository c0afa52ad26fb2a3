"""Tests for the observability layer (repro.obs) and its integration."""

import json
import math

import pytest

from repro.obs import (
    Counter,
    EventLog,
    Gauge,
    Histogram,
    MetricsRegistry,
    PhaseTimer,
    log_buckets,
    parse_prom_text,
    to_prom_text,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_negative_increments(self):
        c = Counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_reset(self):
        c = Counter("x")
        c.inc(3)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_set_and_high_water(self):
        g = Gauge("depth")
        g.set(4)
        g.set(9)
        g.set(2)
        assert g.value == 2
        assert g.high_water == 9

    def test_inc_dec(self):
        g = Gauge("depth")
        g.inc(3)
        g.dec()
        assert g.value == 2
        assert g.high_water == 3

    def test_reset_clears_high_water(self):
        g = Gauge("depth")
        g.set(7)
        g.reset()
        assert g.value == 0.0
        assert g.high_water == 0.0


class TestHistogram:
    def test_log_buckets_are_log_spaced(self):
        bounds = log_buckets(1e-3, 10.0, 4)
        assert bounds == (1e-3, 1e-2, 1e-1, 1.0)

    def test_observations_land_in_cumulative_buckets(self):
        h = Histogram("t", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        cumulative = dict(h.cumulative())
        assert cumulative[1.0] == 1
        assert cumulative[10.0] == 2
        assert cumulative[100.0] == 3
        assert cumulative[math.inf] == 4
        assert h.count == 4
        assert h.total == pytest.approx(555.5)
        assert h.mean == pytest.approx(555.5 / 4)

    def test_boundary_value_goes_to_lower_bucket(self):
        h = Histogram("t", bounds=(1.0, 10.0))
        h.observe(1.0)
        assert dict(h.cumulative())[1.0] == 1

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("t", bounds=(2.0, 1.0))

    def test_reset_keeps_bounds(self):
        h = Histogram("t", bounds=(1.0, 2.0))
        h.observe(1.5)
        h.reset()
        assert h.count == 0
        assert h.bounds == (1.0, 2.0)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("server.calls", proc="read")
        b = reg.counter("server.calls", proc="read")
        assert a is b
        a.inc()
        assert reg.value("server.calls", proc="read") == 1

    def test_label_sets_are_distinct(self):
        reg = MetricsRegistry()
        read = reg.counter("server.calls", proc="read")
        write = reg.counter("server.calls", proc="write")
        assert read is not write
        read.inc(2)
        write.inc(3)
        assert reg.total("server.calls") == 5

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("x", a="1", b="2")
        b = reg.counter("x", b="2", a="1")
        assert a is b

    def test_kind_collision_on_same_sample_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_kind_collision_across_label_sets_raises(self):
        reg = MetricsRegistry()
        reg.counter("x", proc="read")
        with pytest.raises(ValueError):
            reg.histogram("x", proc="write")

    def test_histogram_bounds_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", bounds=(1.0, 3.0))

    def test_snapshot_is_sorted_and_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("b.second").inc(2)
        reg.counter("a.first").inc(1)
        reg.gauge("c.third", host="h").set(4)
        reg.histogram("d.fourth", bounds=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        parsed = json.loads(json.dumps(snap))
        assert parsed["a.first"] == 1
        assert parsed["c.third{host=h}"] == {"value": 4, "high_water": 4}
        assert parsed["d.fourth"]["count"] == 1
        assert parsed["d.fourth"]["buckets"][-1][0] == "+Inf"

    def test_reset_zeroes_everything(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(5)
        reg.gauge("g").set(3)
        reg.histogram("h").observe(1.0)
        reg.reset()
        assert reg.value("a") == 0
        assert reg.get("g").high_water == 0.0
        assert reg.get("h").count == 0


class TestPromText:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("server.calls", proc="read").inc(7)
        reg.counter("server.calls", proc="write").inc(2)
        reg.gauge("mirror.backlog_bytes").set(123.5)
        h = reg.histogram("server.service_time_seconds", bounds=(0.001, 0.01), proc="read")
        h.observe(0.0005)
        h.observe(0.5)
        return reg

    def test_text_contains_type_lines_and_samples(self):
        text = to_prom_text(self._registry())
        assert "# TYPE server_calls counter" in text
        assert 'server_calls{proc=read} 7' in text.replace('"', "")
        assert "# TYPE server_service_time_seconds histogram" in text
        assert "server_service_time_seconds_count" in text

    def test_round_trip(self):
        reg = self._registry()
        samples = parse_prom_text(to_prom_text(reg))
        assert samples['server_calls{proc="read"}'] == 7
        assert samples['server_calls{proc="write"}'] == 2
        assert samples["mirror_backlog_bytes"] == 123.5
        assert samples['server_service_time_seconds_bucket{proc="read",le="0.001"}'] == 1
        assert samples['server_service_time_seconds_bucket{proc="read",le="+Inf"}'] == 2
        assert samples['server_service_time_seconds_sum{proc="read"}'] == pytest.approx(0.5005)

    def test_identical_registries_render_identically(self):
        assert to_prom_text(self._registry()) == to_prom_text(self._registry())

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ValueError):
            parse_prom_text("a 1\na 2\n")


class TestEventLog:
    def test_in_memory_accumulates_with_seq(self):
        log = EventLog()
        log.emit("start", system="campus")
        log.emit("progress", time=3600.0, events=10)
        assert len(log) == 2
        assert log.events[0] == {"seq": 0, "event": "start", "system": "campus"}
        assert log.events[1]["time"] == 3600.0

    def test_file_sink_writes_json_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("a", x=1)
            log.emit("b")
        lines = path.read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["a", "b"]
        assert json.loads(lines[0])["x"] == 1


class TestPhaseTimer:
    def test_phases_accumulate(self):
        ticks = iter([0.0, 1.0, 1.0, 3.0])
        timer = PhaseTimer(clock=lambda: next(ticks))
        with timer.phase("sim"):
            pass
        with timer.phase("sim"):
            pass
        assert timer.seconds["sim"] == pytest.approx(3.0)
        assert timer.entries["sim"] == 2
        assert timer.total == pytest.approx(3.0)


class TestSystemIntegration:
    def _run(self, seed=11, hours=30):
        from repro.workloads import CampusEmailWorkload, CampusParams, TracedSystem

        system = TracedSystem(seed=seed, quota_bytes=50 * 1024 * 1024)
        CampusEmailWorkload(CampusParams(users=3)).attach(system)
        system.run(hours * 3600.0)
        return system

    def test_every_layer_reports(self):
        snap = self._run().metrics.snapshot()
        for needle in (
            "server.calls{proc=read}",
            "server.replies{status=NFS3_OK}",
            "server.service_time_seconds{proc=read}",
            "mirror.packets_seen",
            "trace.records{direction=call}",
            "loop.events",
        ):
            assert needle in snap, needle
        assert any(k.startswith("client.calls_sent{") for k in snap)
        assert any(k.startswith("client.nfsiod_busy{") for k in snap)

    def test_snapshot_deterministic_across_identical_seeds(self):
        a = self._run(seed=42).metrics.snapshot()
        b = self._run(seed=42).metrics.snapshot()
        # wall-clock derived loop gauges are the only legitimately
        # nondeterministic metrics
        for snap in (a, b):
            for key in list(snap):
                if key.startswith(("loop.wall_seconds", "loop.sim_wall_ratio")):
                    del snap[key]
        assert a == b

    def test_server_calls_match_collector_counts(self):
        from collections import Counter as Tally

        system = self._run()
        tally = Tally(
            r.proc.value for r in system.records() if r.is_call()
        )
        for proc, count in tally.items():
            assert system.metrics.value("server.calls", proc=proc) == count

    def test_lossless_mirror_reports_zero_drops(self):
        """EECS-style (bandwidth=None) runs must report exactly 0 drops."""
        system = self._run()
        assert system.mirror.bandwidth is None
        assert system.metrics.value("mirror.drops", kind="call") == 0
        assert system.metrics.value("mirror.drops", kind="reply") == 0
        assert system.mirror.drops == 0
        assert system.metrics.value("mirror.packets_seen") > 0

    def test_readahead_issued_vs_used(self):
        system = self._run()
        reg = system.metrics
        issued = reg.total("client.readahead_issued")
        used = reg.total("client.readahead_used")
        assert issued >= used >= 0


class TestCollectorOrdering:
    def test_write_emits_wire_timestamp_order(self, tmp_path):
        from repro.nfs.messages import NfsCall
        from repro.nfs.procedures import NfsProc
        from repro.trace import TraceCollector, read_trace, write_trace

        collector = TraceCollector()
        # capture order deliberately out of wire-time order (nfsiod
        # reordering puts later-issued packets on the wire earlier)
        for t, xid in ((2.0, 1), (1.0, 2), (3.0, 3)):
            collector.on_call(NfsCall(
                time=t, xid=xid, client="c", server="s", proc=NfsProc.GETATTR
            ))
        path = tmp_path / "ordered.trace"
        assert write_trace(path, collector.sorted_records()) == 3
        times = [r.time for r in read_trace(path)]
        assert times == sorted(times)
