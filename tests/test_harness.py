"""Tests for the TracedSystem harness."""

import pytest

from repro.nfs.procedures import NfsVersion
from repro.nfs.rpc import Transport
from repro.trace.collector import record_key
from repro.workloads import TracedSystem
from tests.helpers import ListTap


class TestTracedSystem:
    def test_add_client_is_idempotent(self):
        system = TracedSystem(seed=1)
        a = system.add_client("host1")
        b = system.add_client("host1")
        assert a is b
        assert len(system.clients) == 1

    def test_clients_configurable(self):
        system = TracedSystem(seed=1)
        client = system.add_client(
            "ws1", transport=Transport.UDP, version=NfsVersion.V2,
            nfsiod_count=2, ac_timeout=10.0, cache_blocks=128,
        )
        assert client.transport is Transport.UDP
        assert client.version is NfsVersion.V2
        assert client.nfsiods.count == 2
        assert client.cache.ac_timeout == 10.0
        assert client.cache.capacity_blocks == 128

    def test_mirror_disabled_by_default(self):
        system = TracedSystem(seed=1)
        assert system.mirror.bandwidth is None

    def test_mirror_configurable(self):
        system = TracedSystem(seed=1, mirror_bandwidth=1e6, mirror_buffer=1024)
        assert system.mirror.bandwidth == 1e6
        assert system.mirror.buffer_bytes == 1024

    def test_quota_passes_through(self):
        system = TracedSystem(seed=1, quota_bytes=1000)
        assert system.fs.quota_bytes == 1000

    def test_run_advances_clock(self):
        system = TracedSystem(seed=1)
        system.run(500.0)
        assert system.clock.now == 500.0

    def test_traffic_lands_in_collector(self):
        system = TracedSystem(seed=1)
        client = system.add_client("c1")
        system.fs.create(system.fs.root, "f", 0.0)
        client.open("/f")
        assert len(system.collector) > 0
        records = system.records()
        times = [r.time for r in records]
        assert times == sorted(times)

    def test_write_trace(self, tmp_path):
        system = TracedSystem(seed=1)
        client = system.add_client("c1")
        system.fs.create(system.fs.root, "f", 0.0)
        client.open("/f")
        n = system.write_trace(tmp_path / "t.trace")
        assert n == len(system.collector)

    def test_independent_systems_do_not_interfere(self):
        a = TracedSystem(seed=1)
        b = TracedSystem(seed=1)
        ca = a.add_client("x")
        a.fs.create(a.fs.root, "f", 0.0)
        ca.open("/f")
        assert len(b.collector) == 0


class TestMeasurementWindow:
    """``start_measurement`` windows what the collector captures, not
    what the mirror port sees: a tap beside the collector still gets
    the warm-up."""

    T0 = 10 * 3600.0

    def _run(self, *, tap=True):
        from repro.workloads import CampusEmailWorkload, CampusParams

        system = TracedSystem(
            seed=3, quota_bytes=50 * 1024 * 1024, mirror_bandwidth=30e6
        )
        seen = ListTap()
        if tap:
            system.mirror.add_tap(seen)
        system.start_measurement(self.T0)
        CampusEmailWorkload(CampusParams(users=3)).attach(system)
        system.run(self.T0 + 3 * 3600.0)
        return system, seen.records

    def test_collector_keeps_only_the_window(self, tmp_path):
        from repro.trace import TraceWriter

        system, seen = self._run()
        collector = system.collector
        kept = [r for r in seen if r.time >= self.T0]
        assert len(kept) < len(seen)  # the tap saw the warm-up
        assert kept
        assert system.records() == sorted(kept, key=record_key)
        assert collector.calls_seen == sum(1 for r in kept if r.is_call())
        assert collector.replies_seen == sum(1 for r in kept if r.is_reply())
        # the written trace is what the old sort-filter-write loop wrote
        old = tmp_path / "old.rtb"
        with TraceWriter(old) as writer:
            for record in sorted(seen, key=lambda r: r.time):
                if record.time >= self.T0:
                    writer.write(record)
        new = tmp_path / "new.rtb"
        assert system.write_trace(new) == len(kept)
        assert new.read_bytes() == old.read_bytes()

    def test_warm_up_records_are_never_built(self, monkeypatch):
        from repro.trace import TraceRecord

        built = []
        for name in ("from_call", "from_reply"):
            build = getattr(TraceRecord, name)

            def counting(cls, message, _build=build):
                built.append(message.time)
                return _build(message)

            monkeypatch.setattr(TraceRecord, name, classmethod(counting))
        system, _ = self._run(tap=False)
        assert built
        assert min(built) >= self.T0
        assert len(built) == len(system.collector)
