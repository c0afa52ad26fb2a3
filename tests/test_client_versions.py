"""NFSv2 vs NFSv3 client behavior differences."""

import random

import pytest

from repro.client import NfsClient
from repro.fs import SimFileSystem
from repro.netsim import NetworkPath
from repro.nfs import NfsProc, NfsVersion
from repro.nfs.rpc import Transport
from repro.server import NfsServer
from repro.simcore import SimClock
from tests.helpers import ListTap


def make_world(version):
    fs = SimFileSystem(fsid=1)
    server = NfsServer(fs)
    collector = ListTap()
    clock = SimClock()
    path = NetworkPath(server, random.Random(1), taps=[collector])
    client = NfsClient(
        host="ws1", server_addr="srv", root=fs.root, exchange=path,
        clock=clock, rng=random.Random(2), version=version,
        transport=Transport.UDP, nfsiod_count=1,
    )
    return fs, client, collector, clock


def call_procs(collector):
    return [r.proc for r in collector.records if r.direction == "C"]


class TestV2Client:
    def test_no_access_calls(self):
        """ACCESS does not exist in NFSv2; revalidation is GETATTR."""
        fs, client, collector, clock = make_world(NfsVersion.V2)
        client.create("/f")
        clock.advance_to(100.0)
        client.open("/f")
        procs = call_procs(collector)
        assert NfsProc.ACCESS not in procs
        assert NfsProc.GETATTR in procs or NfsProc.LOOKUP in procs

    def test_no_commit_on_close(self):
        """COMMIT is v3-only; v2 writes are synchronous."""
        fs, client, collector, clock = make_world(NfsVersion.V2)
        of = client.create("/f")
        client.write(of, 0, 100)
        client.close(of)
        assert NfsProc.COMMIT not in call_procs(collector)

    def test_readdir_not_plus(self):
        fs, client, collector, clock = make_world(NfsVersion.V2)
        client.mkdir("/d")
        client.readdir("/d")
        procs = call_procs(collector)
        assert NfsProc.READDIR in procs
        assert NfsProc.READDIRPLUS not in procs

    def test_records_carry_version(self):
        fs, client, collector, clock = make_world(NfsVersion.V2)
        client.create("/f")
        assert all(r.version == 2 for r in collector.records)


class TestV3Client:
    def test_access_on_revalidation(self):
        fs, client, collector, clock = make_world(NfsVersion.V3)
        of = client.create("/f")
        client.write(of, 0, 100)
        clock.advance_to(100.0)
        client.read(of, 0, 100)
        assert NfsProc.ACCESS in call_procs(collector)

    def test_commit_after_write(self):
        fs, client, collector, clock = make_world(NfsVersion.V3)
        of = client.create("/f")
        client.write(of, 0, 100)
        client.close(of)
        assert NfsProc.COMMIT in call_procs(collector)

    def test_readdirplus(self):
        fs, client, collector, clock = make_world(NfsVersion.V3)
        client.mkdir("/d")
        client.readdir("/d")
        assert NfsProc.READDIRPLUS in call_procs(collector)


class TestGatewayHost:
    def test_gateway_users_share_one_client(self):
        """Section 3.1's intermediate host: a subset of EECS users'
        traffic appears to come from one gateway address."""
        from repro.simcore.clock import SECONDS_PER_DAY
        from repro.workloads import (
            EecsParams,
            EecsResearchWorkload,
            TracedSystem,
        )

        system = TracedSystem(seed=44)
        workload = EecsResearchWorkload(
            EecsParams(users=8, gateway_fraction=0.5)
        )
        workload.attach(system)
        system.run(SECONDS_PER_DAY)
        assert "gateway.eecs" in system.clients
        assert len(workload._gateway_users) >= 1
        gateway_uids = {
            r.uid
            for r in system.records()
            if r.client == "gateway.eecs" and r.direction == "C" and r.uid
        }
        # multiple distinct users hide behind the same source address
        if len(workload._gateway_users) > 1:
            assert len(gateway_uids) > 1

    def test_gateway_disabled(self):
        from repro.simcore.clock import SECONDS_PER_DAY
        from repro.workloads import (
            EecsParams,
            EecsResearchWorkload,
            TracedSystem,
        )

        system = TracedSystem(seed=44)
        workload = EecsResearchWorkload(
            EecsParams(users=4, gateway_fraction=0.0)
        )
        workload.attach(system)
        system.run(SECONDS_PER_DAY / 2)
        gateway_calls = [
            r for r in system.records() if r.client == "gateway.eecs"
        ]
        assert gateway_calls == []