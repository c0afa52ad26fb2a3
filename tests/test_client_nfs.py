"""Tests for the POSIX-to-NFS client translation."""

import random

import pytest

from repro.client import NfsClient
from repro.fs import BLOCK_SIZE, SimFileSystem
from repro.netsim import NetworkPath
from repro.nfs import NfsProc
from repro.server import NfsServer
from repro.simcore import SimClock
from tests.helpers import ListTap


@pytest.fixture
def world():
    """A wired-up single-client world with a trace tap."""
    fs = SimFileSystem(fsid=1)
    server = NfsServer(fs)
    collector = ListTap()
    clock = SimClock()
    path = NetworkPath(server, random.Random(1), taps=[collector])
    client = NfsClient(
        host="10.0.0.1",
        server_addr="10.0.0.100",
        root=fs.root,
        exchange=path,
        clock=clock,
        rng=random.Random(2),
        nfsiod_count=1,  # deterministic ordering for these tests
    )
    return fs, server, client, collector, clock


def procs_of(collector, direction="C"):
    return [r.proc for r in collector.records if r.direction == direction]


class TestBasicOps:
    def test_create_write_read_roundtrip(self, world):
        fs, server, client, collector, clock = world
        of = client.create("/inbox", uid=100)
        client.write(of, 0, 1000)
        assert of.size == 1000
        of2 = client.open("/inbox", uid=100)
        got = client.read(of2, 0, 1000)
        assert got == 1000

    def test_open_missing_raises(self, world):
        fs, server, client, collector, clock = world
        with pytest.raises(FileNotFoundError):
            client.open("/ghost")

    def test_path_resolution_emits_lookups(self, world):
        fs, server, client, collector, clock = world
        fs.makedirs("/home/u1", 0.0)
        fs.create(fs.resolve("/home/u1").handle, "f", 0.0)
        client.open("/home/u1/f")
        lookups = [p for p in procs_of(collector) if p is NfsProc.LOOKUP]
        assert len(lookups) == 3  # home, u1, f

    def test_name_cache_absorbs_repeat_lookups(self, world):
        fs, server, client, collector, clock = world
        fs.makedirs("/home/u1", 0.0)
        fs.create(fs.resolve("/home/u1").handle, "f", 0.0)
        client.open("/home/u1/f")
        before = len(collector.records)
        client.open("/home/u1/f")  # within ac timeout: fully absorbed
        assert len(collector.records) == before

    def test_stat_absent_file_returns_none(self, world):
        fs, server, client, collector, clock = world
        assert client.stat("/nothing") is None

    def test_unlink(self, world):
        fs, server, client, collector, clock = world
        client.create("/tmp1")
        assert client.unlink("/tmp1")
        assert client.stat("/tmp1") is None

    def test_mkdir_and_readdir(self, world):
        fs, server, client, collector, clock = world
        assert client.mkdir("/d")
        client.create("/d/f")
        assert client.readdir("/d") == ("f",)

    def test_rename(self, world):
        fs, server, client, collector, clock = world
        client.create("/old")
        assert client.rename("/old", "/new")
        clock.advance_to(10.0)  # expire caches
        assert client.stat("/new") is not None

    def test_truncate(self, world):
        fs, server, client, collector, clock = world
        of = client.create("/f")
        client.write(of, 0, 5000)
        client.truncate(of, 0)
        assert of.size == 0

    def test_append(self, world):
        fs, server, client, collector, clock = world
        of = client.create("/mbox")
        client.append(of, 100)
        client.append(of, 100)
        assert of.size == 200


class TestCachingBehaviour:
    def test_cached_read_absorbed(self, world):
        fs, server, client, collector, clock = world
        of = client.create("/f")
        client.write(of, 0, BLOCK_SIZE * 4)
        reads_before = sum(1 for p in procs_of(collector) if p is NfsProc.READ)
        client.read(of, 0, BLOCK_SIZE * 4)  # all blocks just written: cached
        reads_after = sum(1 for p in procs_of(collector) if p is NfsProc.READ)
        assert reads_after == reads_before
        assert client.reads_absorbed >= 4

    def test_reopen_after_timeout_emits_revalidation(self, world):
        fs, server, client, collector, clock = world
        client.create("/f")
        before = len(collector.records)
        clock.advance_to(100.0)  # well past ac timeout
        client.open("/f")
        # expired name + attr caches force wire traffic (a revalidating
        # LOOKUP at minimum)
        assert len(collector.records) > before
        new_procs = [
            r.proc for r in collector.records[before:] if r.direction == "C"
        ]
        assert set(new_procs) <= {NfsProc.LOOKUP, NfsProc.GETATTR, NfsProc.ACCESS}

    def test_held_file_read_after_timeout_emits_getattr(self, world):
        """A held-open file revalidates with GETATTR once attrs expire."""
        fs, server, client, collector, clock = world
        of = client.create("/f")
        client.write(of, 0, BLOCK_SIZE)
        clock.advance_to(100.0)
        client.read(of, 0, BLOCK_SIZE)
        assert NfsProc.GETATTR in procs_of(collector)

    def test_foreign_write_invalidates_and_rereads(self, world):
        """The CAMPUS mail-delivery effect: server-side mtime change
        forces the client to re-read blocks it had cached."""
        fs, server, client, collector, clock = world
        of = client.create("/inbox")
        client.write(of, 0, BLOCK_SIZE * 8)
        # mail delivery: another client appends, changing mtime
        inbox = fs.resolve("/inbox")
        fs.write(inbox.handle, BLOCK_SIZE * 8, 100, clock.now + 50.0)
        clock.advance_to(200.0)
        of2 = client.open("/inbox")
        reads_before = sum(1 for p in procs_of(collector) if p is NfsProc.READ)
        client.read(of2, 0, BLOCK_SIZE * 8)
        reads_after = sum(1 for p in procs_of(collector) if p is NfsProc.READ)
        assert reads_after - reads_before >= 8  # full re-read

    def test_sequential_read_triggers_readahead(self, world):
        fs, server, client, collector, clock = world
        inbox = fs.create(fs.resolve("/").handle if False else fs.root, "big", 0.0)
        fs.write(inbox.handle, 0, BLOCK_SIZE * 64, 0.0)
        of = client.open("/big")
        client.read(of, 0, BLOCK_SIZE * 3)  # establish sequential streak
        total_reads = sum(1 for p in procs_of(collector) if p is NfsProc.READ)
        assert total_reads > 3  # demand + read-ahead

    def test_write_then_close_commits_on_v3(self, world):
        fs, server, client, collector, clock = world
        of = client.create("/f")
        client.write(of, 0, 100)
        client.close(of)
        assert NfsProc.COMMIT in procs_of(collector)

    def test_close_without_write_is_silent(self, world):
        fs, server, client, collector, clock = world
        of = client.create("/f")
        before = len(collector.records)
        client.close(of)
        assert len(collector.records) == before


class TestTimestamps:
    def test_cursor_advances_monotonically(self, world):
        fs, server, client, collector, clock = world
        of = client.create("/f")
        t1 = client.now
        client.write(of, 0, BLOCK_SIZE * 10)
        assert client.now > t1

    def test_cursor_follows_clock(self, world):
        fs, server, client, collector, clock = world
        client.create("/f")
        clock.advance_to(500.0)
        client.create("/g")
        assert client.now >= 500.0

    def test_trace_records_carry_wire_times(self, world):
        fs, server, client, collector, clock = world
        of = client.create("/f")
        client.write(of, 0, BLOCK_SIZE * 5)
        times = [r.time for r in collector.records]
        assert all(t >= 0 for t in times)
        assert times[-1] > times[0]
