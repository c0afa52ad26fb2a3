"""Fan-out failures end the run: no hang, no residue.

A pool worker that dies (here: one that SIGKILLs itself) must end a
``parallel_pair``/``run_sharded`` call, or the ``repro`` command, with
one clean error instead of hanging it, and leave no output file, no
live worker and nothing in the temp directory.  A sharded run's merge
and write fail the same way: no partial file, no payload file left
open, no writer thread left running.  Each case runs in a fresh
interpreter, so the pool is forked after the fault is planted, under a
hard timeout that kills the child's whole process group.  The pool
machinery itself is loaded only when a fan-out starts.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.trace import write_trace
from tests.test_analysis_parallel import make_stream

SRC = str(Path(repro.__file__).resolve().parents[1])
TIMEOUT = 60

#: Run first in every child: ``fault(action, trace, chunk_records)``
#: plants ``action`` into the worker that handles the trace's second
#: chunk (``parallel_pair``) or group 1 (``run_sharded``), and only
#: there.
PRELUDE = """
import multiprocessing, os, signal, sys, tempfile, threading
import repro.analysis.parallel as par
import repro.workloads.sharding as sharding
from repro.errors import TraceFormatError

def die():
    os.kill(os.getpid(), signal.SIGKILL)

def open_run_files():
    # descriptors on a file of the temp dir, or on an unlinked file
    tmp = tempfile.gettempdir()
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith(tmp) or target.endswith("(deleted)"):
            found.append(target)
    return len(found)

def fault(action, trace=None, chunk_records=64):
    if trace is not None:
        with tempfile.TemporaryDirectory() as tables:
            specs = par.plan_chunks(trace, tables, chunk_records=chunk_records)
        second = specs[1].offset
        decode_chunk = par.decode_chunk
        def faulty_decode(spec):
            if spec.offset == second:
                action()
            return decode_chunk(spec)
        par.decode_chunk = faulty_decode
    run_group = sharding._run_group
    def faulty_group(task, gid):
        if gid == 1:
            action()
        return run_group(task, gid)
    sharding._run_group = faulty_group
"""


def _child(tmp_path, body):
    """Run ``PRELUDE`` + ``body`` in a fresh interpreter whose TMPDIR is
    test-owned; returns ``(returncode, stdout, stderr, tmpdir)``."""
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    script = PRELUDE + textwrap.dedent(body)
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=str(tmpdir))
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=env, cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"the fan-out was still running after {TIMEOUT} s")
    return proc.returncode, out, err, tmpdir


def _report(tmp_path, body):
    """Run a library case; returns the words it printed.  It must leave
    TMPDIR empty."""
    code, out, err, tmpdir = _child(tmp_path, body)
    assert code == 0, err
    assert list(tmpdir.iterdir()) == []
    return out.split()


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    """Ten-odd 64-record chunks: ``parallel_pair(chunk_records=64)``."""
    path = tmp_path_factory.mktemp("fanout") / "small.rtb"
    write_trace(path, make_stream(300))
    return path


@pytest.fixture(scope="module")
def large_trace(tmp_path_factory):
    """Enough records for auto-chunking to plan several chunks, as a
    ``repro analyze --jobs 2`` run does."""
    path = tmp_path_factory.mktemp("fanout") / "large.rtb"
    write_trace(path, make_stream(20000))
    return path


def test_cli_import_loads_no_pool_machinery():
    code = (
        "import sys, repro.cli.main\n"
        "loaded = [m for m in ('concurrent.futures', 'multiprocessing')\n"
        "          if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=SRC), timeout=TIMEOUT)


class TestWorkerKilled:
    def test_parallel_pair(self, tmp_path, small_trace):
        assert _report(tmp_path, f"""
            fault(die, {str(small_trace)!r})
            try:
                par.parallel_pair({str(small_trace)!r}, jobs=2,
                                  chunk_records=64)
            except Exception as exc:
                print(type(exc).__name__)
            print(len(multiprocessing.active_children()))
        """) == ["WorkerDiedError", "0"]

    def test_run_sharded(self, tmp_path):
        assert _report(tmp_path, """
            fault(die)
            try:
                sharding.run_sharded("campus", users=4, days=0.05, seed=11,
                                     shards=2, warmup_days=1.4)
            except Exception as exc:
                print(type(exc).__name__)
            print(len(multiprocessing.active_children()))
            print(open_run_files())
        """) == ["WorkerDiedError", "0", "0"]

    @pytest.mark.parametrize("argv, out", [
        (["analyze", "--in", "TRACE", "--jobs", "2",
          "--metrics-out", "m.json"], "m.json"),
        (["simulate", "--system", "campus", "--users", "4", "--days",
          "0.05", "--seed", "11", "--shards", "2", "--out", "x.rtb"],
         "x.rtb"),
    ], ids=["analyze-jobs-2", "simulate-shards-2"])
    def test_cli_exits_2(self, tmp_path, large_trace, argv, out):
        argv = [str(large_trace) if a == "TRACE" else a for a in argv]
        code, _stdout, err, tmpdir = _child(tmp_path, f"""
            fault(die, {str(large_trace)!r}, chunk_records=None)
            from repro.cli import main
            sys.exit(main({argv!r}))
        """)
        assert code == 2, err
        assert err.startswith("repro: error:") and err.count("\n") == 1, err
        assert "died" in err
        assert not (tmp_path / out).exists()
        assert list(tmpdir.iterdir()) == []


class TestWorkerRaises:
    def test_error_surfaces_and_the_next_call_gets_a_pool(
        self, tmp_path, small_trace
    ):
        trace = str(small_trace)
        assert _report(tmp_path, f"""
            def corrupt():
                raise TraceFormatError("planted corrupt chunk")

            clean_decode = par.decode_chunk
            fault(corrupt, {trace!r})
            try:
                par.parallel_pair({trace!r}, jobs=2, chunk_records=64)
            except TraceFormatError as exc:
                print(exc)
            print(len(multiprocessing.active_children()))
            par.decode_chunk = clean_decode
            pooled = par.parallel_pair({trace!r}, jobs=2, chunk_records=64)
            serial = par.parallel_pair({trace!r}, jobs=1, chunk_records=64)
            print(pooled == serial)
        """) == ["planted", "corrupt", "chunk", "0", "True"]

    def test_a_failed_task_stops_the_running_ones(self, tmp_path):
        # group 0 would run for ten minutes; group 1's failure must end
        # the run and kill group 0's worker well inside the timeout
        assert _report(tmp_path, """
            import time
            from repro.errors import SimulationError

            run_group = sharding._run_group
            def stuck_or_broken(task, gid):
                if gid == 0:
                    time.sleep(600)
                if gid == 1:
                    raise SimulationError("planted world failure")
                return run_group(task, gid)
            sharding._run_group = stuck_or_broken
            try:
                sharding.run_sharded("campus", users=4, days=0.05, seed=11,
                                     shards=2, warmup_days=1.4)
            except SimulationError as exc:
                print(exc)
            print(len(multiprocessing.active_children()))
        """) == ["planted", "world", "failure", "0"]


#: a sharded run over four client groups, its streams read through
#: small windows and merged into small blocks, so a write is many
#: blocks long
SHARDED_RUN = """
from repro.trace import binfmt
binfmt._WINDOW_BYTES = 256
binfmt._FLUSH_BYTES = 4096
run = sharding.run_sharded("campus", users=4, days=0.05, seed=11,
                           shards={shards}, warmup_days=1.4)
# a pool keeps threads of its own; a write must add none that outlives it
threads = threading.active_count()
"""


def _sharded(shards, body):
    """``body`` run after :data:`SHARDED_RUN` made ``run``."""
    return SHARDED_RUN.format(shards=shards) + textwrap.dedent(body)


class TestShardedWrite:
    """The group streams stay open, unlinked files until the run is
    closed, and a failed merge or write leaves nothing behind."""

    @pytest.mark.parametrize("shards, name", [
        (1, "x.rtb.gz"), (2, "x.rtb.gz"), (2, "x.rtb"),
    ])
    def test_a_write_leaves_nothing(self, tmp_path, shards, name):
        assert _report(tmp_path, _sharded(shards, f"""
            with run:
                print(open_run_files())
                print(run.write("{name}") == run.record_count)
            run.close()  # closing twice is harmless
            print(open_run_files(), threading.active_count() - threads)
            print(os.path.exists("{name}"))
        """)) == ["4", "True", "0", "0", "True"]

    def test_a_merge_error_leaves_nothing(self, tmp_path):
        assert _report(tmp_path, _sharded(2, """
            merge_frames = sharding.merge_frames
            def fail_mid_merge(payloads):
                for count, block in enumerate(merge_frames(payloads)):
                    if count == 5:
                        raise TraceFormatError("planted merge failure")
                    yield block
            sharding.merge_frames = fail_mid_merge
            with run:
                try:
                    run.write("x.rtb.gz")
                except TraceFormatError as exc:
                    print(exc)
            print(open_run_files(), threading.active_count() - threads)
            print(os.path.exists("x.rtb.gz"))
        """)) == ["planted", "merge", "failure", "0", "0", "False"]

    def test_a_failed_writer_ends_the_write(self, tmp_path):
        # the deflate thread's Nth write fails once the merge has filled
        # the queue and waits on it: the merge must stop, the error
        # reach the caller, and neither thread nor file remain
        assert _report(tmp_path, _sharded(2, """
            import time
            from repro.trace.binfmt import DeterministicGzipWriter
            write = DeterministicGzipWriter.write
            blocks = []
            def failing_write(self, data):
                blocks.append(len(data))
                if len(blocks) == 3:
                    time.sleep(0.5)
                    raise OSError(28, "planted: no space left")
                return write(self, data)
            DeterministicGzipWriter.write = failing_write
            with run:
                try:
                    run.write("x.rtb.gz")
                except OSError as exc:
                    print(exc.strerror)
                print(run.record_count > 500)
            print(len(blocks), open_run_files(),
                  threading.active_count() - threads)
            print(os.path.exists("x.rtb.gz"))
        """)) == ["planted:", "no", "space", "left", "True", "3", "0", "0",
                  "False"]

    def test_a_failed_close_ends_the_write(self, tmp_path):
        # the gzip trailer is written when the file closes, after the
        # writer thread has taken the end of the stream: a full disk
        # there must still reach the caller, not leave a thread waiting
        assert _report(tmp_path, _sharded(2, """
            from repro.trace.binfmt import DeterministicGzipWriter
            close = DeterministicGzipWriter.close
            def failing_close(self):
                close(self)
                raise OSError(28, "planted: no space left")
            DeterministicGzipWriter.close = failing_close
            with run:
                try:
                    run.write("x.rtb.gz")
                except OSError as exc:
                    print(exc.strerror)
            print(open_run_files(), threading.active_count() - threads)
            print(os.path.exists("x.rtb.gz"))
        """)) == ["planted:", "no", "space", "left", "0", "0", "False"]
