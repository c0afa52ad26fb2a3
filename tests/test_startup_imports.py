"""Each command imports only what it runs.

``import repro.cli.main`` loads the analysis commands' stack and no
more; the simulator, ingest, anonymizer, monitor and HTTP stacks load
only in the commands that run them, and fork-started pool workers
inherit every module their tasks need.  Each case runs in a fresh
interpreter, since this process has imported everything already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.trace import write_trace
from tests.test_analysis_parallel import make_stream

SRC = str(Path(repro.__file__).resolve().parents[1])
TIMEOUT = 120

#: what ``import repro.cli.main`` must leave unloaded
NOT_AT_START_UP = (
    "http.server", "ssl", "_hashlib", "repro.workloads.harness",
    "repro.scenarios.spec",
    "repro.faults.injector", "repro.client", "repro.server", "repro.netsim",
    "repro.fs.filesystem", "repro.anonymize", "repro.ingest",
    "repro.stream.monitor", "repro.stream.live", "repro.obs.rotate",
)

#: the simulator's modules, which no analysis command runs
SIMULATOR = (
    "repro.workloads.harness", "repro.workloads.sharding",
    "repro.workloads.email_campus", "repro.workloads.research_eecs",
    "repro.scenarios", "repro.faults", "repro.client", "repro.server",
    "repro.netsim", "repro.fs.filesystem", "repro.simcore.events",
    "repro.trace.collector",
)

SIMULATE = ["simulate", "--system", "campus", "--users", "4", "--days",
            "0.05", "--seed", "11", "--out", "x.rtb"]


def _loaded(tmp_path, body) -> set[str]:
    """Run ``body`` in a fresh interpreter; the modules it loaded."""
    listing = tmp_path / "modules.json"
    script = textwrap.dedent(body) + (
        "\nimport json, sys\n"
        f"with open({str(listing)!r}, 'w') as out:\n"
        "    json.dump(sorted(sys.modules), out)\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True, cwd=tmp_path,
                   env=dict(os.environ, PYTHONPATH=SRC), timeout=TIMEOUT,
                   stdout=subprocess.DEVNULL)
    return set(json.loads(listing.read_text()))


def _run_cli(argv) -> str:
    return (f"from repro.cli.main import main\n"
            f"assert main({argv!r}) == 0\n")


def _on(argv, trace) -> list[str]:
    return [trace if arg == "TRACE" else arg for arg in argv]


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    """Enough records for ``analyze --jobs 2`` to plan several chunks."""
    path = tmp_path_factory.mktemp("startup") / "t.rtb"
    write_trace(path, make_stream(20000))
    return str(path)


def test_cli_import_loads_only_the_analysis_stack(tmp_path):
    loaded = _loaded(tmp_path, "import repro.cli.main")
    assert not loaded.intersection(NOT_AT_START_UP)


@pytest.mark.parametrize("argv", [
    ["analyze", "--in", "TRACE"],
    ["analyze", "--in", "TRACE", "--stream"],
    ["analyze", "--in", "TRACE", "--jobs", "2"],
    ["report", "--in", "TRACE"],
], ids=["analyze", "analyze-stream", "analyze-jobs-2", "report"])
def test_analysis_commands_load_no_simulator(tmp_path, trace, argv):
    loaded = _loaded(tmp_path, _run_cli(_on(argv, trace)))
    assert not loaded.intersection(SIMULATOR)


#: the simulator's run-time stack, which the scenario commands only
#: describe: the workload modules name ``TracedSystem`` in annotations
SIMULATOR_RUNTIME = (
    "repro.workloads.harness", "repro.client", "repro.server",
    "repro.netsim", "repro.fs.filesystem",
)


@pytest.mark.parametrize("argv", [
    ["scenarios", "list"],
    ["scenarios", "show", "campus"],
    ["scenarios", "validate", "campus"],
], ids=["list", "show", "validate"])
def test_scenario_commands_load_no_simulator_runtime(tmp_path, argv):
    loaded = _loaded(tmp_path, _run_cli(argv))
    assert "repro.scenarios.spec" in loaded
    assert not loaded.intersection(SIMULATOR_RUNTIME)


@pytest.mark.parametrize("extra", [[], ["--shards", "2"]],
                         ids=["inline", "shards-2"])
def test_simulate_loads_no_ingest_or_http(tmp_path, extra):
    loaded = _loaded(tmp_path, _run_cli(SIMULATE + extra))
    assert "repro.workloads.harness" in loaded
    assert not loaded.intersection(
        ("repro.ingest", "repro.anonymize", "http.server"))


NFSDUMP = str(Path(__file__).parent / "fixtures" / "ingest" / "nfsdump.txt")


@pytest.mark.parametrize("argv", [
    ["analyze", "--in", "TRACE"],
    ["analyze", "--in", "TRACE", "--stream"],
    SIMULATE,
    SIMULATE + ["--shards", "1"],
    ["ingest", "--in", NFSDUMP, "--format", "auto", "--out", "y.rtb"],
], ids=["analyze", "analyze-stream", "simulate", "simulate-shards-1",
        "ingest"])
def test_pool_free_commands_load_no_openssl(tmp_path, trace, argv):
    """``hashlib`` would load OpenSSL's libcrypto (megabytes of resident
    memory) for the one hash the toolkit computes, BLAKE2b, which
    :mod:`repro._hashing` takes from CPython's own ``_blake2``.  (A pool
    loads it anyway: ``multiprocessing`` imports ``hmac``.)"""
    loaded = _loaded(tmp_path, _run_cli(_on(argv, trace)))
    assert "_hashlib" not in loaded


def test_blake2b_digests_equal_hashlib():
    import hashlib

    from repro._hashing import blake2b

    for data, kwargs in [
        (b"", {}),
        (b"campus/7/READ", {"digest_size": 16}),
        ("shard:g3".encode(), {"digest_size": 8,
                               "key": (7).to_bytes(8, "little")}),
        (bytes(range(256)) * 9, {"digest_size": 64}),
    ]:
        assert blake2b(data, **kwargs).digest() \
            == hashlib.blake2b(data, **kwargs).digest()


#: wraps each pool task so a worker records what it imported after the
#: fork (the same by-name patching perfbench's tracer uses)
WORKER_PROBE = """
import functools, json, os, sys
import repro.analysis.parallel as par
import repro.workloads.sharding as sharding

forked = set()

def after_fork():
    forked.update(sys.modules)

os.register_at_fork(after_in_child=after_fork)

def probe(task):
    @functools.wraps(task)
    def wrapper(*args, **kwargs):
        result = task(*args, **kwargs)
        imported = sorted(set(sys.modules) - forked)
        with open(os.path.join(REPORTS, f"{os.getpid()}.json"), "w") as out:
            json.dump(imported, out)
        return result
    return wrapper

par._pair_chunk_segment = probe(par._pair_chunk_segment)
sharding._run_shard_task = probe(sharding._run_shard_task)
"""


@pytest.mark.parametrize("argv", [
    # a flowop scenario: its interpreter is imported on demand
    ["simulate", "--system", "fileserver", "--users", "4", "--days", "0.05",
     "--seed", "11", "--shards", "2", "--out", "x.rtb"],
    ["analyze", "--in", "TRACE", "--jobs", "2"],
], ids=["simulate-shards-2", "analyze-jobs-2"])
def test_pool_workers_import_nothing_after_the_fork(tmp_path, trace, argv):
    reports = tmp_path / "reports"
    reports.mkdir()
    _loaded(tmp_path, f"REPORTS = {str(reports)!r}\n" + WORKER_PROBE
            + _run_cli(_on(argv, trace)))
    imported = [json.loads(p.read_text()) for p in reports.iterdir()]
    assert imported, "no pool task ran"
    assert imported == [[]] * len(imported)
