"""Shared process-pool plumbing for the fan-outs.

Two subsystems fan work over worker processes: the analysis pairing
fan-out (``repro.analysis.parallel``, ``analyze --jobs``) and the
sharded simulation engine (``repro.workloads.sharding``,
``simulate``/``monitor --shards``).  Both run on the same two pieces
of machinery, which live here exactly once:

* **Warm pools** — :func:`run_tasks` maps a task over its items on a
  ``concurrent.futures.ProcessPoolExecutor`` cached by
  ``(purpose, size)``: repeated runs in one process (benchmarks,
  tests, long-lived services) reuse the workers, and the analysis and
  simulation fan-outs never trade workers.  Workers start via
  :func:`init_worker`, which ``gc.freeze()``-es the inherited heap so
  the child's collections stop touching copy-on-write pages.  Any
  failure discards the pool, and its workers are killed and reaped
  before the failure reaches the caller.  A worker that dies (a
  signal, the OOM killer) raises
  :class:`~repro.errors.WorkerDiedError`: the executor watches every
  worker process, so a death ends the run without a deadline.

* **Segment transport** — a task's bulk result (an op segment, a
  group's ``.rtb`` stream, a group's span lines) never travels back
  through the pool's result pipe.  The task writes it to a file named
  by its task index inside the run's private ``mkdtemp`` directory
  (:func:`publish_segment`), and the parent reads the file back
  (:func:`claim_segment`); a sharded run's parent instead opens and
  unlinks each group's ``.rtb`` stream and merges it from disk.  The
  caller owns the directory and removes it when the run ends, failed
  or not.
"""

from __future__ import annotations

import atexit
import os

from repro.errors import WorkerDiedError

# ---------------------------------------------------------------------------
# Warm pool registry, keyed by (purpose, size).

_POOLS: dict[tuple[str, int], "ProcessPoolExecutor"] = {}


def init_worker() -> None:
    """Pool worker setup, fork-aware.

    ``gc.freeze()`` moves everything inherited from the parent into
    the permanent generation: the worker's collections no longer walk
    the parent heap, whose refcount writes would turn shared
    copy-on-write pages into private copies (a page storm that can
    dwarf the task's own work).  GC stays *enabled* for the worker's
    own garbage — pooled workers are reused by later calls and must
    not accumulate cycles with collection switched off.
    """
    import gc

    gc.freeze()


def shutdown_pools() -> None:
    """Shut every cached pool down and forget it (the atexit hook).

    Dropping the executors here, while every module is still loaded,
    keeps their collection out of interpreter teardown, where the
    executor's own cleanup callback fails and prints a traceback.
    """
    for pool in _POOLS.values():
        pool.shutdown(wait=True)
    _POOLS.clear()


atexit.register(shutdown_pools)


def pool_registry() -> dict[tuple[str, int], "ProcessPoolExecutor"]:
    """The live registry (introspection for tests; treat as read-only)."""
    return _POOLS


def run_tasks(purpose: str, processes: int, task, items) -> list:
    """``task(item)`` for every item on the warm pool of ``processes``
    workers for ``purpose``; the results come back in item order.

    Pools are cached per ``(purpose, size)``, so repeated fan-outs skip
    the fork storm, and distinct purposes never share workers — a
    simulation shard's memory-heavy world stays out of the analysis
    workers.

    The first failure, in whichever task it happens, ends the run: the
    pool is discarded before the failure propagates, so no worker of
    the run is still running (or writing into the run's temp dir) when
    it reaches the caller, and the next call gets a fresh pool.  An
    exception a task raised propagates as itself; a worker process that
    died raises :class:`~repro.errors.WorkerDiedError`.
    """
    # imported here, not at module top: every CLI start-up would pay
    # for loading concurrent.futures, and most runs never fan out
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    key = (purpose, processes)
    pool = _POOLS.get(key)
    if pool is None:
        pool = _POOLS[key] = ProcessPoolExecutor(
            max_workers=processes, initializer=init_worker
        )
    try:
        futures = [pool.submit(task, item) for item in items]
        for future in as_completed(futures):
            future.result()  # raises the first failure as it happens
        return [future.result() for future in futures]
    except BaseException as exc:
        del _POOLS[key]
        # The executor has no public way to stop a running task before
        # Python 3.14 (kill_workers), so kill through its worker table;
        # shutdown then joins the executor's thread, which reaps them.
        for worker in list((pool._processes or {}).values()):
            worker.kill()
        pool.shutdown(wait=True, cancel_futures=True)
        if isinstance(exc, BrokenProcessPool):
            raise WorkerDiedError(
                f"a worker of the {purpose} pool died before its task finished"
            ) from exc
        raise


# ---------------------------------------------------------------------------
# Segment transport: one file per task in the run's temp dir.

def publish_segment(workdir: str, name: str, payload: bytes) -> str:
    """Write a task's payload to ``workdir/name`` (worker side); returns
    the path the parent claims it by."""
    path = os.path.join(workdir, name)
    with open(path, "wb") as fileobj:
        fileobj.write(payload)
    return path


def claim_segment(path: str) -> bytes:
    """Read one published payload back and delete its file (parent side)."""
    with open(path, "rb") as fileobj:
        payload = fileobj.read()
    os.unlink(path)
    return payload
