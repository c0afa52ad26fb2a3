"""Run one ``repro`` CLI stage the way a user runs it.

Usage::

    python3 perfbench/stage.py RESULT.json TRACED ARGV...

A fresh interpreter imports ``repro.cli.main`` (set-up), then calls
``main(ARGV)`` (the stage).  The CLI's own stdout goes wherever this
process's stdout goes.  RESULT.json receives the exit code, the
``time.monotonic()`` instants at which the import finished and the
stage started and ended (comparable with the parent's clock), and the
stage process's peak RSS -- pool workers are separate processes and are
not included -- and the median time of a fixed reference workload run
just before and after the stage, which tells the parent how fast the
machine was running at the time.  With TRACED=1 the per-layer wrappers of
:mod:`tracer` are installed between import and ``main``, and their
accumulators are added to RESULT.json.
"""

import gc
import json
import statistics
import sys
import time

#: reference samples taken before and after the stage, each
REFERENCE_ROUNDS = 12


def reference_work() -> int:
    """A fixed slice of pure-Python work: dict updates and a sort."""
    table: dict[int, int] = {}
    for i in range(40000):
        key = (i * 7919) % 4099
        table[key] = table.get(key, 0) + i
    return len(sorted((v % 97, str(k), k) for k, v in table.items()))


def reference_samples() -> list[float]:
    """Timed rounds of :func:`reference_work`, with the cyclic GC off:
    a collection would walk the program's heap, whose size differs by
    stage and by code version, and the reference must not."""
    samples = []
    gc.disable()
    try:
        for _ in range(REFERENCE_ROUNDS):
            start = time.perf_counter()
            reference_work()
            samples.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return samples


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``), in MB.

    Not ``getrusage``: Linux carries ``ru_maxrss`` across ``exec``, so
    a stage would inherit the peak of the process that spawned it.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run() -> int:
    result_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from repro.cli.main import main

    ready = time.monotonic()
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.install(argv[0])
    reference = reference_samples()
    start = time.monotonic()
    code = main(argv)
    end = time.monotonic()
    sys.stdout.flush()
    reference += reference_samples()
    result = {
        "code": code,
        "ready": ready,
        "start": start,
        "end": end,
        "peak_mb": peak_rss_mb(),
        "reference_s": statistics.median(reference),
        "reference_total_s": sum(reference),
    }
    if tracer is not None:
        result["layers"] = tracer.report()
    with open(result_path, "w", encoding="utf-8") as out:
        json.dump(result, out)
    return code


if __name__ == "__main__":
    sys.exit(run())
