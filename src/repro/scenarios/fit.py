"""Fit a scenario-spec skeleton to a paired trace.

``repro characterize`` runs this: given the paired operations of any
trace (ingested with ``repro ingest`` or produced by ``repro
simulate``), estimate a flowops scenario whose rates, transfer-size
distributions, and fileset shape approximate what the trace shows —
a *synthetic twin* skeleton a human then tunes.

The fit is deliberately simple and closed-form:

* population ≈ distinct uids (distinct clients when uids are absent);
* one host pool sized to the distinct client count, transport/version
  by majority vote;
* one fileset: entry count ≈ distinct file handles touched by data
  ops, size ≈ lognormal fit of observed ``post_size`` (median =
  ``exp(mean(log x))``, sigma = ``std(log x)`` — the MLE for lognormal
  data);
* flowops: per-category op counts scaled to per-user-day rates at the
  diurnal peak (the generators' rate convention divides by the mean
  multiplier, so the fit multiplies by it), read/write byte
  distributions fitted the same lognormal way, random-vs-sequential
  from the fraction of nonzero offsets, churn from create+remove
  pairs, and a scan/stat flowop from the metadata volume.

The emitted spec is validated and round-tripped before it leaves, so
``repro characterize --out twin.scn`` always writes something
``repro simulate --scenario twin.scn`` will accept.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.analysis.pairing import PairedOp
from repro.nfs.procedures import NfsProc
from repro.simcore.clock import SECONDS_PER_DAY
from repro.workloads.diurnal import DiurnalModel

from repro.scenarios.spec import Dist, ScenarioSpec

#: procedures counted as metadata for the stat-flowop fit
_META_PROCS = {NfsProc.GETATTR, NfsProc.LOOKUP, NfsProc.ACCESS}


def _lognorm_fit(values: list[int]) -> Dist:
    """MLE lognormal fit of positive sizes; const for tiny samples."""
    positive = [v for v in values if v > 0]
    if len(positive) < 8:
        typical = positive[len(positive) // 2] if positive else 1024
        return Dist("const", float(sorted((64, typical, 10**9))[1]))
    logs = [math.log(v) for v in positive]
    mean = sum(logs) / len(logs)
    var = sum((x - mean) ** 2 for x in logs) / len(logs)
    median = round(math.exp(mean))
    sigma = round(math.sqrt(var), 2)
    return Dist("lognorm", float(max(1, median)), max(0.01, sigma))


def _rate(count: int, users: int, days: float, mean_mult: float) -> float:
    """Events per user-day *at the diurnal peak* (generator convention).

    The generators derive intervals as ``day * mean_mult / rate``, so
    realized events per user-day ≈ ``rate / mean_mult``; the inverse
    recovers the spec-space rate from the observed count.
    """
    per_user_day = count / max(users, 1) / max(days, 1e-9)
    return max(0.01, round(per_user_day * mean_mult, 1))


def fit_scenario(
    ops: Iterable[PairedOp], *, name: str = "fitted",
) -> ScenarioSpec:
    """Estimate a flowops scenario from paired operations.

    Raises :class:`ValueError` when the trace has no operations to fit.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("cannot fit a scenario to an empty op stream")

    clients: set[str] = set()
    uids: set[int] = set()
    data_handles: set[str] = set()
    read_bytes: list[int] = []
    write_bytes: list[int] = []
    file_sizes: dict[str, int] = {}
    read_rand = read_ops = 0
    write_rand = write_ops = 0
    meta_ops = creates = removes = readdirs = v3_votes = 0
    first = math.inf
    last = -math.inf

    for op in ops:
        first = min(first, op.time)
        last = max(last, op.time)
        clients.add(op.client)
        if op.uid is not None:
            uids.add(op.uid)
        if op.version == 3:
            v3_votes += 1
        if op.proc is NfsProc.READ:
            read_ops += 1
            if op.count:
                read_bytes.append(op.count)
            if op.offset:
                read_rand += 1
            if op.fh:
                data_handles.add(op.fh)
        elif op.proc is NfsProc.WRITE:
            write_ops += 1
            if op.count:
                write_bytes.append(op.count)
            if op.offset:
                write_rand += 1
            if op.fh:
                data_handles.add(op.fh)
        elif op.proc in _META_PROCS:
            meta_ops += 1
        elif op.proc is NfsProc.CREATE:
            creates += 1
        elif op.proc is NfsProc.REMOVE:
            removes += 1
        elif op.proc is NfsProc.READDIR:
            readdirs += 1
        if op.fh and op.post_size:
            file_sizes[op.fh] = op.post_size

    total = len(ops)
    days = max((last - first) / SECONDS_PER_DAY, 1e-6)
    users = max(1, len(uids) or len(clients))
    hosts = max(1, len(clients))
    # the trace does not carry the transport; v3 deployments in this
    # codebase run TCP and v2 UDP, so the version majority decides both
    version = 3 if v3_votes * 2 >= total else 2
    transport = "tcp" if version == 3 else "udp"
    diurnal = DiurnalModel()
    mean_mult = sum(diurnal.hourly_profile()) / len(diurnal.hourly_profile())

    files = max(1, min(len(data_handles) or len(file_sizes) or 64, 100_000))
    size_dist = _lognorm_fit(list(file_sizes.values()))

    lines = [
        f"# fitted from {total} paired ops over {days:.2f} day(s),",
        f"# {len(clients)} client(s), {len(uids)} uid(s); rates are",
        "# per user-day at the diurnal peak -- tune before trusting",
        f"scenario(name={name})",
        f"population(users={users})",
        f"hosts(name=host,count={hosts},transport={transport},"
        f"version={version})",
        f"fileset(name=data,files={files},size={size_dist.spec()},"
        f"dirs={max(1, min(files // 20, 100))})",
    ]
    if read_ops:
        pattern = "rand" if read_rand * 2 > read_ops else "seq"
        lines.append(
            f"flowop(op=read,fileset=data,"
            f"rate={_rate(read_ops, users, days, mean_mult):g},"
            f"bytes={_lognorm_fit(read_bytes).spec()},pattern={pattern})"
        )
    if write_ops:
        pattern = "rand" if write_rand * 2 > write_ops else "seq"
        lines.append(
            f"flowop(op=write,fileset=data,"
            f"rate={_rate(write_ops, users, days, mean_mult):g},"
            f"bytes={_lognorm_fit(write_bytes).spec()},pattern={pattern})"
        )
    churn = min(creates, removes)
    if churn:
        lines.append(
            f"flowop(op=churn,fileset=data,"
            f"rate={_rate(churn, users, days, mean_mult):g},"
            f"bytes={_lognorm_fit(write_bytes).spec()},"
            f"lifetime=expo:120,cap=64)"
        )
    if meta_ops:
        lines.append(
            f"flowop(op=stat,fileset=data,"
            f"rate={_rate(meta_ops, users, days, mean_mult):g})"
        )
    if readdirs:
        lines.append(
            f"flowop(op=scan,fileset=data,"
            f"rate={_rate(readdirs, users, days, mean_mult):g})"
        )
    if len(lines) <= 7:
        # degenerate traces (metadata-only microbenchmarks) still get a
        # valid spec: a stat flowop over whatever handles were seen
        lines.append("flowop(op=stat,fileset=data,rate=10)")
    text = "\n".join(lines)
    spec = ScenarioSpec.parse(text)
    # round-trip before anyone writes it to disk: the emitted text must
    # re-parse to an equal object or the fitter has a bug
    assert ScenarioSpec.parse(spec.spec()) == spec
    return spec
