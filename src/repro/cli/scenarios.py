"""``repro scenarios`` and ``repro characterize``: the scenario library
and the fit of a scenario to a trace."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.pairing import pair_trace
from repro.cli.common import require_ops
from repro.report import format_table
from repro.scenarios import (
    ScenarioSpec,
    fit_scenario,
    get_scenario,
    load_scenario,
    scenario_names,
)


def cmd_scenarios(args) -> int:
    """List, show, or validate workload scenarios."""
    from repro.scenarios import ScenarioSpec, get_scenario

    if args.action == "list":
        rows = []
        payload = []
        for name in scenario_names():
            spec = get_scenario(name)
            kind = spec.model.kind if spec.model is not None else "flowops"
            rows.append([
                name, kind, spec.default_users(), len(spec.flowops) or "-",
                spec.title or "-",
            ])
            payload.append({
                "name": name, "kind": kind,
                "users": spec.default_users(),
                "flowops": len(spec.flowops), "title": spec.title,
            })
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(format_table(
                ["Name", "Kind", "Users", "Flowops", "Title"], rows,
                title="Scenario library",
            ))
            print("\nrun one with: repro simulate --scenario NAME "
                  "--days 1 --out trace.txt")
        return 0
    if args.ref is None and args.action == "show":
        raise ValueError("scenarios show needs a scenario name or file")
    if args.action == "show":
        print(load_scenario(args.ref).spec())
        return 0
    # validate: one reference, or the whole library when none is given
    refs = [args.ref] if args.ref is not None else scenario_names()
    results = []
    for ref in refs:
        spec = load_scenario(ref)
        # the round-trip contract is part of "valid": canonical text
        # must re-parse to an equal object
        reparsed = ScenarioSpec.parse(spec.spec())
        if reparsed != spec:
            raise ValueError(
                f"scenario {spec.name!r} fails the round-trip contract"
            )
        results.append(spec)
    if args.json:
        print(json.dumps(
            [{"name": s.name, "clauses": len(s.clauses), "valid": True}
             for s in results], indent=2,
        ))
    else:
        for spec in results:
            print(f"{spec.name}: ok ({len(spec.clauses)} clauses)")
    return 0


def cmd_characterize(args) -> int:
    """Fit a scenario-spec skeleton to a trace (the synthetic twin)."""
    from repro.scenarios import fit_scenario

    ops, _stats = pair_trace(args.input)
    require_ops(ops, args.input)
    spec = fit_scenario(ops, name=args.name)
    text = spec.spec() + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote scenario {spec.name!r} ({len(spec.clauses)} clauses, "
              f"fitted from {len(ops)} ops) to {args.out}")
        print(f"simulate it with: repro simulate --scenario {args.out} "
              f"--days 1 --out twin.txt")
    else:
        print(text, end="")
    return 0
