"""repro.scenarios — the declarative workload DSL and scenario library.

Scenarios are data: a spec string of ``clause(key=value,...)`` lines
(:mod:`repro.scenarios.spec`) that validates into a frozen
:class:`ScenarioSpec`, compiles onto the existing generator machinery
(:mod:`repro.scenarios.compile`), and ships in a built-in library
(:mod:`repro.scenarios.library`) covering the paper's two systems —
byte-identical to the legacy hand-coded classes — plus fileserver,
CI-build, HPC-scratch, backup-sweep, and flash-crowd shapes.  See
docs/SCENARIOS.md for the grammar reference and authoring guide.
"""

from repro._lazy import lazy_exports
from repro.errors import ScenarioSpecError

__all__ = [
    "CompiledScenario",
    "Dist",
    "DiurnalClause",
    "FilesetClause",
    "FlashCrowdClause",
    "FlowopClause",
    "HostsClause",
    "LIBRARY",
    "ModelClause",
    "PopulationClause",
    "ScenarioClause",
    "ScenarioDecl",
    "ScenarioSpec",
    "ScenarioSpecError",
    "ScenarioWorkload",
    "compile_workload",
    "fit_scenario",
    "get_scenario",
    "load_scenario",
    "scenario_names",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "spec": ("Dist", "DiurnalClause", "FilesetClause", "FlashCrowdClause",
             "FlowopClause", "HostsClause", "ModelClause", "PopulationClause",
             "ScenarioClause", "ScenarioDecl", "ScenarioSpec"),
    "compile": ("CompiledScenario", "compile_workload"),
    "generator": ("ScenarioWorkload",),
    "library": ("LIBRARY", "get_scenario", "load_scenario", "scenario_names"),
    "fit": ("fit_scenario",),
})
