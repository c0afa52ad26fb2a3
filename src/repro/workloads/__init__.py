"""Synthetic workload generators for the two traced systems.

* :mod:`repro.workloads.email_campus` — the CAMPUS workload: an
  email-dominated population served through a handful of POP/SMTP/login
  server hosts (the NFS clients), NFSv3 over TCP.
* :mod:`repro.workloads.research_eecs` — the EECS workload: research /
  software-development users on personal workstations, NFSv2+v3 over
  UDP, metadata-heavy.

Shared infrastructure: user populations (:mod:`users`), the weekly
diurnal intensity model (:mod:`diurnal`), filename generators
(:mod:`namespaces`), the generator base (:mod:`base`), and
:class:`~repro.workloads.harness.TracedSystem`, which wires file
system, server, network, mirror port, collector, and clients into one
runnable simulation.
"""

from repro._lazy import lazy_exports

__all__ = [
    "WorkloadGenerator",
    "DiurnalModel",
    "User",
    "UserPopulation",
    "TracedSystem",
    "CampusEmailWorkload",
    "CampusParams",
    "EecsResearchWorkload",
    "EecsParams",
    "DEFAULT_GROUPS",
    "GroupSpec",
    "ShardRun",
    "partition_users",
    "plan_shards",
    "run_sharded",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("WorkloadGenerator",),
    "diurnal": ("DiurnalModel",),
    "users": ("User", "UserPopulation"),
    "harness": ("TracedSystem",),
    "email_campus": ("CampusEmailWorkload", "CampusParams"),
    "research_eecs": ("EecsResearchWorkload", "EecsParams"),
    "sharding": ("DEFAULT_GROUPS", "GroupSpec", "ShardRun", "partition_users",
                 "plan_shards", "run_sharded"),
})
