"""Command-line tools.

The paper's contribution list includes "tools to gather new anonymized
NFS traces"; this package is that toolchain for the simulated world
plus any trace in the library's format:

* ``repro simulate`` — generate a synthetic CAMPUS/EECS trace file.
* ``repro anonymize`` — anonymize a trace for sharing (Section 2).
* ``repro summary`` — Table 2-style daily activity summary.
* ``repro runs`` — Table 3-style run-pattern classification.
* ``repro lifetimes`` — Table 4/Figure 3 block lifetime analysis.
* ``repro report`` — the full Table 1 characterization.

Each subcommand works on ``.trace``/``.trace.gz`` files, so the
pipeline composes: simulate → anonymize → analyze.
"""

from repro._lazy import lazy_exports

__all__ = ["main"]

__getattr__, __dir__ = lazy_exports(__name__, {"main": ("main",)})
