"""perfbench's tracer still installs: every seam it patches resolves.

``perfbench/tracer.py`` wraps functions and methods at the program's
layer seams by name (``repro.cli.main.characterize``,
``StreamPairer.push``, ...), so renaming one breaks ``--trace 1``.
``install()`` patches the same seams for every command (only the
reorder layer's label differs) and raises on the first name it cannot
find; it runs here once, in a fresh interpreter, which keeps its
patches out of this process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
PERFBENCH = SRC.parent / "perfbench"


@pytest.mark.skipif(not (PERFBENCH / "tracer.py").exists(),
                    reason="no perfbench/ beside src/")
def test_tracer_installs():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), str(PERFBENCH)])}
    result = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install('analyze')"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
