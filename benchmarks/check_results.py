"""Check that the benchmark tables still match ``RESULTS.txt``.

Usage (from the root of a checkout)::

    PYTHONPATH=src python -m pytest benchmarks -q -s > bench-out.txt
    python benchmarks/check_results.py bench-out.txt

Only the printed tables are compared: pytest's progress-dot lines and
the pytest-benchmark timing block, which differ from run to run, are
dropped from both sides.  Exits 1 with a unified diff on any drift.
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "RESULTS.txt"


def tables(text: str) -> list[str]:
    """The lines of ``text`` up to the timing block, minus dot lines."""
    lines = []
    for line in text.splitlines():
        if line.startswith("-") and " benchmark: " in line:
            break
        if line and not line.strip("."):
            continue
        lines.append(line.rstrip())
    while lines and not lines[-1]:
        lines.pop()
    return lines


def main(argv: list[str]) -> int:
    want = tables(RESULTS.read_text())
    got = tables(Path(argv[0]).read_text())
    diff = list(difflib.unified_diff(
        want, got, str(RESULTS), argv[0], lineterm=""))
    print("\n".join(diff) if diff else f"tables match {RESULTS.name}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
