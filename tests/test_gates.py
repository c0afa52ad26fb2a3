"""The CI gate harness, ``benchmarks/smoke.py``, and the CI job that
runs it."""

import json
import re
from pathlib import Path

import pytest

from benchmarks import smoke

CI = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def _gate_legs() -> list[tuple[str, int, int]]:
    """``(gate, inner timeout s, job timeout min)`` per leg of CI's
    ``gates`` job, read as text: the tests job installs no YAML
    parser."""
    jobs = re.split(r"\n  (?=[\w-]+:\n)", CI.read_text())
    job = next(job for job in jobs if job.startswith("gates:\n"))
    return [
        (gate, int(seconds), int(minutes))
        for gate, seconds, minutes in re.findall(
            r"- \{gate: (\w+), seconds: (\d+), minutes: (\d+)\}", job)
    ]


def test_ci_legs_are_the_gate_table():
    legs = _gate_legs()
    assert [gate for gate, _, _ in legs] == list(smoke.GATES)
    for gate, seconds, minutes in legs:
        assert seconds < minutes * 60, gate
    assert CI.read_text().count("python benchmarks/smoke.py") == 1


@pytest.fixture()
def small_bench(monkeypatch, tmp_path):
    """The bench gate over a half-day, two-user world instead of its
    two-day trace; returns the baseline path it reads and writes."""
    campus = smoke.campus
    monkeypatch.setattr(
        smoke, "campus",
        lambda seed, users, days, **kw: campus(seed, 2, 0.5, **kw))
    baseline = tmp_path / "baseline.json"
    monkeypatch.setattr(smoke, "BASELINE", baseline)
    return baseline


def test_bench_fails_without_baseline(small_bench, tmp_path, capsys):
    assert smoke.main(["bench", "--out", str(tmp_path / "out")]) == 1
    result = json.loads((tmp_path / "out" / "bench.json").read_text())
    assert result["gate"] == "bench"
    assert not result["passed"]
    assert result["failures"] == [
        f"no baseline at {small_bench}; record one with --write-baseline"
    ]
    assert result["numbers"]["records"] > 0
    assert "0 of 1 gates passed; failed: bench" in capsys.readouterr().out


def test_write_baseline_stores_the_flat_numbers(small_bench, tmp_path):
    out = tmp_path / "out"
    assert smoke.main(["bench", "--write-baseline", "--out", str(out)]) == 0
    numbers = json.loads((out / "bench.json").read_text())["numbers"]
    assert json.loads(small_bench.read_text()) == {"bench": "smoke",
                                                   **numbers}
    assert set(smoke.GATED) <= set(numbers)


def test_baseline_floor_is_seventy_percent(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({metric: 100.0 for metric in smoke.GATED}))
    at_floor = {metric: 70.0 for metric in smoke.GATED}
    assert smoke.baseline_failures(at_floor, path) == []
    for metric in smoke.GATED:
        below = dict(at_floor, **{metric: 69.9})
        [failure] = smoke.baseline_failures(below, path)
        assert failure.startswith(f"{metric} 69.9 < floor 70.00")


@pytest.mark.parametrize(
    "argv", [["nope"], ["stream", "--write-baseline"]])
def test_bad_command_lines_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        smoke.main(argv)
    assert exit_info.value.code == 2
