"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced, checks that each metric the
benchmark defines is printed by name with its unit, and that a corrupted
reference value is counted as a failed op.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--size", "tiny",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, lines[:-1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    result, _ = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result, lines = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert expected == tracer.COMMON
    printed = {line.split(" = ")[0].strip(): line.rsplit(" ", 1)[1]
               for line in lines if " = " in line}
    assert printed == {**tracer.COMMON, **tracer.WORKLOAD_SPECIFIC}
    assert result["metrics"]["fbsde.unknowns"]["value"] > 0


def _corrupt(values):
    """Move the first number found in a reference entry off by 1e-6 relative."""
    if isinstance(values, dict):
        key = next(iter(values))
        return {**values, key: _corrupt(values[key])}
    if isinstance(values, list):
        return [_corrupt(values[0])] + values[1:]
    return values * (1 + 1e-6) if values else 1e-3


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_reference_counts_failed_ops(workload, tmp_path):
    stored = json.loads((HERE / "reference.json").read_text())
    assert set(workloads.KINDS) <= set(stored["tiny"]), "the tiny reference must cover every kind"
    kind = workloads.WORKLOADS[workload][0]
    stored["tiny"][kind] = _corrupt(stored["tiny"][kind])
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(stored))
    result, lines = _run(workload, 0, "--seed", str(stored["seed"]), "--reference", str(bad))
    assert not result["correct"] and result["failed"] > 0
    assert any("reference mismatch" in line for line in lines)


def test_fails_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "study",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
