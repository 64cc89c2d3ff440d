"""Smoke test of the benchmark itself: a scaled-down pass of every workload.

Run from the root of the checkout::

    python3 -m pytest perfbench/test_smoke.py -q

Each pass must print every metric named in ``BENCHMARK.json`` with its
unit, every descriptive end-to-end name of its workload, and finish with
no failed operation.  The benchmark must refuse to run, without printing
a result, in a directory that holds only ``BENCHMARK.json`` and
``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DESCRIPTIVE = {
    "flow_tight": ("flow_p50_s", "n_buffers", "error_rate"),
    "flow_large": ("flow_p50_s", "n_buffers", "error_rate"),
    "campaign_gang": ("cells_per_s", "n_buffers", "error_rate"),
    "service_burst": ("jobs_per_s", "request_p50_ms", "request_p90_ms", "error_rate"),
}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_scaled_down_pass_emits_every_metric(workload: str, trace: int) -> None:
    completed = run_bench(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in expected
    }
    assert all(isinstance(entry["value"], float) for entry in result["metrics"].values())
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if len(line.split()) == 3}
    for name in DESCRIPTIVE[workload]:
        assert name in printed
    assert printed["error_rate"] == "fraction"
    assert float(next(line for line in lines if line.split()[0] == "error_rate").split()[1]) == 0


def test_refuses_to_run_without_the_program() -> None:
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for source in (ROOT / "perfbench").glob("*.py"):
            shutil.copy(source, bare / "perfbench" / source.name)
        completed = run_bench(bare, "flow_tight", 0)
        assert completed.returncode != 0
        assert '"metrics"' not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
