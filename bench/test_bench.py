"""End-to-end checks of the benchmark on its tiny configuration.

    python -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench_inputs import WORKLOADS, make_inputs
from run import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# counts that must be nonzero in a workload's traced run: every layer is
# exercised by at least one workload
EXERCISED = {
    "search-random": ["tree.anatomize_calls", "search.evaluated", "search.pruned", "delta.terms"],
    "search-spine": ["tree.anatomize_calls", "search.evaluated", "search.pruned", "delta.terms"],
    "long-cycle": ["delta.terms", "matrixform.cells", "sweep.records", "sweep.ops"],
    "verify-audit": ["matrixform.cells", "oracle.calls", "bounds.scan_trees", "randgen.decode_calls"],
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def tiny_result(workload: str, trace: int, seed: int = 7) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", f"{HERE.name}/run.py"]
    assert spec["paths"] == [HERE.name]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(workload):
    w = WORKLOADS[workload]
    assert make_inputs(w, 5) == make_inputs(w, 5)
    assert make_inputs(w, 5) != make_inputs(w, 6)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = tiny_result(workload, trace=0)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat(workload):
    first, second = (tiny_result(workload, trace=1)["metrics"] for _ in range(2))
    assert {name: m["unit"] for name, m in first.items()} == PER_LAYER
    counts = {name for name, unit in PER_LAYER.items() if unit == "count"}
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert all(first[n]["value"] > 0 for n in EXERCISED[workload])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "search-random", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
