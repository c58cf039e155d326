"""Smoke test of the benchmark at a tiny size.

Run from the repository root: ``python -m pytest benchmarks``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
         "--trace", str(trace), "--scale", "0.005"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, 1, trace))
    assert result["correct"]
    assert result["attempted"] > 0 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: metric["unit"] for name, metric in result["metrics"].items()}
            == {metric["name"]: metric["unit"] for metric in expected})
    assert all(isinstance(metric["value"], (int, float))
               for metric in result["metrics"].values())


def test_seed_changes_inputs_but_not_metric_names():
    records = []
    for seed in (11, 12):
        result = result_of(run_bench("long-fresh", seed, 0))
        saved = ROOT / ".bench_work" / "results" / f"long-fresh-seed{seed}-trace0.json"
        records.append((set(result["metrics"]),
                        json.loads(saved.read_text(encoding="utf-8"))))
    (names1, first), (names2, second) = records
    assert names1 == names2
    assert first["input_sha256"] != second["input_sha256"]
    assert first["dataset_sha256"] != second["dataset_sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
