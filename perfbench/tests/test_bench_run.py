"""run.py end to end: the result line, and failure without the package."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_result_line_has_every_metric():
    proc = run(ROOT, "--workload", "exact_distance", "--seed", "3", "--seconds", "0.5",
               "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _, _ in END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_result_has_every_per_layer_metric():
    proc = run(ROOT, "--workload", "exact_distance", "--seed", "3", "--seconds", "0.5",
               "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [name for name, _, _ in PER_LAYER]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path, "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
