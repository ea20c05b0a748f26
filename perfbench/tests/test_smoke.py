"""Tiny-size smoke runs: every named metric is emitted with its unit."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench(workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=os.path.dirname(HERE), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=170, check=False,
    )


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["faults-mesh4", "torus64-full",
                                      "study-mc"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr.decode()
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == table
    assert {name: m["unit"] for name, m in result["metrics"].items()} == table
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """Run from a directory holding only the benchmark: no result."""
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "study-mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
