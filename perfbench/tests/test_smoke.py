"""Tiny-size runs of every workload through the real command line.

Each run must exit 0, pass its own output checks, and print exactly the
metrics ``BENCHMARK.json`` names for its mode.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

from perfbench.benchlib import catalog
from perfbench.benchlib.common import ROOT


def _run(workload, trace, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=str(cwd), capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_smoke_end_to_end(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(catalog.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == catalog.END_TO_END[name][0]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    printed = {tuple(line.split()[::2]) for line in proc.stdout.splitlines()
               if len(line.split()) == 3}
    for name, (unit, _better, _bound, _doc) in catalog.END_TO_END.items():
        assert (name, unit) in printed, name


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_smoke_traced(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    names = [name for name, _unit, _better in catalog.per_layer_names()]
    assert list(result["metrics"]) == names
    metrics = result["metrics"]
    for span, (_target, workloads) in catalog.SPANS.items():
        if workload in workloads:
            assert metrics[f"{span}.calls"]["value"] > 0, span


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sim-haggle", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
