"""Smoke tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, cwd=ROOT, prefix=()):
    cmd = [sys.executable, *prefix, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert "failed_ratio 0 ratio" in proc.stdout


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("mcmc_small", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_when_blas_threads_cannot_be_pinned():
    # numpy loaded before run.py sets the thread variables: the run must not be timed.
    prefix = ("-c", "import numpy, os, runpy, sys; sys.argv = sys.argv[1:]; "
              "sys.path.insert(0, os.path.dirname(sys.argv[0])); "
              "runpy.run_path(sys.argv[0], run_name='__main__')")
    proc = _run("mcmc_small", 0, prefix=prefix)
    assert proc.returncode != 0
    assert "refusing to time" in proc.stderr
    assert '"correct"' not in proc.stdout
