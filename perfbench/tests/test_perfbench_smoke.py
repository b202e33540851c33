"""Reduced-size runs of every workload through the benchmark's own code
path; each must pass its checks and emit every metric BENCHMARK.json names."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH_DIR = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_smoke_run(name):
    log, metrics, notes = run.plain_run(
        workloads.make(name, seed=3, smoke=True), seconds=0)
    assert log.failed == 0 and log.attempted == 1
    assert set(metrics) == names("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    accuracy = "order_gap" if name == "calvo_converge" else "effectivity"
    assert accuracy in notes and notes["fail_rate"] == "0/1"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_run(name):
    log, metrics, notes = run.traced_run(
        workloads.make(name, seed=3, smoke=True), seconds=0)
    assert log.failed == 0 and log.attempted == 2
    assert set(metrics) == names("per_layer")
    assert metrics["forward.steps"][0] > 0
    assert metrics["adjoint.lu_factorizations"][0] == 0


def test_seed_zero_is_the_acceptance_configuration():
    for name in workloads.WORKLOADS:
        assert workloads.make(name, 0).params == {}
    drawn = workloads.make("calvo_converge", 5).params["nu"]
    assert 0.095 <= drawn <= 0.105
    assert workloads.make("calvo_converge", 5).params == {"nu": drawn}


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
         "gs_estimate", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
