"""Smoke checks of the benchmark itself; about two minutes on two cores.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/smoke_checks.py

The file name keeps it out of the default ``pytest`` collection, so the
program's test suite does not run the benchmark.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import J0_SQ, RadialModel, radial_lambda1  # noqa: E402
from ops import WORKLOADS  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

# Counters that depend only on the inputs, so two runs must agree exactly.
DETERMINISTIC = (
    "moments.levels",
    "oracle.shoot_bisection_sweeps",
    "oracle.lu_nnz",
    "oracle.inverse_iterations",
    "exprparse.evaluate_calls",
    "import.scipy_modules",
)


def _run(workload: str, trace: int, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--ops", "2"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = _result(_run(workload, trace=0))["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == END_TO_END_UNITS
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first, second = (_result(_run(workload, trace=1))["metrics"] for _ in range(2))
    assert {k: m["unit"] for k, m in first.items()} == dict(LAYER_METRICS)
    assert {k: first[k]["value"] for k in DETERMINISTIC} == {k: second[k]["value"] for k in DETERMINISTIC}
    assert first["import.scipy_modules"]["value"] > 0


def test_refuses_to_run_without_sources():
    bare = HERE / ".work" / "bare"  # a directory holding the benchmark only
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    try:
        done = _run("cli-radial", trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert not done.stdout.strip()


@pytest.mark.parametrize(
    "model, exact",
    [
        (RadialModel(2, 1.0), J0_SQ),
        (RadialModel(2, 0.3), J0_SQ / 0.09),
        (RadialModel(3, 8.0, -2.0), math.pi**2 / 64 + 2.0),
        (RadialModel(3, 2.5, 1.0), math.pi**2 / 6.25 - 1.0),
    ],
)
def test_spectral_reference_matches_closed_forms(model, exact):
    n = model.dimension
    value = radial_lambda1(lambda t: (n - 1) * model.warping_slope(t), model.radius)
    assert value == pytest.approx(exact, rel=1e-10)
    assert model.lambda1() == pytest.approx(exact, rel=1e-14)
