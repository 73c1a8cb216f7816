"""Shared fixtures: reference constants, model suites, and an expression generator."""
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import jn_zeros

from ballbound import (
    PolarMetric2D,
    RadialGrid,
    RiemannianModel,
    bumped_disc_metric,
    euclidean_model,
    polar_metric_from_warping,
    space_form_model,
    space_form_warping,
)
from ballbound.exprparse import (
    BinOp,
    Call,
    Comparison,
    Const,
    Neg,
    Num,
    Piecewise,
    Var,
)

# Independent reference eigenvalues (Bessel zero via scipy, classical values).
J0_SQUARED = float(jn_zeros(0, 1)[0] ** 2)
PI_SQUARED = math.pi**2

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with the package source on PYTHONPATH.

    A test that could hang runs its repro here, so that ``timeout`` turns a
    hang into a failure instead of stalling the suite.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


@pytest.fixture(scope="session")
def unit_grid():
    return RadialGrid.uniform(1.0, 512)


@pytest.fixture(scope="session")
def fine_unit_grid():
    return RadialGrid.uniform(1.0, 4096)


def model_suite() -> list[tuple[str, RiemannianModel]]:
    """Rotationally symmetric models with well-understood spectra."""
    return [
        ("euclidean-n2", euclidean_model(2, 1.0)),
        ("euclidean-n3", euclidean_model(3, 1.0)),
        ("hyperbolic-n2-R2", space_form_model(2, -1.0, 2.0)),
        ("hemisphere", RiemannianModel(2, math.pi / 2, space_form_warping(1.0, math.pi / 2))),
        ("hyperbolic-n3", space_form_model(3, -0.5, 1.5)),
    ]


def wavy_cone_metric(radius: float) -> PolarMetric2D:
    """Flat metric with a non-smooth-looking density r (1 + 0.3 sin 3 theta).

    The angular reparametrization integrating the density is a global
    isometry onto the flat disc, so its eigenvalue equals the disc's.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return PolarMetric2D(
            radius=radius,
            density=lambda r, th: np.asarray(r, dtype=float) * (1.0 + 0.3 * np.sin(3.0 * np.asarray(th))),
            density_r=lambda r, th: 1.0 + 0.3 * np.sin(3.0 * np.asarray(th)) + 0.0 * np.asarray(r),
        )


def counting_metric(metric: PolarMetric2D) -> tuple[PolarMetric2D, list[str]]:
    """A copy of ``metric`` that logs each call of its density and radial derivative.

    The log starts empty, after the checks the constructor makes.
    """
    calls: list[str] = []

    def density(r, theta):
        calls.append("density")
        return metric.density(r, theta)

    def density_r(r, theta):
        calls.append("density_r")
        return metric.density_r(r, theta)

    copy = PolarMetric2D(radius=metric.radius, density=density, density_r=density_r)
    calls.clear()
    return copy, calls


def metric_suite() -> list[tuple[str, PolarMetric2D]]:
    """2-D polar metrics used by the desk-scale comparison harness."""
    return [
        ("flat-disc", polar_metric_from_warping(space_form_warping(0.0, 1.0), 1.0)),
        ("hemisphere-density", polar_metric_from_warping(space_form_warping(1.0, math.pi / 2), math.pi / 2)),
        ("hyperbolic-density", polar_metric_from_warping(space_form_warping(-1.0, 1.5), 1.5)),
        ("wavy-cone", wavy_cone_metric(1.0)),
        ("bumped-disc", bumped_disc_metric(3.0)),
    ]


def bump_curvature_oracle(t: float, theta: float) -> float:
    """Closed-form mean curvature of the bumped disc, hand-derived.

    Differentiating log(r + phi(r) cos theta) with phi = exp(-1/(r-2)^2) and
    simplifying over the common denominator gives, for t > 2,

        1/t - (t-4)((t-2)t + 2) cos(theta)
              / ((t-2)^3 t (cos(theta) + exp(1/(t-2)^2) t)).
    """
    if t <= 2.0:
        return 1.0 / t
    grow = math.exp(1.0 / (t - 2.0) ** 2)
    return 1.0 / t - (t - 4.0) * ((t - 2.0) * t + 2.0) * math.cos(theta) / (
        (t - 2.0) ** 3 * t * (math.cos(theta) + grow * t)
    )


# ---------------------------------------------------------------------------
# random expression trees for the parser round-trip property

_FN_UNARY = ["sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "abs"]
_FN_BINARY = ["pow", "min", "max"]
_VARS = ["t", "r", "theta", "R", "kappa"]
_CMP = ["<", "<=", ">", ">="]


def random_expression(rng: random.Random, depth: int = 4):
    """Well-formed random tree; literals are non-negative so printing is stable."""
    if depth <= 0:
        choice = rng.randrange(3)
        if choice == 0:
            return Num(round(rng.uniform(0.0, 10.0), 3))
        if choice == 1:
            return Var(rng.choice(_VARS))
        return Const(rng.choice(["pi", "e"]))
    kind = rng.randrange(10)
    if kind <= 1:
        return random_expression(rng, 0)
    if kind <= 4:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return BinOp(op, random_expression(rng, depth - 1), random_expression(rng, depth - 1))
    if kind <= 5:
        return Neg(random_expression(rng, depth - 1))
    if kind <= 7:
        return Call(rng.choice(_FN_UNARY), (random_expression(rng, depth - 1),))
    if kind <= 8:
        return Call(
            rng.choice(_FN_BINARY),
            (random_expression(rng, depth - 1), random_expression(rng, depth - 1)),
        )
    branches = tuple(
        (
            Comparison(
                rng.choice(_CMP),
                random_expression(rng, depth - 2),
                random_expression(rng, depth - 2),
            ),
            random_expression(rng, depth - 2),
        )
        for _ in range(rng.randrange(1, 3))
    )
    return Piecewise(branches, random_expression(rng, depth - 2))
