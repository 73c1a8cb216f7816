"""Shared fixtures: reference constants, model suites, and an expression generator."""
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.special import jn_zeros

from ballbound.geometry import (
    AreaFunction,
    PolarMetric2D,
    RadialGrid,
    _eval_on,
    area_from_polar_metric,
    bumped_disc_metric,
    space_form_model,
    space_form_warping,
)
from ballbound.oracle import Mesh2D
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
    return RadialGrid(1.0, 512)


@pytest.fixture(scope="session")
def fine_unit_grid():
    return RadialGrid(1.0, 4096)


# label -> (dimension, kappa, radius) of the space-form balls in model_suite()
MODEL_SUITE = {
    "euclidean-n2": (2, 0.0, 1.0),
    "euclidean-n3": (3, 0.0, 1.0),
    "hyperbolic-n2-R2": (2, -1.0, 2.0),
    "hemisphere": (2, 1.0, math.pi / 2),
    "hyperbolic-n3": (3, -0.5, 1.5),
}


def model_suite() -> list[tuple[str, AreaFunction]]:
    """Areas of rotationally symmetric models with well-understood spectra."""
    return [(label, space_form_model(*spec)) for label, spec in MODEL_SUITE.items()]


def suite_warping(label: str):
    """The space-form warping of the model_suite() ball ``label``."""
    _, kappa, radius = MODEL_SUITE[label]
    return space_form_warping(kappa, radius)


def polar_metric_from_warping(warping, radius: float) -> PolarMetric2D:
    """The 2-D polar metric with theta-independent density rho(r, theta) = w(r)."""
    return PolarMetric2D(radius=radius, density=lambda r, theta: warping(r))


def wavy_cone_metric(radius: float) -> PolarMetric2D:
    """Flat metric with a non-smooth-looking density r (1 + 0.3 sin 3 theta).

    The angular reparametrization integrating the density is a global
    isometry onto the flat disc, so its eigenvalue equals the disc's.
    """
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


def reference_laplacian(metric: PolarMetric2D, mesh: Mesh2D):
    """The 2-D oracle's finite-volume stiffness matrix (CSR) and mass diagonal, assembled in COO.

    Unknowns sit at rings r_j = j dr (j = 1..M-1), ring by ring, then one
    center value; the Dirichlet ring at r = R is eliminated.
    """
    m_r, m_t = mesh.n_radial, mesh.n_angular
    radius = metric.radius
    dr = radius / m_r
    dth = 2.0 * math.pi / m_t
    r_ring = dr * np.arange(1, m_r)
    theta = dth * np.arange(m_t)

    r_face = dr * (np.arange(m_r) + 0.5)
    rho_face = _eval_on(metric.density, r_face[:, None], theta[None, :])
    rho_ring = _eval_on(metric.density, r_ring[:, None], theta[None, :])
    rho_ang = _eval_on(metric.density, r_ring[:, None], (theta + 0.5 * dth)[None, :])
    rho_center = _eval_on(metric.density, 0.25 * dr, theta)
    c_rad = rho_face * dth / dr          # conductance across radial faces
    c_ang = dr / (dth * rho_ang)         # conductance across angular faces
    mass = np.append(rho_ring * dr * dth, np.sum(rho_center) * 0.5 * dr * dth)

    n_ring = (m_r - 1) * m_t
    center = n_ring
    n_unknown = n_ring + 1

    def idx(j, i):
        return (j - 1) * m_t + i

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def add(r, c, v):
        rows.append(np.asarray(r).ravel())
        cols.append(np.asarray(c).ravel())
        vals.append(np.asarray(v).ravel())

    jj = np.arange(1, m_r)[:, None]
    ii = np.arange(m_t)[None, :]
    here = idx(jj, ii)

    # angular faces between (j, i) and (j, i+1 mod P)
    there = idx(jj, (ii + 1) % m_t)
    add(here, there, -c_ang)
    add(there, here, -c_ang)
    add(here, here, c_ang)
    add(there, there, c_ang)

    # radial faces between rings j and j+1 (j = 1..M-2)
    if m_r > 2:
        jj_in = np.arange(1, m_r - 1)[:, None]
        inner = idx(jj_in, ii)
        outer = idx(jj_in + 1, ii)
        c_mid = c_rad[1 : m_r - 1, :]
        add(inner, outer, -c_mid)
        add(outer, inner, -c_mid)
        add(inner, inner, c_mid)
        add(outer, outer, c_mid)

    # center face at r = dr/2 couples the center unknown to ring 1
    ring1 = idx(1, np.arange(m_t))
    c0 = c_rad[0, :]
    add(np.full(m_t, center), ring1, -c0)
    add(ring1, np.full(m_t, center), -c0)
    add(ring1, ring1, c0)
    add(np.full(m_t, center), np.full(m_t, center), c0)

    # Dirichlet face at r = R - dr/2 contributes only to the last ring diagonal
    last = idx(m_r - 1, np.arange(m_t))
    add(last, last, c_rad[m_r - 1, :])

    stiffness = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_unknown, n_unknown),
    ).tocsr()
    return stiffness, mass


def operator_defects(metric: PolarMetric2D, mesh: Mesh2D) -> tuple[float, float, bool]:
    """How far the matrix-free 2-D stiffness operator is from the reference matrix.

    Returns the relative mismatch of K w against the reference on random unit
    vectors, the symmetry defect |<u, K v> - <K u, v>| over the largest
    reference entry, and whether the mass diagonals are equal and positive.
    """
    from ballbound.oracle import build_discrete_laplacian

    stiffness, mass = build_discrete_laplacian(metric, mesh)
    reference, reference_mass = reference_laplacian(metric, mesh)
    u, v = np.random.default_rng(20240601).standard_normal((2, mass.size))
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    ku, kv = (stiffness.apply(w, np.empty_like(w)) for w in (u, v))
    mismatch = max(
        float(np.linalg.norm(kw - reference @ w) / np.linalg.norm(reference @ w))
        for w, kw in ((u, ku), (v, kv))
    )
    asymmetry = abs(float(u @ kv - ku @ v))
    scale = float(np.max(np.abs(reference.data)))
    return mismatch, asymmetry / scale, np.array_equal(mass, reference_mass) and bool(np.all(mass > 0))


def reference_lambda1(metric: PolarMetric2D, mesh: Mesh2D, tol: float) -> float:
    """Smallest eigenvalue of the reference matrix pair by inverse iteration on a sparse LU.

    Stops when the eigenvalue is relatively Cauchy at ``tol`` and the relative
    residual is at most 2 tol.
    """
    stiffness, mass = reference_laplacian(metric, mesh)
    solve = splu(stiffness.tocsc()).solve
    x = np.ones(mass.size)
    lam = None
    for _ in range(500):
        y = solve(mass * x)
        lam_new = float(y @ (mass * x)) / float(y @ (mass * y))
        y /= math.sqrt(float(y @ (mass * y)))
        residual = np.linalg.norm(stiffness @ y - lam_new * mass * y) / (
            lam_new * np.linalg.norm(mass * y)
        )
        if lam is not None and abs(lam_new - lam) <= tol * lam_new and residual <= 2.0 * tol:
            return lam_new
        lam, x = lam_new, y
    raise AssertionError("reference inverse iteration did not converge")


def reference_sweep(lam: float, n: int, h: float, a_nodes: list, a_mid: list):
    """The shooting oracle's RK4 sweep of f' = g/A, g' = -lam A f stepped node by node
    on plain floats, with each step's stages in full.

    ``a_nodes`` holds A at the nodes of (0, R] and ``a_mid`` at the midpoints
    between them.  Starts from the series f = 1 - lam t^2/(2n) at the first
    node (A(0) = 0).  Returns f(R), the number of sign changes of f over the
    nodes of (0, R], and the path f(t_i) at the nodes of [0, R].
    """
    f = 1.0 - lam * h * h / (2.0 * n)
    g = a_nodes[0] * (-lam * h / n)
    positive = f > 0.0
    changes = 0 if positive else 1
    path = [1.0, f]
    sixth = h / 6.0
    half = 0.5 * h
    neg = -lam
    for a0, am, a1 in zip(a_nodes[:-1], a_mid, a_nodes[1:]):
        k1f = g / a0
        k1g = neg * a0 * f
        neg_am = neg * am
        k2f = (g + half * k1g) / am
        k2g = neg_am * (f + half * k1f)
        k3f = (g + half * k2g) / am
        k3g = neg_am * (f + half * k2f)
        k4f = (g + h * k3g) / a1
        k4g = neg * a1 * (f + h * k3f)
        f = f + sixth * (k1f + 2.0 * (k2f + k3f) + k4f)
        g = g + sixth * (k1g + 2.0 * (k2g + k3g) + k4g)
        if (f > 0.0) is not positive:
            positive = not positive
            changes += 1
        path.append(f)
    return f, changes, path


def reference_rayleigh_quotient(
    metric: PolarMetric2D, grid: RadialGrid, profile: np.ndarray, m_theta: int
) -> float:
    """Rayleigh quotient int f'^2 A / int f^2 A of a radial trial function on a 2-D metric.

    For a radial profile the angular integrals collapse onto the area function.
    """
    a = area_from_polar_metric(metric, grid, m_theta).samples[1]
    df = grid.derivative(profile)
    return float(grid.weights @ (df**2 * a)) / float(grid.weights @ (profile**2 * a))


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
