"""Independent eigenvalue solvers used to validate the moment-hierarchy bounds.

Two routes to the first Dirichlet eigenvalue:

* a radial shooting solver for rotationally symmetric models, integrating the
  self-adjoint system (f, A f')' with a fixed-step RK4 sweep, bracketing by
  the zero count of f (Pryce 1993) and finding the root of f(R) by regula
  falsi (Anderson-Bjorck 1973, with Brent's minimum step);
* a finite-volume discretization of the Laplace-Beltrami operator of a 2-D
  polar metric, solved by inverse power iteration on the generalized
  symmetric eigenproblem.

Both report a residual and, for the 2-D route, a Richardson error estimate
from one mesh refinement.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssemblyError,
    BracketError,
    ConvergenceError,
    DegenerateProfileError,
    DomainError,
    InvalidModelError,
    PrecisionError,
)
from .geometry import (
    PolarMetric2D,
    RadialGrid,
    RiemannianModel,
    _eval_on,
    _eval_on2,
    _require_finite,
    area_from_polar_metric,
    unit_sphere_volume,
)
from .quadrature import derivative_five_point, richardson_estimate, richardson_extrapolate

# First Dirichlet eigenvalue of the unit disc (square of the first J0 zero);
# only used to scale the default shooting bracket.
_UNIT_DISC_LAMBDA = 5.783185962946785
_MAX_BRACKET_SWEEPS = 64


@dataclass(frozen=True, eq=False)
class EigenResult:
    """First eigenvalue plus the eigenfunction samples that produced it."""

    lambda1: float
    eigenfunction: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class Mesh2D:
    """Polar mesh: ``n_radial`` radial intervals, ``n_angular`` uniform angles."""

    n_radial: int
    n_angular: int

    def __post_init__(self):
        if self.n_radial < 16:
            raise DomainError(f"need at least 16 radial intervals, got {self.n_radial}")
        if self.n_angular < 16 or self.n_angular % 2 != 0:
            raise DomainError(
                f"need an even number >= 16 of angles, got {self.n_angular}"
            )

    def refined(self) -> "Mesh2D":
        return Mesh2D(2 * self.n_radial, 2 * self.n_angular)


def _model_area_arrays(model: RiemannianModel, nodes: np.ndarray, h: float):
    """A(t) at the grid nodes and at step midpoints (float lists), positive and finite."""
    n = model.dimension
    vol = unit_sphere_volume(n)
    mids = nodes[:-1] + 0.5 * h
    w_nodes = _eval_on(model.warping.eval, nodes)
    w_mid = _eval_on(model.warping.eval, mids)
    if np.any(w_nodes[1:] <= 0.0) or np.any(w_mid[1:] <= 0.0):
        raise InvalidModelError("warping must stay positive inside the ball")
    with np.errstate(all="ignore"):
        a_nodes = vol * w_nodes ** (n - 1)
        a_mid = vol * w_mid ** (n - 1)
    _require_finite(a_nodes, nodes)
    _require_finite(a_mid, mids)
    return a_nodes.tolist(), a_mid.tolist()


def _sweep(lam: float, n: int, h: float, a_nodes: list, a_mid: list, keep_path: bool = False):
    """RK4 sweep of f' = g/A, g' = -lam A f on plain floats.

    Starts from the series f = 1 - lam t^2/(2n) at the first node (A(0) = 0).
    Returns f(R), the number of sign changes of f over the nodes of (0, R],
    and the path f(t_i) when ``keep_path`` is set.
    """
    f = 1.0 - lam * h * h / (2.0 * n)
    g = a_nodes[1] * (-lam * h / n)
    positive = f > 0.0
    changes = 0 if positive else 1
    path = [1.0, f] if keep_path else None
    sixth = h / 6.0
    half = 0.5 * h
    neg = -lam
    for a0, am, a1 in zip(a_nodes[1:-1], a_mid[1:], a_nodes[2:]):
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
        if keep_path:
            path.append(f)
    return f, changes, path


def _anderson_bjorck(f_new: float, f_old: float) -> float:
    """Weight for the kept end after two points in a row with f of one sign."""
    m = 1.0 - f_new / f_old
    return m if m > 0.0 else 0.5


def shoot_radial_lambda1(
    model: RiemannianModel, grid: RadialGrid, tol: float = 1e-10
) -> EigenResult:
    """First Dirichlet eigenvalue of a model by shooting from f(0) = 1, f'(0) = 0.

    By Sturm oscillation a sweep has no zero in (0, R] below lambda1 and one
    on [lambda1, lambda2): from a = 0 and a Euclidean scale guess b, b doubles
    while it has no zero, then bisects toward a while it has two or more.
    Regula falsi with Anderson-Bjorck weights then narrows the root of f(R)
    to width ``tol``, or until no float lies between the ends, and returns
    the midpoint.  ``iterations`` counts every RK4 sweep; the residual is
    |f(R)| at the final eigenvalue.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    h = grid.spacing
    a_nodes, a_mid = _model_area_arrays(model, grid.nodes, h)
    n = model.dimension

    b = 4.0 * n * _UNIT_DISC_LAMBDA / model.radius / model.radius
    if not sys.float_info.min <= b < math.inf:
        raise PrecisionError(
            f"eigenvalue scale {b:g} at radius {model.radius:g} is outside the normal float range"
        )
    a, fa, above = 0.0, 1.0, math.inf  # f = 1 on the whole ball at lambda = 0
    for iterations in range(1, _MAX_BRACKET_SWEEPS + 1):
        fb, changes, _ = _sweep(b, n, h, a_nodes, a_mid)
        if changes == 1 and fb <= 0.0:
            break
        if changes == 0 and fb > 0.0:
            a, fa = b, fb
        else:
            above = b
        b = 2.0 * b if above == math.inf else 0.5 * (a + above)
    else:
        raise BracketError(f"no lambda in [{a:g}, {above:g}] has f with one zero in (0, R]")

    # Anderson-Bjorck weights; as in Brent's zeroin, a point keeps at least
    # tol/2 from the last one, so the far end moves once the root is found.
    # The relative width only binds when lambda1 < 1e6 tol.
    side = -1
    while b - a > tol or b - a > 1e-6 * a:
        lam = (a * fb - b * fa) / (fb - fa)
        last = a if side == 1 else b
        step = 0.5 * tol + 2.0 * math.ulp(last)
        if abs(lam - last) < step:
            lam = last + side * step
        if not a < lam < b:
            lam = 0.5 * (a + b)
            if not a < lam < b:
                break  # a and b are adjacent floats
        f_lam, _, _ = _sweep(lam, n, h, a_nodes, a_mid)
        iterations += 1
        if f_lam > 0.0:
            if side == 1:
                fb *= _anderson_bjorck(f_lam, fa)
            a, fa, side = lam, f_lam, 1
        elif f_lam < 0.0:
            if side == -1:
                fa *= _anderson_bjorck(f_lam, fb)
            b, fb, side = lam, f_lam, -1
        else:
            a = b = lam
    lam1 = 0.5 * (a + b)

    f_end, _, path = _sweep(lam1, n, h, a_nodes, a_mid, keep_path=True)
    residual = abs(f_end)
    f = np.asarray(path)
    f[-1] = 0.0
    if np.any(f[:-1] <= 0.0) or np.any(np.diff(f[:-1]) >= 0.0):
        raise ConvergenceError(
            "shooting produced an eigenfunction that is not positive decreasing;"
            " refine the grid",
            residual=residual,
        )
    return EigenResult(lambda1=lam1, eigenfunction=f, iterations=iterations + 1, residual=residual)


def splu(matrix):
    """Sparse LU factorization of a CSC matrix (``scipy.sparse.linalg.splu``).

    scipy is imported on first use so that radial runs never load it.
    """
    from scipy.sparse.linalg import splu as scipy_splu

    return scipy_splu(matrix)


def build_discrete_laplacian(metric: PolarMetric2D, mesh: Mesh2D):
    """Assemble the flux-form discretization of -Laplace on the punctured disc.

    Unknowns sit at rings r_j = j dr (j = 1..M-1) plus a single center value;
    the Dirichlet ring at r = R is eliminated.  Returns the stiffness matrix
    (CSR) and the diagonal of the mass matrix.
    """
    import scipy.sparse as sp

    m_r, m_t = mesh.n_radial, mesh.n_angular
    radius = metric.radius
    dr = radius / m_r
    dth = 2.0 * math.pi / m_t
    r_ring = dr * np.arange(1, m_r)
    theta = dth * np.arange(m_t)

    r_face = dr * (np.arange(m_r) + 0.5)
    rho_face = _eval_on2(metric.density, r_face[:, None], theta[None, :])
    rho_ring = _eval_on2(metric.density, r_ring[:, None], theta[None, :])
    rho_ang = _eval_on2(metric.density, r_ring[:, None], (theta + 0.5 * dth)[None, :])
    rho_center = _eval_on2(metric.density, 0.25 * dr, theta)
    if any(np.any(rho <= 0.0) for rho in (rho_face, rho_ring, rho_ang, rho_center)):
        raise DomainError("density must be positive on the mesh")

    with np.errstate(all="ignore"):
        c_rad = rho_face * dth / dr          # conductance across radial faces
        c_ang = dr / (dth * rho_ang)         # conductance across angular faces
        mass = np.append(rho_ring * dr * dth, np.sum(rho_center) * 0.5 * dr * dth)
    if not all(np.all((0.0 < v) & (v < math.inf)) for v in (c_rad, c_ang, mass)):
        raise PrecisionError(
            f"mesh conductances or masses leave the float range at radius {radius:g}"
        )

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

    defect = sp.coo_matrix(stiffness - stiffness.T)
    scale = float(np.max(np.abs(stiffness.data)))
    if defect.nnz and float(np.max(np.abs(defect.data))) > 1e-10 * scale:
        raise AssemblyError("discrete operator is asymmetric beyond rounding")
    return stiffness, mass


def eigen_2d_polar(metric: PolarMetric2D, mesh: Mesh2D, tol: float = 1e-8) -> EigenResult:
    """Smallest Laplace-Beltrami Dirichlet eigenvalue by inverse power iteration.

    The stiffness factorization is computed once and reused; iteration stops
    when the eigenvalue is relatively Cauchy at ``tol`` and the relative
    residual ||A v - lambda B v|| / (lambda ||B v||) is below 2 tol.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    stiffness, mass = build_discrete_laplacian(metric, mesh)
    solve = splu(stiffness.tocsc()).solve

    x = np.ones(mass.size)
    x /= math.sqrt(float(x @ (mass * x)))
    lam = None
    residual = math.inf
    max_iter = 500
    for it in range(1, max_iter + 1):
        bx = mass * x
        y = solve(bx)
        with np.errstate(over="ignore", invalid="ignore"):
            by = mass * y
            norm2 = float(y @ by)
        if not 0.0 < norm2 < math.inf:
            raise PrecisionError(f"inverse iteration left the float range in sweep {it}")
        lam_new = float(y @ bx) / norm2
        scale = math.sqrt(norm2)
        y /= scale
        # A y = bx before scaling, so the residual needs no extra matvec.
        r_vec = bx / scale - lam_new * (by / scale)
        residual = float(np.linalg.norm(r_vec)) / (
            lam_new * float(np.linalg.norm(by / scale))
        )
        if (
            lam is not None
            and abs(lam_new - lam) <= tol * lam_new
            and residual <= 2.0 * tol
        ):
            lam = lam_new
            x = y
            break
        lam = lam_new
        x = y
    else:
        raise ConvergenceError(
            f"inverse power iteration stagnated after {max_iter} sweeps",
            residual=residual,
        )
    eigvec = x / float(np.max(np.abs(x)))
    if float(np.sum(eigvec)) < 0.0:
        eigvec = -eigvec
    return EigenResult(lambda1=lam, eigenfunction=eigvec, iterations=it, residual=residual)


def eigen_2d_refined(
    metric: PolarMetric2D, mesh: Mesh2D, tol: float = 1e-8
) -> tuple[EigenResult, float, float]:
    """Solve on ``mesh`` and its one-step refinement.

    Returns the fine-mesh result, the Richardson error estimate for its
    eigenvalue (second-order scheme), and the extrapolated eigenvalue.
    """
    coarse = eigen_2d_polar(metric, mesh, tol)
    fine = eigen_2d_polar(metric, mesh.refined(), tol)
    estimate = richardson_estimate(coarse.lambda1, fine.lambda1, order=2)
    extrapolated = richardson_extrapolate(coarse.lambda1, fine.lambda1, order=2)
    return fine, estimate, extrapolated


def rayleigh_quotient_2d(
    metric: PolarMetric2D,
    grid: RadialGrid,
    radial_profile: np.ndarray,
    m_theta: int = 256,
) -> float:
    """Rayleigh quotient of a radial trial function against a 2-D polar metric.

    For radial profiles the angular integrals collapse onto the area function,
    so the quotient equals int f'^2 A dt / int f^2 A dt.
    """
    f = np.asarray(radial_profile, dtype=float)
    if f.shape != grid.nodes.shape:
        raise DomainError("profile must be sampled on the grid nodes")
    peak = float(np.max(np.abs(f)))
    if peak == 0.0:
        raise DegenerateProfileError("profile is identically zero")
    if abs(f[-1]) > 1e-9 * peak:
        raise DomainError("profile must vanish at r = R")
    area = area_from_polar_metric(metric, grid, m_theta)
    a = area.samples[1]
    df = derivative_five_point(f, grid.spacing)
    num = float(grid.weights @ (df**2 * a))
    den = float(grid.weights @ (f**2 * a))
    if den <= 0.0 or not math.isfinite(den):
        raise DegenerateProfileError("profile has numerically zero mass")
    return num / den


__all__ = [
    "EigenResult",
    "Mesh2D",
    "shoot_radial_lambda1",
    "build_discrete_laplacian",
    "eigen_2d_polar",
    "eigen_2d_refined",
    "rayleigh_quotient_2d",
]
