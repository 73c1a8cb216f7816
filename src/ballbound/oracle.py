"""Independent eigenvalue solvers used to validate the moment-hierarchy bounds.

Two routes to the first Dirichlet eigenvalue:

* a radial shooting solver for rotationally symmetric models, integrating the
  self-adjoint system (f, A f')' with a fixed-step RK4 sweep, bracketing by
  the zero count of f (Pryce 1993) and finding the root of f(R) by regula
  falsi (Anderson-Bjorck 1973, with Brent's minimum step);
* a finite-volume discretization of the Laplace-Beltrami operator of a 2-D
  polar metric, applied matrix-free and solved by LOBPCG, preconditioned by
  a Fourier-in-theta solve of its theta-averaged operator.

Both report a residual and, for the 2-D route, a Richardson error estimate
from one mesh refinement.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    InvalidModelError,
    PrecisionError,
)
from .geometry import (
    PolarMetric2D,
    RadialGrid,
    RiemannianModel,
    _eval_on,
    _require_finite,
    unit_sphere_volume,
)
from .quadrature import richardson_estimate, richardson_extrapolate

# First Dirichlet eigenvalue of the unit disc (square of the first J0 zero);
# only used to scale the default shooting bracket.
_UNIT_DISC_LAMBDA = 5.783185962946785
_MAX_BRACKET_SWEEPS = 64
# LOBPCG cap of the 2-D solver; 99% angular density variation at 256^2 takes under 60.
_MAX_LOBPCG_ITERATIONS = 500


class EigenResult:
    """First eigenvalue plus the eigenfunction samples that produced it."""

    def __init__(self, lambda1: float, eigenfunction: np.ndarray, iterations: int, residual: float):
        self.lambda1 = lambda1
        self.eigenfunction = eigenfunction
        self.iterations = iterations
        self.residual = residual


class Mesh2D:
    """Polar mesh: ``n_radial`` radial intervals, ``n_angular`` uniform angles."""

    def __init__(self, n_radial: int, n_angular: int):
        if n_radial < 16:
            raise DomainError(f"need at least 16 radial intervals, got {n_radial}")
        if n_angular < 16 or n_angular % 2 != 0:
            raise DomainError(f"need an even number >= 16 of angles, got {n_angular}")
        self.n_radial = n_radial
        self.n_angular = n_angular

    def refined(self) -> "Mesh2D":
        return Mesh2D(2 * self.n_radial, 2 * self.n_angular)


def _model_area_arrays(model: RiemannianModel, nodes: np.ndarray, h: float):
    """A(t) at the grid nodes and at step midpoints (float lists), positive and finite."""
    n = model.dimension
    vol = unit_sphere_volume(n)
    mids = nodes[:-1] + 0.5 * h
    w_nodes = _eval_on(model.warping, nodes)
    w_mid = _eval_on(model.warping, mids)
    if np.any(w_nodes[1:] <= 0.0) or np.any(w_mid[1:] <= 0.0):
        raise InvalidModelError("warping must stay positive inside the ball")
    with np.errstate(all="ignore"):
        a_nodes = vol * w_nodes ** (n - 1)
        a_mid = vol * w_mid ** (n - 1)
    _require_finite(a_nodes, nodes)
    _require_finite(a_mid, mids)
    zero = np.concatenate([nodes[1:][a_nodes[1:] == 0.0], mids[1:][a_mid[1:] == 0.0]])
    if zero.size:
        raise PrecisionError(f"A(t) underflows to 0 at t = {zero.min():g} in dimension {n}")
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


# perfbench/tracing.py looks this name up; the benchmark-mending change removes it.
def splu(matrix):
    """Sparse LU factorization (``scipy.sparse.linalg.splu``, imported on first use); unused."""
    from scipy.sparse.linalg import splu as scipy_splu

    return scipy_splu(matrix)


class PolarStiffness:
    """Flux-form stiffness K of -Laplace on a polar mesh, applied matrix-free.

    ``radial[k, i]`` is the conductance across the face r = (k + 1/2) dr at
    angle theta_i (k = 0 joins ring 1 to the center, k = M-1 is the Dirichlet
    face), ``angular[j-1, i]`` the one between theta_i and theta_{i+1} on
    ring j.  A vector holds the (M-1) x P ring values row by row, then the
    center value.  ``K @ u`` sums conductance times difference over faces,
    so K is symmetric by construction.
    """

    def __init__(self, radial: np.ndarray, angular: np.ndarray):
        self.radial = radial
        self.angular = angular

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        rings = u[:-1].reshape(self.angular.shape)
        edge = np.zeros((1, rings.shape[1]))
        padded = np.concatenate([edge + u[-1], rings, edge])
        out_flux = self.radial * (padded[:-1] - padded[1:])
        ang_flux = self.angular * (rings - np.roll(rings, -1, axis=1))
        out = out_flux[1:] - out_flux[:-1] + ang_flux - np.roll(ang_flux, 1, axis=1)
        return np.append(out.ravel(), np.sum(out_flux[0]))

    def averaged_solver(self):
        """Exact solver of K with each conductance averaged over theta.

        The averaged operator commutes with rotations, so ``np.fft.rfft`` in
        theta splits it into P/2+1 radial tridiagonal systems; the center
        couples to mode 0 only, as row 0 with unknown P u_c (Swarztrauber &
        Sweet, SIAM J. Numer. Anal. 10, 1973).  The systems are factored
        once as L D L^T and solved by one sweep vectorized across modes.
        """
        n_ring, n_ang = self.angular.shape
        c_rad = np.mean(self.radial, axis=1)
        symbol = 4.0 * np.sin(np.pi * np.arange(n_ang // 2 + 1) / n_ang) ** 2
        pivot = np.full((n_ring + 1, symbol.size), math.inf)  # center is cut out of modes != 0
        pivot[0, 0] = c_rad[0]
        c_ang = np.mean(self.angular, axis=1)
        pivot[1:] = (c_rad[:-1] + c_rad[1:])[:, None] + c_ang[:, None] * symbol
        lower = np.zeros_like(pivot)
        for j in range(1, n_ring + 1):
            lower[j] = -c_rad[j - 1] / pivot[j - 1]
            pivot[j] += lower[j] * c_rad[j - 1]
        inv_pivot = 1.0 / pivot

        def solve(r: np.ndarray) -> np.ndarray:
            y = np.zeros(pivot.shape, dtype=complex)
            y[0, 0] = r[-1]
            y[1:] = np.fft.rfft(r[:-1].reshape(n_ring, n_ang), axis=1)
            for j in range(1, n_ring + 1):
                y[j] -= lower[j] * y[j - 1]
            y[-1] *= inv_pivot[-1]
            for j in range(n_ring - 1, -1, -1):
                y[j] = y[j] * inv_pivot[j] - lower[j + 1] * y[j + 1]
            rings = np.fft.irfft(y[1:], n=n_ang, axis=1)
            return np.append(rings.ravel(), y[0, 0].real / n_ang)

        return solve


def build_discrete_laplacian(metric: PolarMetric2D, mesh: Mesh2D):
    """Flux-form discretization of -Laplace on the punctured disc.

    Unknowns sit at rings r_j = j dr (j = 1..M-1) plus a single center value;
    the Dirichlet ring at r = R is eliminated.  Returns the stiffness
    operator (:class:`PolarStiffness`) and the diagonal of the mass matrix.
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
    return PolarStiffness(c_rad, c_ang), mass


def _m_normalized(columns: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """The nonzero rows of ``columns``, each scaled to unit norm in the mass inner product."""
    norms = np.sqrt(np.einsum("ij,ij,j->i", columns, columns, mass))
    keep = norms > 0.0
    return columns[keep] / norms[keep, None]


def eigen_2d_polar(metric: PolarMetric2D, mesh: Mesh2D, tol: float = 1e-8) -> EigenResult:
    """Smallest Laplace-Beltrami Dirichlet eigenvalue by preconditioned LOBPCG.

    Single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) from
    T^-1 (M 1), with T^-1 the theta-averaged solver: each step is a
    Rayleigh-Ritz on [x, T^-1 r, p], every column normalized in the M norm
    (Hetmaniuk & Lehoucq, J. Comput. Phys. 218, 2006) and near-dependent
    directions cut.  Masses and conductances are first scaled by powers of
    two, which is exact, so only lambda1 itself must be a normal float.
    Iteration stops when the eigenvalue is relatively Cauchy at ``tol`` and
    the relative residual ||K x - lambda M x|| / (lambda ||M x||) is at most
    2 tol.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    stiffness, mass = build_discrete_laplacian(metric, mesh)
    k_exp = math.frexp(max(np.max(stiffness.radial), np.max(stiffness.angular)))[1]
    m_exp = math.frexp(float(np.max(mass)))[1]
    stiffness = PolarStiffness(*(np.ldexp(c, -k_exp) for c in (stiffness.radial, stiffness.angular)))
    mass = np.ldexp(mass, -m_exp)
    precondition = stiffness.averaged_solver()

    x = _m_normalized(precondition(mass)[None, :], mass)[0]
    lam, p = None, np.empty((0, mass.size))
    for it in range(1, _MAX_LOBPCG_ITERATIONS + 1):
        kx = stiffness @ x
        lam_new = float(x @ kx)
        r = kx - lam_new * mass * x
        residual = float(np.linalg.norm(r)) / (lam_new * float(np.linalg.norm(mass * x)))
        if lam is not None and abs(lam_new - lam) <= tol * lam_new and residual <= 2.0 * tol:
            break
        lam = lam_new
        basis = np.concatenate([x[None, :], _m_normalized(np.stack([precondition(r), *p]), mass)])
        k_basis = np.stack([kx, *(stiffness @ v for v in basis[1:])])
        gram_k = basis @ k_basis.T
        gram_m = (basis * mass) @ basis.T
        weights, vectors = np.linalg.eigh(gram_m)
        keep = weights > 1e-10 * weights[-1]  # cut near-dependent directions
        whiten = vectors[:, keep] / np.sqrt(weights[keep])
        _, ritz = np.linalg.eigh(whiten.T @ (0.5 * (gram_k + gram_k.T)) @ whiten)
        coef = whiten @ ritz[:, 0]
        p = (coef[1:] @ basis[1:])[None, :]
        x = _m_normalized((coef @ basis)[None, :], mass)[0]
    else:
        raise ConvergenceError(
            f"LOBPCG stagnated after {_MAX_LOBPCG_ITERATIONS} iterations", residual=residual
        )
    shift = k_exp - m_exp
    if not sys.float_info.min_exp <= math.frexp(lam_new)[1] + shift <= sys.float_info.max_exp:
        raise PrecisionError(f"lambda1 leaves the normal float range at radius {metric.radius:g}")
    eigvec = x / float(np.max(np.abs(x)))
    if float(np.sum(eigvec)) < 0.0:
        eigvec = -eigvec
    return EigenResult(math.ldexp(lam_new, shift), eigvec, iterations=it, residual=residual)


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


__all__ = [
    "EigenResult",
    "Mesh2D",
    "shoot_radial_lambda1",
    "build_discrete_laplacian",
    "eigen_2d_polar",
    "eigen_2d_refined",
]
