"""Independent eigenvalue solvers used to validate the moment-hierarchy bounds.

Two routes to the first Dirichlet eigenvalue:

* a radial shooting solver for rotationally symmetric balls, given by their
  sphere-area function A(t): it integrates the self-adjoint problem
  (A f')' + lambda A f = 0 with a fixed-step RK4 sweep, bracketing by
  the zero count of f (Pryce 1993) and finding the root of f(R) by regula
  falsi (Anderson-Bjorck 1973, with Brent's minimum step).  The system is
  linear, so a sweep forms every step's 2x2 RK4 matrix at once in numpy and
  then applies them in order, one node at a time;
* a finite-volume discretization of the Laplace-Beltrami operator of a 2-D
  polar metric, applied matrix-free and solved by LOBPCG, preconditioned by
  a Fourier-in-theta solve of its theta-averaged operator.

Both report a residual and, for the 2-D route, a Richardson error estimate
from one mesh refinement.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import BracketError, ConvergenceError, DomainError, PrecisionError
from .geometry import (
    AreaFunction,
    PolarMetric2D,
    RadialGrid,
    _area_samples,
    _check_tol,
    _density,
    _eigenvalue_scale,
)

_MAX_BRACKET_SWEEPS = 64
# LOBPCG cap of the 2-D solver; r*(1+0.99*sin(theta)) takes 188 at 256^2.
_MAX_LOBPCG_ITERATIONS = 500


class EigenResult(NamedTuple):
    """First eigenvalue plus the eigenfunction samples that produced it."""

    lambda1: float
    eigenfunction: np.ndarray
    iterations: int
    residual: float


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


def _sweep(lam: float, n: int, h: float, a_nodes: np.ndarray, a_mid: np.ndarray) -> np.ndarray:
    """RK4 path f(t_i) at the nodes of [0, R] for f' = g/A, g' = -lam A f.

    ``a_nodes`` holds A at the nodes of (0, R] and ``a_mid`` at the midpoints
    between them.  The system is linear, so an RK4 step is a 2x2 matrix: the
    stage formulas run once, in numpy, for all steps at once on (f, g) = (1, 0)
    and (0, 1) over 8 (exact, and the six-term stage sums stay finite wherever
    lam A and 1/A are).  The matrices then act one at a time, in radial order,
    on the series start f = 1 - lam t^2/(2n) at the first node (A(0) = 0): a
    log-depth product of them rounds f(R) differently enough near lambda1 to
    flip its sign.
    """
    f = np.array([[0.125], [0.0]])  # one scaled unit vector per row
    g = f[::-1]
    a0, a1, half, sixth, neg = a_nodes[:-1], a_nodes[1:], 0.5 * h, h / 6.0, -lam
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as on plain floats
        k1f, k1g = g / a0, neg * a0 * f
        k2f, k2g = (g + half * k1g) / a_mid, neg * a_mid * (f + half * k1f)
        k3f, k3g = (g + half * k2g) / a_mid, neg * a_mid * (f + half * k2f)
        k4f, k4g = (g + h * k3g) / a1, neg * a1 * (f + h * k3f)
        m00, m01 = map(memoryview, 8.0 * (f + sixth * (k1f + 2.0 * (k2f + k3f) + k4f)))
        m10, m11 = map(memoryview, 8.0 * (g + sixth * (k1g + 2.0 * (k2g + k3g) + k4g)))
    f = 1.0 - lam * h * h / (2.0 * n)
    g = float(a_nodes[0]) * (-lam * h / n)
    path = [1.0, f]
    for p, q, r, s in zip(m00, m01, m10, m11):
        f, g = p * f + q * g, r * f + s * g
        path.append(f)
    return np.fromiter(path, float, len(path))


def _sign_changes(path: np.ndarray) -> int:
    """The number of sign changes of f along a path that starts at f(0) = 1."""
    return int(np.count_nonzero(np.diff(path > 0.0)))


def _anderson_bjorck(f_new: float, f_old: float) -> float:
    """Weight for the kept end after two points in a row with f of one sign."""
    m = 1.0 - f_new / f_old
    return m if m > 0.0 else 0.5


def shoot_radial_lambda1(
    area: AreaFunction, grid: RadialGrid, tol: float = 1e-10
) -> EigenResult:
    """First Dirichlet eigenvalue of the ball with sphere areas ``area`` by
    shooting from f(0) = 1, f'(0) = 0 on ``grid``, which spans that ball.

    By Sturm oscillation a sweep has no zero in (0, R] below lambda1 and one
    on [lambda1, lambda2): from a = 0 and a Euclidean scale guess b, b doubles
    while it has no zero, then bisects toward a while it has two or more or
    is not finite (lambda A(t) left the float range: no zero count), and
    raises :class:`PrecisionError` if the sweeps run out there.  Regula falsi
    with Anderson-Bjorck weights then narrows the root of f(R) to width
    ``tol``, or until no float lies between the ends, and returns the
    midpoint.  ``iterations`` counts every RK4 sweep; the residual is |f(R)|
    at the final eigenvalue.
    """
    _check_tol(tol)
    h = grid.spacing
    # the nodes of (0, R] and the step midpoints between them, in radial order
    t = np.repeat(grid.nodes[1:], 2)[:-1]
    t[1::2] += 0.5 * h
    samples = _area_samples(area, grid, t)
    a_nodes, a_mid = samples[0::2], samples[1::2]
    n = area.dimension

    b = _eigenvalue_scale(n, grid.radius)
    a, fa, above, overflow = 0.0, 1.0, math.inf, None  # f = 1 on the whole ball at lambda = 0
    for iterations in range(1, _MAX_BRACKET_SWEEPS + 1):
        path = _sweep(b, n, h, a_nodes, a_mid)
        fb, changes = float(path[-1]), _sign_changes(path)
        if not np.all(np.isfinite(path)):
            above = overflow = b  # no Sturm count: the path left the float range
        elif changes == 1 and fb <= 0.0:
            break
        elif changes == 0 and fb > 0.0:
            a, fa = b, fb
        else:
            above = b
        b = 2.0 * b if above == math.inf else 0.5 * (a + above)
    else:
        if above == overflow:
            raise PrecisionError(
                f"lambda A(t) leaves the float range: no finite sweep at lambda = {above:g}"
            )
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
        f_lam = float(_sweep(lam, n, h, a_nodes, a_mid)[-1])
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

    f = _sweep(lam1, n, h, a_nodes, a_mid)
    f_end, f[-1] = float(f[-1]), 0.0
    if np.any(f[:-1] <= 0.0) or np.any(np.diff(f[:-1]) >= 0.0):
        raise ConvergenceError(
            "shooting produced an eigenfunction that is not positive decreasing;"
            " refine the grid"
        )
    return EigenResult(lam1, f, iterations=iterations + 1, residual=abs(f_end))


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
    center value.  ``apply`` writes K u, the sum of conductance times
    difference over faces, into a buffer, so K is symmetric by construction.
    """

    def __init__(self, radial: np.ndarray, angular: np.ndarray):
        self.radial = radial
        self.angular = angular

    def apply(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """K u into the contiguous vector ``out``; returns ``out``."""
        rings = u[:-1].reshape(self.angular.shape)
        flux = np.empty(self.radial.shape)  # radial fluxes, then angular ones in its first M-1 rows
        np.subtract(u[-1], rings[0], out=flux[0])
        np.subtract(rings[:-1], rings[1:], out=flux[1:-1])
        flux[-1] = rings[-1]
        flux *= self.radial
        out_rings = out[:-1].reshape(rings.shape)
        np.subtract(flux[1:], flux[:-1], out=out_rings)
        out[-1] = np.sum(flux[0])
        ang_flux = flux[:-1]
        np.subtract(rings[:, :-1], rings[:, 1:], out=ang_flux[:, :-1])
        np.subtract(rings[:, -1], rings[:, 0], out=ang_flux[:, -1])
        ang_flux *= self.angular
        out_rings += ang_flux
        out_rings[:, 1:] -= ang_flux[:, :-1]
        out_rings[:, 0] -= ang_flux[:, -1]
        return out

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

        def solve(r: np.ndarray, out: np.ndarray) -> np.ndarray:
            """T^-1 r into ``out``, which may be ``r`` itself; returns ``out``."""
            y = np.zeros(inv_pivot.shape, dtype=complex)
            y[0, 0] = r[-1]
            np.fft.rfft(r[:-1].reshape(n_ring, n_ang), axis=1, out=y[1:])
            for j in range(1, n_ring + 1):
                y[j] -= lower[j] * y[j - 1]
            y[-1] *= inv_pivot[-1]
            for j in range(n_ring - 1, -1, -1):
                y[j] = y[j] * inv_pivot[j] - lower[j + 1] * y[j + 1]
            np.fft.irfft(y[1:], n=n_ang, axis=1, out=out[:-1].reshape(n_ring, n_ang))
            out[-1] = y[0, 0].real / n_ang
            return out

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
    # ring masses row by row, then the center's; first, so a mesh too large fails at once
    mass = np.empty((m_r - 1) * m_t + 1)
    r_ring = dr * np.arange(1, m_r)
    theta = dth * np.arange(m_t)

    r_face = dr * (np.arange(m_r) + 0.5)
    # one density sample at a time, scaled into its array (times dth < 1, it cannot overflow)
    c_rad = _density(metric, r_face[:, None], theta[None, :]) * dth
    np.copyto(mass[:-1].reshape(-1, m_t), _density(metric, r_ring[:, None], theta[None, :]))
    c_ang = dth * _density(metric, r_ring[:, None], (theta + 0.5 * dth)[None, :])
    mass[-1] = np.sum(_density(metric, 0.25 * dr, theta)) * 0.5

    with np.errstate(all="ignore"):
        c_rad /= dr                          # conductance across radial faces
        np.divide(dr, c_ang, out=c_ang)      # conductance across angular faces
        mass *= dr
        mass *= dth
    if not all(np.all((0.0 < v) & (v < math.inf)) for v in (c_rad, c_ang, mass)):
        raise PrecisionError(
            f"mesh conductances or masses leave the float range at radius {radius:g}"
        )
    return PolarStiffness(c_rad, c_ang), mass


def _m_normalize(rows: np.ndarray, mass: np.ndarray) -> int:
    """Scale the nonzero rows of ``rows`` to unit norm in the mass inner product, in
    place and moved to the front in their order; returns how many there are."""
    norms = np.sqrt(np.einsum("ij,ij,j->i", rows, rows, mass))
    keep = np.flatnonzero(norms > 0.0)
    for i, k in enumerate(keep):
        np.divide(rows[k], norms[k], out=rows[i])
    return keep.size


def eigen_2d_polar(metric: PolarMetric2D, mesh: Mesh2D, tol: float = 1e-8) -> EigenResult:
    """Smallest Laplace-Beltrami Dirichlet eigenvalue by preconditioned LOBPCG.

    Single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) from
    T^-1 (M 1), with T^-1 the theta-averaged solver: each step is a
    Rayleigh-Ritz on [x, T^-1 r, p], every column normalized in the M norm
    (Hetmaniuk & Lehoucq, J. Comput. Phys. 218, 2006) and near-dependent
    directions cut.  A disc whose Euclidean eigenvalue scale 8 j0^2 / R^2 is
    not a normal float raises :class:`PrecisionError` before assembly, as in
    the radial solvers.  Masses and conductances are scaled by powers of two,
    which is exact, so only lambda1 itself must be a normal float.
    Iteration stops when the eigenvalue is relatively Cauchy at ``tol`` and
    the relative residual ||K x - lambda M x|| / (lambda ||M x||) is at most
    2 tol.  The working set is the mesh operators, the basis in one fixed
    3 x N array and one image vector for K and M, 8 mesh vectors in all,
    and one transient flux buffer per stiffness apply: 9.4 at the peak.
    """
    _check_tol(tol)
    _eigenvalue_scale(2, metric.radius)
    stiffness, mass = build_discrete_laplacian(metric, mesh)
    k_exp = math.frexp(max(np.max(stiffness.radial), np.max(stiffness.angular)))[1]
    m_exp = math.frexp(float(np.max(mass)))[1]
    for c in (stiffness.radial, stiffness.angular):
        np.ldexp(c, -k_exp, out=c)
    np.ldexp(mass, -m_exp, out=mass)
    precondition = stiffness.averaged_solver()

    basis, image = np.zeros((3, mass.size)), np.empty(mass.size)
    x, r = basis[0], basis[1]  # row 1 holds r, then T^-1 r; row 2 holds p
    precondition(mass, out=x)
    _m_normalize(basis[:1], mass)
    lam = None
    for it in range(1, _MAX_LOBPCG_ITERATIONS + 1):
        stiffness.apply(x, image)  # K x: the eigenvalue, the residual and Gram column 0
        lam_new = float(x @ image)
        np.multiply(lam_new, mass, out=r)
        r *= x
        np.subtract(image, r, out=r)
        norm_mx = math.sqrt(np.einsum("i,i,i,i->", mass, x, mass, x))
        residual = float(np.linalg.norm(r)) / (lam_new * norm_mx)
        if lam is not None and abs(lam_new - lam) <= tol * lam_new and residual <= 2.0 * tol:
            break
        lam = lam_new
        precondition(r, out=r)
        m = 1 + _m_normalize(basis[1:], mass)  # p = 0 at first
        gram_k, gram_m = np.empty((2, m, m))
        for j, v in enumerate(basis[:m]):
            if j:
                stiffness.apply(v, image)
            gram_k[:, j] = basis[:m] @ image
            gram_m[:, j] = basis[:m] @ np.multiply(mass, v, out=image)
        weights, vectors = np.linalg.eigh(gram_m)
        keep = weights > 1e-10 * weights[-1]  # cut near-dependent directions
        whiten = vectors[:, keep] / np.sqrt(weights[keep])
        _, ritz = np.linalg.eigh(whiten.T @ (0.5 * (gram_k + gram_k.T)) @ whiten)
        coef = whiten @ ritz[:, 0]
        basis[2] = np.dot(coef[1:], basis[1:m], out=image)  # p, then x = coef[0] x + p
        x *= coef[0]
        x += image
        _m_normalize(basis[:1], mass)
    else:
        raise ConvergenceError(f"LOBPCG stagnated after {_MAX_LOBPCG_ITERATIONS} iterations")
    shift = k_exp - m_exp
    if not sys.float_info.min_exp <= math.frexp(lam_new)[1] + shift <= sys.float_info.max_exp:
        raise PrecisionError(f"lambda1 leaves the normal float range at radius {metric.radius:g}")
    eigvec = np.divide(x, max(float(np.max(x)), -float(np.min(x))), out=image)  # max |x|
    if float(np.sum(eigvec)) < 0.0:
        np.negative(eigvec, out=eigvec)
    return EigenResult(math.ldexp(lam_new, shift), eigvec, iterations=it, residual=residual)


def eigen_2d_refined(
    metric: PolarMetric2D, mesh: Mesh2D, tol: float = 1e-8
) -> tuple[EigenResult, float, float]:
    """Solve on ``mesh`` and its one-step refinement.

    Returns the fine-mesh result, the Richardson error estimate for its
    eigenvalue (second-order scheme), and the extrapolated eigenvalue.
    """
    coarse = eigen_2d_polar(metric, mesh, tol).lambda1  # its eigenvector is not held
    fine = eigen_2d_polar(metric, mesh.refined(), tol)
    # second order: one halving shrinks the error 2^2 = 4 times
    estimate = abs(coarse - fine.lambda1) / 3.0
    extrapolated = fine.lambda1 + (fine.lambda1 - coarse) / 3.0
    return fine, estimate, extrapolated

