"""Reference eigenvalues and sphere areas computed without ballbound.

The first Dirichlet eigenvalue of a rotationally symmetric model comes from a
closed form where one exists (flat disc ``j0^2 / R^2``, 3-D space forms
``pi^2 / R^2 - kappa``) and otherwise from a Chebyshev collocation solve of
the radial equation

    f'' + q(t) f' + lambda f = 0,   f'(0) = 0,   f(R) = 0,   q = A'/A,

on [-R, R] folded onto its even half (Trefethen, *Spectral Methods in
MATLAB*, SIAM 2000, program 28).  Only numpy is used, so the references stay
independent of the program under test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

J0 = 2.404825557695773  # first positive zero of the Bessel function J0
J0_SQ = J0 * J0

# Odd, so that t = 0 is not a collocation node and q(t) ~ (n-1)/t stays finite.
_CHEB_POINTS = 101


def _cheb(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev differentiation matrix and nodes x_j = cos(j pi / n)."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return d, x


def radial_lambda1(slope, radius: float) -> float:
    """Smallest eigenvalue of -(f'' + slope(t) f') with f'(0) = 0, f(R) = 0.

    ``slope`` is the odd log-derivative A'/A of the sphere area, evaluated
    only at positive nodes.
    """
    n = _CHEB_POINTS
    d, x = _cheb(n)
    d2 = d @ d
    half = (n - 1) // 2
    inner = slice(1, half + 1)
    mirror = slice(n - 1, n - half - 1, -1)  # node n - j mirrors node j
    d1 = (d[inner, inner] + d[inner, mirror]) / radius
    d2 = (d2[inner, inner] + d2[inner, mirror]) / radius**2
    t = radius * x[inner]
    op = -(d2 + slope(t)[:, None] * d1)
    values = np.linalg.eigvals(op)
    return float(np.min(values.real))


def sphere_volume(n: int) -> float:
    """Volume of the unit (n-1)-sphere."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class RadialModel:
    """Ball of radius R with metric dr^2 + w(r)^2 dS^2.

    ``w`` is the space-form profile of curvature ``kappa`` when ``cubic`` is
    zero, and ``t + cubic * t^3`` otherwise.
    """

    dimension: int
    radius: float
    kappa: float = 0.0
    cubic: float = 0.0

    def warping(self, t):
        t = np.asarray(t, dtype=float)
        if self.cubic:
            return t + self.cubic * t**3
        if self.kappa > 0.0:
            s = math.sqrt(self.kappa)
            return np.sin(s * t) / s
        if self.kappa < 0.0:
            s = math.sqrt(-self.kappa)
            return np.sinh(s * t) / s
        return t

    def warping_slope(self, t):
        """w'(t) / w(t)."""
        t = np.asarray(t, dtype=float)
        if self.cubic:
            return (1.0 + 3.0 * self.cubic * t**2) / (t + self.cubic * t**3)
        if self.kappa > 0.0:
            s = math.sqrt(self.kappa)
            return s / np.tan(s * t)
        if self.kappa < 0.0:
            s = math.sqrt(-self.kappa)
            return s / np.tanh(s * t)
        return 1.0 / t

    def area(self, t):
        return sphere_volume(self.dimension) * self.warping(t) ** (self.dimension - 1)

    def lambda1(self) -> float:
        if not self.cubic:
            if self.dimension == 3:
                return math.pi**2 / self.radius**2 - self.kappa
            if self.dimension == 2 and self.kappa == 0.0:
                return J0_SQ / self.radius**2
        n = self.dimension
        return radial_lambda1(lambda t: (n - 1) * self.warping_slope(t), self.radius)
