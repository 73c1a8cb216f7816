"""Fourth-order quadrature and finite differences on uniform grids.

End-corrected composite weights, cumulative integrals assembled from
piecewise-cubic interval rules, five-point derivatives, and Richardson
error estimates.  Everything here assumes uniformly spaced samples, except
the shape-preserving cubic interpolant (PCHIP) of sampled areas.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError

# Interval rules exact for cubics: a startup row for the first interval and a
# sliding four-point kernel for interior intervals.  The last interval uses
# the startup row mirrored.
_FIRST_INTERVAL = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
_INTERIOR = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
# Column sums of the cumulative rules: trapezoid weights with end
# corrections, consistent with cumulative_integral to rounding.
_END_CORRECTION = np.array([-16.0, 7.0, -4.0, 1.0]) / 24.0

# Five-point first-derivative stencils (centered, then the two one-sided
# rows used at the left edge; the right edge mirrors them with a sign flip).
_D_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def composite_weights(n_nodes: int, dx: float) -> np.ndarray:
    """Definite-integral weights on a uniform grid, global error O(dx^4)."""
    if n_nodes < 8:
        raise DomainError(f"composite weights need at least 8 nodes, got {n_nodes}")
    if dx <= 0.0:
        raise DomainError("grid spacing must be positive")
    w = np.full(n_nodes, dx)
    w[:4] += dx * _END_CORRECTION
    w[-4:] += dx * _END_CORRECTION[::-1]
    return w


def cumulative_integral(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral of uniformly spaced samples, O(dx^4) at every node.

    Entry i approximates the integral from the first node to node i; the
    first entry is exactly 0.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 8:
        raise DomainError(f"cumulative integral needs at least 8 nodes, got {n}")
    d = np.empty(n - 1)
    d[0] = _FIRST_INTERVAL @ y[:4]
    d[-1] = _FIRST_INTERVAL[::-1] @ y[-4:]
    k0, k1, k2, k3 = _INTERIOR
    d[1:-1] = k0 * y[0 : n - 3] + k1 * y[1 : n - 2] + k2 * y[2 : n - 1] + k3 * y[3:n]
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(d * dx, out=out[1:])
    return out


def derivative_five_point(y: np.ndarray, dx: float) -> np.ndarray:
    """First derivative of uniformly spaced samples, O(dx^4), one-sided ends."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 5:
        raise DomainError(f"five-point derivative needs at least 5 nodes, got {n}")
    dy = np.empty(n)
    dy[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * dx)
    dy[0] = _D_EDGE0 @ y[:5] / dx
    dy[1] = _D_EDGE1 @ y[:5] / dx
    dy[-1] = -(_D_EDGE0 @ y[-5:][::-1]) / dx
    dy[-2] = -(_D_EDGE1 @ y[-5:][::-1]) / dx
    return dy


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    """Three-point one-sided end slope, limited to keep the end monotone (Moler 2004)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x: np.ndarray, y: np.ndarray) -> Callable:
    """Shape-preserving piecewise-cubic Hermite interpolant of y at increasing nodes x.

    Node slopes are the weighted harmonic mean of the adjacent secants, 0
    where they change sign or one vanishes (Fritsch & Butland 1984), with
    one-sided end slopes; slopes, coefficients and evaluation follow
    ``scipy.interpolate.PchipInterpolator`` operation by operation, so the
    values agree to the bit.  Needs at least three nodes; points are clamped
    to [x[0], x[-1]].
    """
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]

    def evaluate(points):
        p = np.clip(np.asarray(points, dtype=float), x[0], x[-1])
        i = np.clip(np.searchsorted(x, p, side="right") - 1, 0, x.size - 2)
        s = p - x[i]
        with np.errstate(all="ignore"):  # like scipy's compiled loop, overflow is silent
            return c3[i] + c2[i] * s + c1[i] * (s * s) + c0[i] * (s * s * s)

    return evaluate


def richardson_estimate(coarse: float, fine: float, order: int) -> float:
    """Error estimate for the fine-mesh value from one mesh halving."""
    return abs(coarse - fine) / (2.0**order - 1.0)


def richardson_extrapolate(coarse: float, fine: float, order: int) -> float:
    """Eliminate the leading error term from a coarse/fine value pair."""
    return fine + (fine - coarse) / (2.0**order - 1.0)
