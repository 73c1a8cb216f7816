"""The shape-preserving cubic interpolant (PCHIP) of sampled areas.

The fourth-order rules on the radial grid are methods of
:class:`ballbound.geometry.RadialGrid`.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


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

