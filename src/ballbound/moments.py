"""Recursive moment hierarchy over an area function and its eigenvalue estimators.

Starting from T_0 = 1, each level is

    T_k(t) = int_t^R ( int_0^s T_{k-1}(u) A(u) du ) / A(s) ds,

computed with two cumulative-sum passes per level so the whole hierarchy costs
O(K N).  Three ratio sequences built from the levels share the first
Dirichlet eigenvalue of the symmetrized ball as their common limit:

* norm ratio    (int T_k^2 A / int T_{k+1}^2 A)^(1/2)
* center ratio  T_{k-1}(0) / T_k(0)
* mass ratio    int T_{k-1} A / int T_k A

Because T_k(0) decays like lambda^-k, every level is renormalized to unit
center value.  The ratios use each level's own factor T_k(0) / T_{k-1}(0),
which cannot underflow.  :func:`hierarchy` yields the levels;
:func:`run_until_converged` is its reader that forms the ratios.  T_k itself
is prod(center_1..center_k) * level_k.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PrecisionError
from .geometry import AreaFunction, RadialGrid, _area_samples, _check_tol, _eigenvalue_scale

NORM_RATIO = "norm-ratio"
CENTER_RATIO = "center-ratio"
MASS_RATIO = "mass-ratio"


class EstimateSeries(NamedTuple):
    """One eigenvalue-estimator sequence with its stopping metadata."""

    kind: str
    ks: tuple[int, ...]
    values: tuple[float, ...]
    converged: bool
    final: float
    rate: float | None = None


def hierarchy(area: AreaFunction, grid: RadialGrid):
    """Yield (level, center, mass, norm2) for k = 0, 1, 2, ...

    ``level`` is T_k / T_k(0), ``center`` the factor T_k(0) / T_{k-1}(0)
    stripped from it (1 at k = 0), and ``mass`` and ``norm2`` are the
    integrals of ``level`` and ``level**2`` against A.  Each level is
    computed only when it is asked for.  Overflow raises
    :class:`PrecisionError` rather than a numpy warning.
    """
    a = np.concatenate([[0.0], _area_samples(area, grid, grid.nodes[1:])])
    w = grid.weights
    level, center = np.ones_like(a), 1.0
    # numpy's error state is context-wide: no errstate block may span a yield
    with np.errstate(over="ignore", invalid="ignore"):
        mass = float(w @ (level * a))
        norm2 = float(w @ (level**2 * a))
    if not math.isfinite(mass + norm2):
        raise PrecisionError(f"the area integral overflows at radius {grid.radius:g}")
    _eigenvalue_scale(area.dimension, grid.radius)  # names a radius whose lambda1 is no float
    while True:
        yield level, center, mass, norm2
        with np.errstate(over="ignore", invalid="ignore"):
            inner = grid.cumulative(level * a)
            integrand = np.zeros_like(inner)
            # (int_0^s T A)/A(s) ~ s * T(0)/n near 0: extend by its limit 0.
            integrand[1:] = inner[1:] / a[1:]
            # int_t^R summed from R inward (the rule is mirror-symmetric): no cancellation
            raw = grid.cumulative(integrand[::-1])[::-1]
            center = float(raw[0])
            if not math.isfinite(center) or center <= 0.0:
                raise PrecisionError(f"moment level degenerated (center value {center})")
            level = raw / center
            mass = float(w @ (level * a))
            norm2 = float(w @ (level**2 * a))
        if min(mass, norm2) <= 0.0 or not math.isfinite(mass + norm2):
            raise PrecisionError("estimator integrals underflowed; raise N")


def _series(
    kind: str, k_start: int, values: list[float], converged: bool, noise: float
) -> EstimateSeries:
    rate = None
    if len(values) >= 3:
        d1 = abs(values[-1] - values[-2])
        d0 = abs(values[-2] - values[-3])
        if min(d0, d1) > noise * math.ulp(values[-1]):  # else the differences are rounding
            rate = d1 / d0
    ks = tuple(range(k_start, k_start + len(values)))
    return EstimateSeries(kind, ks, tuple(values), converged, values[-1], rate)


def run_until_converged(
    area: AreaFunction,
    grid: RadialGrid,
    tol: float = 1e-8,
    k_max: int = 200,
) -> tuple[EstimateSeries, EstimateSeries, EstimateSeries]:
    """Deepen the hierarchy until all three estimators are Cauchy at ``tol``.

    Returns (norm, center, mass) series, formed here and nowhere else
    from each level's integrals and center factor.  Stopping uses the relative
    criterion |E(k) - E(k-1)| <= tol * E(k) on all three simultaneously; if
    ``k_max`` levels are exhausted first the series come back flagged
    unconverged rather than raising; overflow raises :class:`PrecisionError`.
    """
    _check_tol(tol)
    if k_max < 2:
        raise DomainError("k_max must be at least 2")
    levels = hierarchy(area, grid)
    _, _, mass_prev, sq_prev = next(levels)
    norms: list[float] = []
    centers: list[float] = []
    masses: list[float] = []
    converged = False
    # range first: zip stops before asking for a level beyond k_max
    for _, (_, center, mass_cur, sq_cur) in zip(range(k_max), levels):
        centers.append(1.0 / center)
        masses.append(mass_prev / mass_cur / center)
        norms.append(math.sqrt(sq_prev / sq_cur) / center)
        if len(centers) >= 2 and all(
            abs(s[-1] - s[-2]) <= tol * s[-1] for s in (norms, centers, masses)
        ):
            converged = True
            break
        mass_prev, sq_prev = mass_cur, sq_cur

    noise = math.sqrt(grid.intervals)  # rounding of N-term sums grows like sqrt(N) ulps
    return (
        _series(NORM_RATIO, 0, norms, converged, noise),
        _series(CENTER_RATIO, 1, centers, converged, noise),
        _series(MASS_RATIO, 1, masses, converged, noise),
    )
