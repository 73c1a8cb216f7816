"""Space-form comparison tests: area-ratio monotonicity, bound-versus-oracle
reports, and the sharpness (equality) criterion.

If t -> A_g(t)/A_W(t) decreases, the first eigenvalue of the ball is bounded
by that of the model with warping W; equality forces the mean curvature of
every geodesic sphere to be radial, and a radial H equals (n-1) w'/w of the
symmetrized metric, so the radiality alone decides sharpness.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError
from .geometry import (
    AreaFunction,
    PolarMetric2D,
    RadialGrid,
    _area_samples,
    area_of,
    radiality_deviation,
)
from .moments import run_until_converged
from .oracle import shoot_radial_lambda1

BOUND_HOLDS = "bound-holds"
BOUND_BELOW_REFERENCE = "bound-below-reference"
EQUALITY_CANDIDATE = "equality-candidate"
HYPOTHESIS_FAILS = "hypothesis-fails"

DEFAULT_SLACK = 1e-10


def monotonicity_check(
    area_g: AreaFunction,
    area_ref: AreaFunction,
    grid: RadialGrid,
) -> tuple[bool, np.ndarray]:
    """Discrete test that t -> A_g(t)/A_ref(t) decreases along the grid.

    The ratio at t = 0 is pinned to 1 (both areas share the leading
    coefficient vol(S^(n-1)) t^(n-1)); ``DEFAULT_SLACK`` absorbs rounding so
    constant profiles count as decreasing.  Both areas are sampled by the
    solvers' rule: ``grid`` spans their ball and they are positive on its nodes.
    """
    t = grid.nodes[1:]
    ag = _area_samples(area_g, grid, t)
    ar = _area_samples(area_ref, grid, t)
    profile = np.concatenate([[1.0], ag / ar])
    ok = bool(np.all(profile[1:] <= profile[:-1] * (1.0 + DEFAULT_SLACK)))
    return ok, profile


def cheng_report(
    target,
    area_ref: AreaFunction,
    grid: RadialGrid,
    tol: float = 1e-8,
    *,
    m_theta: int = 256,
    k_max: int = 200,
) -> tuple[dict, bool]:
    """Compare the symmetrization bound of ``target``, an area function or a
    2-D metric, against the reference model of sphere area ``area_ref``.

    Returns ``(comparison, converged)``.  ``comparison`` is the report's
    comparison block: ``bound``, ``reference_lambda``, ``monotone_ok``,
    ``ratio_profile``, ``radiality``, ``verdict`` and ``combined_tolerance``.
    ``converged`` is false when the hierarchy ran out of ``k_max`` levels, so
    ``bound`` is unsupported.

    The two areas must share a dimension.  The verdict is ``hypothesis-fails``
    when the area-ratio monotonicity fails, ``bound-below-reference`` when the
    areas agree within ``DEFAULT_SLACK`` yet the bound lies below the reference
    eigenvalue by more than the combined tolerance, ``equality-candidate`` when
    bound and reference agree within tolerance and a metric passes
    :func:`equality_criterion`, and ``bound-holds`` otherwise.
    """
    area_g = area_of(target, grid, m_theta)
    if area_ref.dimension != area_g.dimension:
        raise DomainError(
            f"reference dimension {area_ref.dimension} differs from the model's {area_g.dimension}"
        )
    radiality, radial = 0.0, True
    if isinstance(target, PolarMetric2D):
        radiality, radial = equality_criterion(target, grid, m_theta, tol)

    monotone_ok, profile = monotonicity_check(area_g, area_ref, grid)
    norm_series, _, _ = run_until_converged(area_g, grid, tol, k_max)
    bound = norm_series.final
    reference = shoot_radial_lambda1(area_ref, grid, tol)
    combined = 5.0 * tol * bound + tol  # estimator tail + oracle bisection width

    if not monotone_ok:
        verdict = HYPOTHESIS_FAILS
    elif bound < reference.lambda1 - combined and np.all(np.abs(profile - 1.0) <= DEFAULT_SLACK):
        # equal areas: the norm ratios bound the reference eigenvalue from above
        verdict = BOUND_BELOW_REFERENCE
    elif abs(bound - reference.lambda1) <= combined and radial:
        verdict = EQUALITY_CANDIDATE
    else:
        verdict = BOUND_HOLDS
    return {
        "bound": bound,
        "reference_lambda": reference.lambda1,
        "monotone_ok": monotone_ok,
        "ratio_profile": profile.tolist(),
        "radiality": radiality,
        "verdict": verdict,
        "combined_tolerance": combined,
    }, norm_series.converged


def equality_criterion(
    metric: PolarMetric2D, grid: RadialGrid, m_theta: int, tol: float
) -> tuple[float, bool]:
    """Sharpness test for a 2-D metric on the interior circles of ``grid``.

    Returns the radiality, the largest angular spread of the mean curvature
    (:func:`radiality_deviation`), and whether the metric is sharp: the
    radiality is within ``tol``.  A ``tol`` below 1e-9 counts as 1e-9.

    One test is enough: A'/A = sum rho_r / sum rho is the rho-weighted
    angular mean of H, so it lies within one radiality of the plain mean
    of H on every circle, and (n-1) w'/w of the symmetrized metric is A'/A.
    """
    # H is a finite-difference quotient: its noise (about 1e-11) must not decide
    radiality = radiality_deviation(metric, grid, m_theta)
    return radiality, radiality <= max(tol, 1e-9)
