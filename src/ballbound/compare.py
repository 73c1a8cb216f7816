"""Space-form comparison tests: area-ratio monotonicity, bound-versus-oracle
reports, and the sharpness (equality) criterion.

If t -> A_g(t)/A_W(t) decreases, the first eigenvalue of the ball is bounded
by that of the model with warping W; equality forces the mean curvature of
every geodesic sphere to be radial and equal to (n-1) w'/w of the
symmetrized metric.
"""
from __future__ import annotations

import numpy as np

from .geometry import (
    AreaFunction,
    PolarMetric2D,
    RadialGrid,
    _area_samples,
    _circle_curvature,
    area_from_polar_metric,
    area_from_warping,
    area_of,
    radiality_deviation,
    space_form_warping,
)
from .moments import run_until_converged
from .oracle import shoot_radial_lambda1

BOUND_HOLDS = "bound-holds"
BOUND_BELOW_REFERENCE = "bound-below-reference"
EQUALITY_CANDIDATE = "equality-candidate"
HYPOTHESIS_FAILS = "hypothesis-fails"

DEFAULT_SLACK = 1e-10


class ComparisonReport:
    """Outcome of one bound-versus-reference comparison.

    ``converged`` says whether the hierarchy behind ``bound`` met its tolerance.
    """

    def __init__(
        self,
        model_id: str,
        bound: float,
        reference_lambda: float,
        monotone_ok: bool,
        ratio_profile: np.ndarray,
        radiality: float,
        verdict: str,
        combined_tolerance: float,
        converged: bool,
    ):
        self.model_id = model_id
        self.bound = bound
        self.reference_lambda = reference_lambda
        self.monotone_ok = monotone_ok
        self.ratio_profile = ratio_profile
        self.radiality = radiality
        self.verdict = verdict
        self.combined_tolerance = combined_tolerance
        self.converged = converged

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "bound": self.bound,
            "reference_lambda": self.reference_lambda,
            "monotone_ok": self.monotone_ok,
            "ratio_profile": [float(x) for x in self.ratio_profile],
            "radiality": self.radiality,
            "verdict": self.verdict,
            "combined_tolerance": self.combined_tolerance,
        }


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


def _reference_warping(reference, radius: float):
    if callable(reference):
        return reference
    return space_form_warping(float(reference), radius)


def cheng_report(
    target,
    kappa,
    grid: RadialGrid,
    tol: float = 1e-8,
    *,
    m_theta: int = 256,
    k_max: int = 200,
    model_id: str = "model",
) -> ComparisonReport:
    """Compare the symmetrization bound of ``target``, an area function or a
    2-D metric, against a reference model.

    ``kappa`` is either a space-form curvature or the warping callable of a
    general reference model.  The verdict is ``hypothesis-fails`` when the
    area-ratio monotonicity fails, ``bound-below-reference`` when the areas
    agree within ``DEFAULT_SLACK`` yet the bound lies below the reference eigenvalue
    by more than the combined tolerance, ``equality-candidate`` when bound,
    reference and the radiality test agree within tolerance, and
    ``bound-holds`` otherwise.  ``converged`` is false when the hierarchy
    ran out of ``k_max`` levels, so ``bound`` is unsupported.
    """
    area_g = area_of(target, grid, m_theta)
    deviation = 0.0
    if isinstance(target, PolarMetric2D):
        deviation = radiality_deviation(target, grid, m_theta)
    area_ref = area_from_warping(
        area_g.dimension, grid.radius, _reference_warping(kappa, grid.radius)
    )

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
    elif abs(bound - reference.lambda1) <= combined and deviation <= max(tol, 1e-8):
        verdict = EQUALITY_CANDIDATE
    else:
        verdict = BOUND_HOLDS
    return ComparisonReport(
        model_id=model_id,
        bound=bound,
        reference_lambda=reference.lambda1,
        monotone_ok=monotone_ok,
        ratio_profile=profile,
        radiality=deviation,
        verdict=verdict,
        combined_tolerance=combined,
        converged=norm_series.converged,
    )


def equality_criterion(
    metric: PolarMetric2D,
    grid: RadialGrid,
    m_theta: int,
    tol: float,
    curvature: tuple[np.ndarray, np.ndarray] | None = None,
    area: AreaFunction | None = None,
) -> bool:
    """Sharpness test for a 2-D metric.

    True iff the mean curvature of every interior circle is radial to within
    ``tol`` and its radial value matches w'/w = A'/A of the symmetrized metric.
    ``curvature`` is the per-circle angular spread and mean of H on the
    interior nodes, when the caller already has them from
    ``geometry._circle_curvature``, and ``area`` the metric's
    ``area_from_polar_metric`` on the same grid.
    """
    spread, mean = _circle_curvature(metric, grid, m_theta) if curvature is None else curvature
    if np.max(spread) > tol:
        return False
    area = area_from_polar_metric(metric, grid, m_theta) if area is None else area
    a = area.samples[1]
    target = grid.derivative(a)[1:-1] / a[1:-1]
    # A'/A = (n-1) w'/w with n = 2 against the angular mean of H on each circle
    return not np.any(np.abs(mean - target) > tol)
