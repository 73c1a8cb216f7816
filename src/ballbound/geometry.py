"""Rotationally symmetric models, sphere-area functions, and 2-D polar metrics.

The central objects are the warping function w(t) of a model metric
dr^2 + w(r)^2 dS^2, the area function A(t) of its geodesic spheres, and the
angular density rho(r, theta) of a general 2-D metric dr^2 + G(r, theta)
dtheta^2 with rho = sqrt(G).  Symmetrization maps a density to the area
function A(t) = integral of rho(t, .) and back to the warping
w(t) = (A(t) / vol(S^{n-1}))^{1/(n-1)} of the comparison model with the same
sphere areas.
"""
from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    InvalidAreaError,
    InvalidMetricError,
    InvalidModelError,
    PrecisionError,
)
from .quadrature import (
    _pchip,
    composite_weights,
    derivative_five_point,
    differentiate_callable,
)

CLOSED_FORM = "closed-form"
SAMPLED = "sampled"
FROM_METRIC = "from-metric"

# Relative radii used to spot-check positivity/limit invariants at build time.
_CHECK_FRACTIONS = np.array([1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 1.0])


def unit_sphere_volume(n: int) -> float:
    """Volume of the unit (n-1)-sphere, 2 pi^(n/2) / Gamma(n/2)."""
    if n < 2:
        raise DomainError(f"dimension must be at least 2, got {n}")
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:
        raise PrecisionError(f"the volume of the unit sphere overflows in dimension {n}") from None


def _eval_on(fn: Callable, x) -> np.ndarray:
    """Evaluate a vectorized callable on an array; the result broadcasts to its shape."""
    arr = np.asarray(x, dtype=float)
    return np.broadcast_to(np.asarray(fn(arr), dtype=float), arr.shape)


def _eval_on2(fn: Callable, r, theta) -> np.ndarray:
    """Two-argument version of :func:`_eval_on`, on the broadcast shape of r and theta."""
    rr = np.asarray(r, dtype=float)
    tt = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(rr.shape, tt.shape)
    return np.broadcast_to(np.asarray(fn(rr, tt), dtype=float), shape)


class RadialGrid:
    """Uniform nodes on [0, R] with fourth-order quadrature weights."""

    def __init__(self, radius: float, intervals: int):
        if intervals < 8:
            raise DomainError(f"need at least 8 intervals, got {intervals}")
        if radius <= 0.0:
            raise DomainError("grid radius must be positive")
        self.radius = radius
        self.intervals = intervals
        self.spacing = radius / intervals
        self.nodes = np.linspace(0.0, radius, intervals + 1)
        self.weights = composite_weights(intervals + 1, self.spacing)
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    @classmethod
    def uniform(cls, radius: float, intervals: int) -> "RadialGrid":
        """The grid with ``intervals`` subintervals (end-corrected weights)."""
        return cls(radius, intervals)


class WarpingFunction:
    """Radial profile w(t) of a rotationally symmetric metric, with derivative."""

    def __init__(self, eval: Callable, derivative_eval: Callable, source: str = CLOSED_FORM):
        self.eval = eval
        self.derivative_eval = derivative_eval
        self.source = source


def make_warping(
    fn: Callable,
    radius: float,
    derivative: Callable | None = None,
    source: str = CLOSED_FORM,
) -> WarpingFunction:
    """Wrap a callable as a warping function, differentiating it if needed."""
    if derivative is None:
        derivative = differentiate_callable(lambda t: _eval_on(fn, t), 0.0, radius)
    return WarpingFunction(eval=fn, derivative_eval=derivative, source=source)


def space_form_warping(kappa: float, radius: float) -> WarpingFunction:
    """Warping of the constant-curvature space form: sin/identity/sinh profile."""
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    if kappa > 0.0:
        sq = math.sqrt(kappa)
        if radius >= math.pi / sq:
            raise DomainError(
                f"radius {radius} reaches the conjugate locus pi/sqrt(kappa) = {math.pi / sq}"
            )
        return WarpingFunction(
            eval=lambda t: np.sin(sq * np.asarray(t, dtype=float)) / sq,
            derivative_eval=lambda t: np.cos(sq * np.asarray(t, dtype=float)),
        )
    if kappa < 0.0:
        sq = math.sqrt(-kappa)
        return WarpingFunction(
            eval=lambda t: np.sinh(sq * np.asarray(t, dtype=float)) / sq,
            derivative_eval=lambda t: np.cosh(sq * np.asarray(t, dtype=float)),
        )
    return WarpingFunction(
        eval=lambda t: np.asarray(t, dtype=float) + 0.0,
        derivative_eval=lambda t: np.ones_like(np.asarray(t, dtype=float)),
    )


def _require_finite(values: np.ndarray, t: np.ndarray, name="A(t)", error=InvalidAreaError):
    """Raise ``error`` naming the first t where ``values`` (samples of ``name``) is not finite."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise error(f"{name} is not finite at t = {float(t[bad][0])!r}")


class RiemannianModel:
    """A ball of given radius carrying the metric dr^2 + w(r)^2 dS^2."""

    def __init__(self, dimension: int, radius: float, warping: WarpingFunction):
        self.dimension = dimension
        self.radius = radius
        self.warping = warping
        if self.dimension < 2:
            raise DomainError(f"dimension must be at least 2, got {self.dimension}")
        if self.radius <= 0.0:
            raise DomainError("radius must be positive")
        w0 = float(_eval_on(self.warping.eval, 0.0))
        if abs(w0) > 1e-9 * self.radius:
            raise InvalidModelError(f"warping must vanish at 0, got w(0) = {w0}")
        t_check = self.radius * _CHECK_FRACTIONS
        with np.errstate(all="ignore"):
            samples = _eval_on(self.warping.eval, t_check)
        _require_finite(samples, t_check, "w(t)", InvalidModelError)
        if np.any(samples <= 0.0):
            raise InvalidModelError("warping must be positive on (0, R]")
        t0 = self.radius * 1e-6
        ratio = float(_eval_on(self.warping.eval, t0)) / t0
        if abs(ratio - 1.0) > 1e-6:
            msg = f"w(t)/t -> {ratio} near 0, expected 1 (metric smooth at the center)"
            if self.warping.source == CLOSED_FORM:
                raise InvalidModelError(msg)
            warnings.warn(msg, RuntimeWarning, stacklevel=2)


class AreaFunction:
    """Evaluator for the geodesic-sphere area A(t) of an n-dimensional ball."""

    def __init__(
        self,
        dimension: int,
        radius: float,
        eval: Callable,
        source: str = CLOSED_FORM,
        samples: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self.dimension = dimension
        self.radius = radius
        self.eval = eval
        self.source = source
        self.samples = samples
        if self.dimension < 2:
            raise DomainError(f"dimension must be at least 2, got {self.dimension}")
        if self.radius <= 0.0:
            raise DomainError("radius must be positive")
        t_probe = self.radius * _CHECK_FRACTIONS
        with np.errstate(all="ignore"):
            probe = _eval_on(self.eval, t_probe)
        _require_finite(probe, t_probe)
        a0 = float(_eval_on(self.eval, 0.0))
        if abs(a0) > 1e-9 * max(1.0, float(np.max(np.abs(probe)))):
            raise InvalidAreaError(f"A(0) must vanish, got {a0}")
        if np.any(probe <= 0.0):
            raise InvalidAreaError("A must be positive on (0, R]")
        if self.samples is not None:
            t1 = float(self.samples[0][1])
        else:
            t1 = self.radius * 1e-4
        ratio = float(_eval_on(self.eval, t1)) / (
            unit_sphere_volume(self.dimension) * t1 ** (self.dimension - 1)
        )
        if abs(ratio - 1.0) > 0.05:
            msg = (
                f"A(t)/t^(n-1) -> {ratio:.6g} x vol(S^(n-1)) near 0, expected the"
                " unit-sphere volume (metric smooth at the center)"
            )
            if self.source == CLOSED_FORM:
                raise InvalidAreaError(msg)
            warnings.warn(msg, RuntimeWarning, stacklevel=2)


class PolarMetric2D:
    """Angular density rho(r, theta) = sqrt(det G) of a 2-D metric on a disc."""

    def __init__(self, radius: float, density: Callable, density_r: Callable | None = None):
        self.radius = radius
        self.density = density
        if self.radius <= 0.0:
            raise DomainError("radius must be positive")
        if density_r is None:
            density_r = _fd_density_r(density, radius)
        self.density_r = density_r
        theta = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        radii = self.radius * _CHECK_FRACTIONS
        vals = _eval_on2(self.density, radii[:, None], theta[None, :])
        if np.any(vals <= 0.0):
            raise InvalidMetricError("density must be positive on (0, R] x [0, 2 pi)")
        wrap = np.abs(
            _eval_on2(self.density, radii, 0.0) - _eval_on2(self.density, radii, 2.0 * math.pi)
        )
        if np.any(wrap > 1e-12 * np.max(vals)):
            raise InvalidMetricError("density must be 2 pi periodic in theta")
        r0 = self.radius * 1e-6
        ratios = _eval_on2(self.density, r0, theta) / r0
        if np.max(np.abs(ratios - 1.0)) > 1e-3:
            warnings.warn(
                "density/r does not tend to 1 at the center; the metric may be"
                " singular there",
                RuntimeWarning,
                stacklevel=2,
            )


def _fd_density_r(density: Callable, radius: float) -> Callable:
    """Centered radial difference of the density, shrinking the step near 0 and R."""
    h0 = radius * 1e-5

    def deriv(r, theta):
        rr = np.asarray(r, dtype=float)
        h = np.minimum(h0, np.minimum(rr, radius - rr) / 2.0)
        h = np.maximum(h, radius * 1e-12)
        up = _eval_on2(density, rr + h, theta)
        down = _eval_on2(density, rr - h, theta)
        return (up - down) / (2.0 * h)

    return deriv


def area_from_warping(model: RiemannianModel) -> AreaFunction:
    """Sphere area of a model: A(t) = vol(S^(n-1)) w(t)^(n-1)."""
    n = model.dimension
    vol = unit_sphere_volume(n)
    w = model.warping.eval

    def evaluate(t):
        return vol * _eval_on(w, t) ** (n - 1)

    source = CLOSED_FORM if model.warping.source == CLOSED_FORM else SAMPLED
    return AreaFunction(dimension=n, radius=model.radius, eval=evaluate, source=source)


def warping_from_area(area: AreaFunction) -> WarpingFunction:
    """Invert the model-area relation: w(t) = (A(t)/vol(S^(n-1)))^(1/(n-1)).

    The derivative is analytic-free: sampled areas are differentiated on their
    own grid with five-point differences, closed forms with a fine default step.
    """
    n = area.dimension
    vol = unit_sphere_volume(n)

    def w_eval(t):
        a = _eval_on(area.eval, t)
        if np.any(a < -1e-12 * max(1.0, float(np.max(np.abs(a))))):
            raise InvalidAreaError("area function is negative on the requested points")
        return (np.clip(a, 0.0, None) / vol) ** (1.0 / (n - 1))

    if area.samples is not None:
        nodes, values = area.samples
        if np.any(values < 0.0):
            raise InvalidAreaError("sampled area function has negative nodes")
        w_nodes = (values / vol) ** (1.0 / (n - 1))
        w_deriv = _pchip(nodes, derivative_five_point(w_nodes, float(nodes[1] - nodes[0])))
        source = area.source
    else:
        w_deriv = differentiate_callable(w_eval, 0.0, area.radius)
        source = area.source
    return WarpingFunction(eval=w_eval, derivative_eval=w_deriv, source=source)


def _angles(m_theta: int) -> np.ndarray:
    """The m_theta uniform angles 2 pi j / m_theta of the periodic trapezoid rule."""
    if m_theta < 8 or m_theta % 2 != 0:
        raise DomainError(f"m_theta must be even and at least 8, got {m_theta}")
    return 2.0 * math.pi * np.arange(m_theta) / m_theta


def area_from_polar_metric(
    metric: PolarMetric2D, grid: RadialGrid, m_theta: int
) -> AreaFunction:
    """Sphere length A(t) of a 2-D polar metric by periodic trapezoid in theta.

    The density is sampled at ``m_theta`` uniform angles per grid node; the
    result interpolates the node values with a shape-preserving cubic.
    """
    theta = _angles(m_theta)
    if abs(grid.radius - metric.radius) > 1e-12 * metric.radius:
        raise DomainError("grid radius must match the metric radius")
    rho = _eval_on2(metric.density, grid.nodes[1:, None], theta[None, :])
    values = rho.sum(axis=1) * (2.0 * math.pi / m_theta)
    if np.any(values <= 0.0):
        raise InvalidMetricError("angular quadrature of the density is not positive")
    nodes = grid.nodes
    samples = np.concatenate([[0.0], values])
    spline = _pchip(nodes, samples)

    def evaluate(t):
        arr = np.asarray(t, dtype=float)
        if np.any(arr < -1e-12 * grid.radius) or np.any(arr > grid.radius * (1 + 1e-12)):
            raise DomainError("area requested outside [0, R]")
        return spline(arr)

    return AreaFunction(
        dimension=2,
        radius=grid.radius,
        eval=evaluate,
        source=FROM_METRIC,
        samples=(nodes.copy(), samples),
    )


def area_of(target, grid: RadialGrid, m_theta: int) -> AreaFunction:
    """Sphere-area function of a model, of a 2-D metric, or an area function as it is.

    A metric is symmetrized on ``grid`` with ``m_theta`` angles; a model's
    area follows from its warping.
    """
    if isinstance(target, PolarMetric2D):
        return area_from_polar_metric(target, grid, m_theta)
    if isinstance(target, RiemannianModel):
        return area_from_warping(target)
    if isinstance(target, AreaFunction):
        return target
    raise DomainError(f"no sphere-area function for a {type(target).__name__}")


def mean_curvature_field(metric: PolarMetric2D, t, theta):
    """Inward mean curvature H(t, theta) = d/dr log rho at r = t.

    Positive for the Euclidean circle (H = 1/t).  ``t`` and ``theta`` may be
    arrays that broadcast against each other; two scalars give a float.
    """
    tt = np.asarray(t, dtype=float)
    outside = ~((0.0 < tt) & (tt < metric.radius))
    if np.any(outside):
        raise DomainError(f"t must lie strictly inside (0, R), got {float(tt[outside][0])}")
    rho = _eval_on2(metric.density, tt, theta)
    bad = rho <= 0.0
    if np.any(bad):
        raise InvalidMetricError(
            f"density is not positive at t = {float(np.broadcast_to(tt, rho.shape)[bad][0])}"
        )
    out = _eval_on2(metric.density_r, tt, theta) / rho
    return out if out.ndim else float(out)


def _interior_curvature(metric: PolarMetric2D, grid: RadialGrid, m_theta: int) -> np.ndarray:
    """H on every interior grid node (rows) and ``m_theta`` uniform angles (columns)."""
    return mean_curvature_field(metric, grid.nodes[1:-1, None], _angles(m_theta))


def radiality_deviation(metric: PolarMetric2D, grid: RadialGrid, m_theta: int) -> float:
    """Worst-case angular spread of the mean curvature over interior nodes.

    Zero (to resolution) means every geodesic circle has radial mean
    curvature, the sharpness condition for the symmetrization bound.
    """
    return _spread(_interior_curvature(metric, grid, m_theta))


def _spread(h: np.ndarray) -> float:
    """Largest max - min of a curvature field along its rows (circles)."""
    return float(np.max(np.ptp(h, axis=1)))


def polar_metric_from_warping(warping: WarpingFunction, radius: float) -> PolarMetric2D:
    """The 2-D polar metric with theta-independent density rho(r, theta) = w(r)."""

    return PolarMetric2D(
        radius=radius,
        density=lambda r, theta: warping.eval(r),
        density_r=lambda r, theta: warping.derivative_eval(r),
    )


def euclidean_model(dimension: int, radius: float) -> RiemannianModel:
    return RiemannianModel(dimension, radius, space_form_warping(0.0, radius))


def space_form_model(dimension: int, kappa: float, radius: float) -> RiemannianModel:
    return RiemannianModel(dimension, radius, space_form_warping(kappa, radius))


def _bump(t):
    """Compactly supported profile: 0 for t <= 2, exp(-1/(t-2)^2) beyond."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(arr)
    m = arr > 2.0
    if np.any(m):
        u = arr[m] - 2.0
        out[m] = np.exp(-1.0 / (u * u))
    return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])


def _bump_prime(t):
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(arr)
    m = arr > 2.0
    if np.any(m):
        u = arr[m] - 2.0
        out[m] = np.exp(-1.0 / (u * u)) * 2.0 / (u * u * u)
    return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])


def bumped_disc_metric(radius: float) -> PolarMetric2D:
    """Flat-area disc with a non-radial bump outside r = 2.

    The density r + phi(r) cos(theta) keeps every circle length equal to
    2 pi t, so the symmetrized model is the Euclidean disc, while for
    radius > 2 the mean curvature of the circles is not radial.
    """

    def density(r, theta):
        return np.asarray(r, dtype=float) + _bump(r) * np.cos(np.asarray(theta, dtype=float))

    def density_r(r, theta):
        return 1.0 + _bump_prime(r) * np.cos(np.asarray(theta, dtype=float))

    return PolarMetric2D(radius=radius, density=density, density_r=density_r)
