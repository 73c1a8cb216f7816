"""Sphere-area functions of rotationally symmetric balls, and 2-D polar metrics.

A rotationally symmetric model dr^2 + w(r)^2 dS^2 is held as the area
function A(t) = vol(S^{n-1}) w(t)^{n-1} of its geodesic spheres, the one
radial object both solvers read.  A general 2-D metric dr^2 + G(r, theta)
dtheta^2 is held as its angular density rho = sqrt(G).  Symmetrization maps
a density to the area function A(t) = integral of rho(t, .) and back to the
warping w(t) = (A(t) / vol(S^{n-1}))^{1/(n-1)} of the comparison model with
the same sphere areas.
"""
from __future__ import annotations

import math
import sys
import warnings
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidAreaError, InvalidMetricError, PrecisionError
from .quadrature import _pchip

# Relative radii used to spot-check positivity/limit invariants at build time.
_CHECK_FRACTIONS = np.array([1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 1.0])
# First Dirichlet eigenvalue of the unit disc (square of the first J0 zero).
_UNIT_DISC_LAMBDA = 5.783185962946785
# (radius, angle) points of a 2-D field evaluated at once: whole grid rows, at
# least one, so that no full field is held (1024 rows at 256 angles).
_BLOCK = 1 << 18


def unit_sphere_volume(n: int) -> float:
    """Volume of the unit (n-1)-sphere, 2 pi^(n/2) / Gamma(n/2)."""
    if n < 2:
        raise DomainError(f"dimension must be at least 2, got {n}")
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:
        raise PrecisionError(f"the volume of the unit sphere overflows in dimension {n}") from None


def _eval_on(fn: Callable, *args) -> np.ndarray:
    """Evaluate a vectorized callable on arrays; the result broadcasts to their common shape."""
    arrays = [np.asarray(x, dtype=float) for x in args]
    shape = np.broadcast_shapes(*(arr.shape for arr in arrays))
    return np.broadcast_to(np.asarray(fn(*arrays), dtype=float), shape)


def _check_radius(radius: float) -> None:
    """Reject a ball radius that is not positive, or whose innermost check
    point 1e-6 R (see ``_CHECK_FRACTIONS``) is not a normal float."""
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    if radius * 1e-6 < sys.float_info.min:
        raise PrecisionError(f"radius {radius!r} is too small: 1e-6 R is not a normal float")


def _eigenvalue_scale(dimension: int, radius: float) -> float:
    """The Euclidean scale 4 n j0^2 / R^2 of lambda1, which starts the shooting
    bracket; a ball where it is not a normal float raises :class:`PrecisionError`."""
    scale = 4.0 * dimension * _UNIT_DISC_LAMBDA / radius / radius
    if not sys.float_info.min <= scale < math.inf:
        raise PrecisionError(
            f"eigenvalue scale {scale:g} at radius {radius:g} is outside the normal float range"
        )
    return scale


# Interval rules exact for cubics: a startup row for the first interval and a
# sliding four-point kernel for interior intervals.  The last interval uses
# the startup row mirrored.
_FIRST_INTERVAL = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
_INTERIOR = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
# Column sums of the cumulative rules: trapezoid weights with end
# corrections, consistent with RadialGrid.cumulative to rounding.
_END_CORRECTION = np.array([-16.0, 7.0, -4.0, 1.0]) / 24.0

# Five-point first-derivative stencils (centered, then the two one-sided
# rows used at the left edge; the right edge mirrors them with a sign flip).
_D_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


class RadialGrid:
    """Uniform nodes on [0, R] with fourth-order rules, O(spacing^4), for samples at them."""

    def __init__(self, radius: float, intervals: int):
        if intervals < 8:
            raise DomainError(f"need at least 8 intervals, got {intervals}")
        _check_radius(radius)
        self.radius = radius
        self.intervals = intervals
        self.spacing = dx = radius / intervals
        self.nodes = np.linspace(0.0, radius, intervals + 1)
        self.weights = np.full(intervals + 1, dx)
        self.weights[:4] += dx * _END_CORRECTION
        self.weights[-4:] += dx * _END_CORRECTION[::-1]
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    def cumulative(self, y: np.ndarray) -> np.ndarray:
        """Integral of the node samples y from 0 to each node; the first entry is exactly 0."""
        d = np.empty(self.intervals)
        d[0] = _FIRST_INTERVAL @ y[:4]
        d[-1] = _FIRST_INTERVAL[::-1] @ y[-4:]
        k0, k1, k2, k3 = _INTERIOR
        d[1:-1] = k0 * y[:-3] + k1 * y[1:-2] + k2 * y[2:-1] + k3 * y[3:]
        out = np.empty(self.intervals + 1)
        out[0] = 0.0
        np.cumsum(d * self.spacing, out=out[1:])
        return out

    def derivative(self, y: np.ndarray) -> np.ndarray:
        """First derivative of the node samples y: five-point stencils, one-sided at the ends."""
        dx = self.spacing
        dy = np.empty(self.intervals + 1)
        dy[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * dx)
        dy[0] = _D_EDGE0 @ y[:5] / dx
        dy[1] = _D_EDGE1 @ y[:5] / dx
        dy[-1] = -(_D_EDGE0 @ y[-5:][::-1]) / dx
        dy[-2] = -(_D_EDGE1 @ y[-5:][::-1]) / dx
        return dy


def space_form_warping(kappa: float, radius: float) -> Callable:
    """Warping w(t) of the constant-curvature space form: sin/identity/sinh profile."""
    _check_radius(radius)
    if kappa > 0.0:
        sq = math.sqrt(kappa)
        if radius >= math.pi / sq:
            raise DomainError(
                f"radius {radius} reaches the conjugate locus pi/sqrt(kappa) = {math.pi / sq}"
            )
        return lambda t: np.sin(sq * np.asarray(t, dtype=float)) / sq
    if kappa < 0.0:
        sq = math.sqrt(-kappa)
        return lambda t: np.sinh(sq * np.asarray(t, dtype=float)) / sq
    return lambda t: np.asarray(t, dtype=float) + 0.0


def _require_finite(values: np.ndarray, t: np.ndarray) -> None:
    """Raise :class:`InvalidAreaError` naming the first t where the samples A(t) are not finite."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise InvalidAreaError(f"A(t) is not finite at t = {float(t[bad][0])!r}")


def _require_positive(values: np.ndarray, t: np.ndarray, dimension: int) -> None:
    """The positivity rule for samples A(t) at increasing radii t in (0, R].

    A must be positive there; a leading run of exact zeros followed only by
    positive values is A = vol w^(n-1) underflowing next to the center.
    """
    nonpositive = values <= 0.0
    if np.any(nonpositive):
        lead = int(np.argmin(nonpositive))  # index of the first positive sample, 0 if none
        if 0 < lead and not np.any(nonpositive[lead:]) and np.all(values[:lead] == 0.0):
            raise PrecisionError(f"A(t) underflows to 0 at t = {t[0]:g} in dimension {dimension}")
        raise InvalidAreaError("A must be positive on (0, R]")


class AreaFunction:
    """Evaluator for the geodesic-sphere area A(t) of an n-dimensional ball.

    ``samples`` are the (nodes, values) an interpolated area was built from.
    The smooth-metric centre law, A(t) / (vol(S^(n-1)) t^(n-1)) within 5% of
    1 at t = 1e-4 R (the first sample node for samples), holds for every
    area, a model's too: off it is an error for a closed form and a warning
    for samples, which a coarse grid may not resolve.
    """

    def __init__(
        self,
        dimension: int,
        radius: float,
        eval: Callable,
        samples: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self.dimension = dimension
        self.radius = radius
        self.eval = eval
        self.samples = samples
        if self.dimension < 2:
            raise DomainError(f"dimension must be at least 2, got {self.dimension}")
        _check_radius(self.radius)
        t_probe = self.radius * _CHECK_FRACTIONS
        with np.errstate(all="ignore"):
            probe = _eval_on(self.eval, t_probe)
        _require_finite(probe, t_probe)
        a0 = float(_eval_on(self.eval, 0.0))
        if abs(a0) > 1e-9 * max(1.0, float(np.max(np.abs(probe)))):
            raise InvalidAreaError(f"A(0) must vanish, got {a0}")
        _require_positive(probe, t_probe, self.dimension)
        t1 = float(self.samples[0][1]) if self.samples is not None else self.radius * 1e-4
        # in high dimensions t1^(n-1) can overflow or underflow: the ratio is then 0 or inf
        with np.errstate(all="ignore"):
            ratio = float(
                _eval_on(self.eval, t1)
                / (unit_sphere_volume(self.dimension) * np.float64(t1) ** (self.dimension - 1))
            )
        if not abs(ratio - 1.0) <= 0.05:
            msg = (
                f"A(t)/t^(n-1) -> {ratio:.6g} x vol(S^(n-1)) near 0, expected the"
                " unit-sphere volume (metric smooth at the center)"
            )
            if self.samples is None:
                raise InvalidAreaError(msg)
            warnings.warn(msg, RuntimeWarning, stacklevel=2)


def _area_samples(area: AreaFunction, grid: RadialGrid, t: np.ndarray) -> np.ndarray:
    """A at increasing radii t in (0, R] of ``grid``, finite and positive, for a solver
    that divides by them; ``grid`` must span the area's ball."""
    if abs(grid.radius - area.radius) > 1e-12 * area.radius:
        raise DomainError("grid radius must match the area radius")
    with np.errstate(all="ignore"):
        values = _eval_on(area.eval, t)
    _require_finite(values, t)
    _require_positive(values, t, area.dimension)
    return values


class PolarMetric2D:
    """Angular density rho(r, theta) = sqrt(det G) of a 2-D metric on a disc."""

    def __init__(self, radius: float, density: Callable, density_r: Callable | None = None):
        self.radius = radius
        self.density = density
        _check_radius(self.radius)
        if density_r is None:
            density_r = _fd_density_r(density, radius)
        self.density_r = density_r
        theta = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        radii = self.radius * _CHECK_FRACTIONS
        vals = _eval_on(self.density, radii[:, None], theta[None, :])
        if np.any(vals <= 0.0):
            raise InvalidMetricError("density must be positive on (0, R] x [0, 2 pi)")
        wrap = np.abs(
            _eval_on(self.density, radii, 0.0) - _eval_on(self.density, radii, 2.0 * math.pi)
        )
        if np.any(wrap > 1e-12 * np.max(vals)):
            raise InvalidMetricError("density must be 2 pi periodic in theta")
        r0 = self.radius * 1e-6
        ratios = _eval_on(self.density, r0, theta) / r0
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
        up = _eval_on(density, rr + h, theta)
        down = _eval_on(density, rr - h, theta)
        return (up - down) / (2.0 * h)

    return deriv


def area_from_warping(dimension: int, radius: float, warping: Callable) -> AreaFunction:
    """Sphere area of the model dr^2 + w(r)^2 dS^2: A(t) = vol(S^(n-1)) w(t)^(n-1).

    A keeps the sign of w in every dimension, so the area's positivity rule
    rejects a warping that changes sign inside the ball.
    """
    n = dimension
    vol = unit_sphere_volume(n)

    def evaluate(t):
        w = _eval_on(warping, t)
        return vol * np.copysign(np.abs(w) ** (n - 1), w)

    return AreaFunction(dimension=n, radius=radius, eval=evaluate)


def warping_from_area(area: AreaFunction) -> Callable:
    """Invert the model-area relation: w(t) = (A(t)/vol(S^(n-1)))^(1/(n-1))."""
    n = area.dimension
    vol = unit_sphere_volume(n)

    def w_eval(t):
        a = _eval_on(area.eval, t)
        if np.any(a < -1e-12 * max(1.0, float(np.max(np.abs(a))))):
            raise InvalidAreaError("area function is negative on the requested points")
        return (np.clip(a, 0.0, None) / vol) ** (1.0 / (n - 1))

    if area.samples is not None and np.any(area.samples[1] < 0.0):
        raise InvalidAreaError("sampled area function has negative nodes")
    return w_eval


def _angles(m_theta: int) -> np.ndarray:
    """The m_theta uniform angles 2 pi j / m_theta of the periodic trapezoid rule."""
    if m_theta < 8 or m_theta % 2 != 0:
        raise DomainError(f"m_theta must be even and at least 8, got {m_theta}")
    return 2.0 * math.pi * np.arange(m_theta) / m_theta


def _row_blocks(t: np.ndarray, m_theta: int):
    """Consecutive radii of ``t`` as columns of at most ``_BLOCK // m_theta`` rows, at least one."""
    rows = max(1, _BLOCK // m_theta)
    return (t[i : i + rows, None] for i in range(0, len(t), rows))


def area_from_polar_metric(
    metric: PolarMetric2D, grid: RadialGrid, m_theta: int
) -> AreaFunction:
    """Sphere length A(t) of a 2-D polar metric by periodic trapezoid in theta.

    The density is sampled at ``m_theta`` uniform angles per grid node, a
    block of rows at a time; the result interpolates the node values with a
    shape-preserving cubic.
    """
    theta = _angles(m_theta)
    if abs(grid.radius - metric.radius) > 1e-12 * metric.radius:
        raise DomainError("grid radius must match the metric radius")
    sums = [
        _eval_on(metric.density, rows, theta[None, :]).sum(axis=1)
        for rows in _row_blocks(grid.nodes[1:], m_theta)
    ]
    values = np.concatenate(sums) * (2.0 * math.pi / m_theta)
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
        samples=(nodes.copy(), samples),
    )


def area_of(target, grid: RadialGrid, m_theta: int) -> AreaFunction:
    """Sphere-area function of a 2-D metric, or an area function as it is.

    A metric is symmetrized on ``grid`` with ``m_theta`` angles.
    """
    if isinstance(target, PolarMetric2D):
        return area_from_polar_metric(target, grid, m_theta)
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
    rho = _eval_on(metric.density, tt, theta)
    bad = rho <= 0.0
    if np.any(bad):
        raise InvalidMetricError(
            f"density is not positive at t = {float(np.broadcast_to(tt, rho.shape)[bad][0])}"
        )
    out = _eval_on(metric.density_r, tt, theta) / rho
    return out if out.ndim else float(out)


def _circle_curvature(
    metric: PolarMetric2D, grid: RadialGrid, m_theta: int
) -> tuple[np.ndarray, np.ndarray]:
    """Spread (max - min) and mean of H over ``m_theta`` uniform angles, per interior grid node."""
    theta = _angles(m_theta)
    blocks = _row_blocks(grid.nodes[1:-1], m_theta)
    fields = (mean_curvature_field(metric, rows, theta) for rows in blocks)
    spread, mean = zip(*((np.ptp(h, axis=1), np.mean(h, axis=1)) for h in fields))
    return np.concatenate(spread), np.concatenate(mean)


def radiality_deviation(metric: PolarMetric2D, grid: RadialGrid, m_theta: int) -> float:
    """Worst-case angular spread of the mean curvature over interior nodes.

    Zero (to resolution) means every geodesic circle has radial mean
    curvature, the sharpness condition for the symmetrization bound.
    """
    return float(np.max(_circle_curvature(metric, grid, m_theta)[0]))


def polar_metric_from_warping(warping: Callable, radius: float) -> PolarMetric2D:
    """The 2-D polar metric with theta-independent density rho(r, theta) = w(r)."""
    return PolarMetric2D(radius=radius, density=lambda r, theta: warping(r))


def euclidean_model(dimension: int, radius: float) -> AreaFunction:
    return area_from_warping(dimension, radius, space_form_warping(0.0, radius))


def space_form_model(dimension: int, kappa: float, radius: float) -> AreaFunction:
    return area_from_warping(dimension, radius, space_form_warping(kappa, radius))


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
