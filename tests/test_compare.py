import math

import numpy as np
import pytest

import ballbound.compare
from ballbound.compare import (
    BOUND_BELOW_REFERENCE,
    BOUND_HOLDS,
    EQUALITY_CANDIDATE,
    HYPOTHESIS_FAILS,
    cheng_report,
    equality_criterion,
    monotonicity_check,
)
from ballbound.errors import DomainError, InvalidAreaError, InvalidMetricError
from ballbound.geometry import (
    PolarMetric2D,
    RadialGrid,
    area_from_polar_metric,
    area_from_warping,
    bumped_disc_metric,
    euclidean_model,
    space_form_model,
    space_form_warping,
)
from ballbound.moments import run_until_converged
from ballbound.oracle import Mesh2D, eigen_2d_refined, shoot_radial_lambda1

from conftest import (
    J0_SQUARED,
    counting_metric,
    metric_suite,
    polar_metric_from_warping,
    wavy_cone_metric,
)


class TestMonotonicityCheck:
    def test_flat_over_hyperbolic_decreases(self, unit_grid):
        flat = euclidean_model(2, 1.0)
        hyper = space_form_model(2, -1.0, 1.0)
        ok, profile = monotonicity_check(flat, hyper, unit_grid)
        assert ok
        assert profile[0] == 1.0
        # t / sinh(t) decreases: sign of sinh t - t cosh t is negative (series)
        assert np.all(np.diff(profile) <= 0.0)

    def test_identical_areas_count_as_decreasing(self, unit_grid):
        flat = euclidean_model(2, 1.0)
        ok, profile = monotonicity_check(flat, flat, unit_grid)
        assert ok
        assert np.max(np.abs(profile - 1.0)) < 1e-14

    def test_hyperbolic_over_flat_increases(self, unit_grid):
        flat = euclidean_model(2, 1.0)
        hyper = space_form_model(2, -1.0, 1.0)
        ok, _ = monotonicity_check(hyper, flat, unit_grid)
        assert not ok

    @pytest.mark.parametrize("pair", [(-1.0, 0.0), (0.0, 1.0), (-1.0, 1.0)])
    def test_antisymmetry_between_space_forms(self, pair, unit_grid):
        lo_kappa, hi_kappa = pair
        lo = space_form_model(2, lo_kappa, 1.0) if lo_kappa else euclidean_model(2, 1.0)
        hi = space_form_model(2, hi_kappa, 1.0) if hi_kappa else euclidean_model(2, 1.0)
        down, _ = monotonicity_check(hi, lo, unit_grid)
        up, _ = monotonicity_check(lo, hi, unit_grid)
        assert down and not up

    def test_zero_reference_rejected(self, unit_grid):
        from ballbound.geometry import AreaFunction

        flat = euclidean_model(2, 1.0)

        # positive at the construction probes but zero on a band of grid nodes
        def dented(t):
            arr = np.asarray(t, dtype=float)
            out = 2.0 * math.pi * arr
            return np.where((arr > 0.28) & (arr < 0.32), 0.0, out)

        vanishing = AreaFunction(dimension=2, radius=1.0, eval=dented)
        with pytest.raises(InvalidAreaError, match="A must be positive on"):
            monotonicity_check(flat, vanishing, unit_grid)


class TestChengReport:
    def test_flat_versus_hyperbolic(self, unit_grid):
        hyperbolic = space_form_model(2, -1.0, 1.0)
        report, _ = cheng_report(euclidean_model(2, 1.0), hyperbolic, unit_grid, 1e-8)
        assert report["verdict"] == BOUND_HOLDS
        assert report["monotone_ok"]
        assert report["bound"] == pytest.approx(J0_SQUARED, abs=1e-3)
        assert report["bound"] <= report["reference_lambda"] + report["combined_tolerance"]

    def test_reflexive_comparison_is_equality(self, unit_grid):
        for kappa in (-1.0, 0.0, 0.5):
            model = space_form_model(2, kappa, 1.0)
            report, _ = cheng_report(model, model, unit_grid, 1e-8)
            assert report["verdict"] == EQUALITY_CANDIDATE
            assert abs(report["bound"] - report["reference_lambda"]) <= report["combined_tolerance"]

    def test_hypothesis_failure_is_a_verdict(self, unit_grid):
        spherical = space_form_model(2, 1.0, 1.0)
        report, _ = cheng_report(space_form_model(2, -1.0, 1.0), spherical, unit_grid, 1e-8)
        assert report["verdict"] == HYPOTHESIS_FAILS
        assert not report["monotone_ok"]

    def test_bumped_disc_rejects_equality(self):
        grid = RadialGrid(3.0, 512)
        report, _ = cheng_report(
            bumped_disc_metric(3.0), euclidean_model(2, 3.0), grid, 1e-8, m_theta=64
        )
        assert report["monotone_ok"]
        assert report["verdict"] == BOUND_HOLDS
        assert report["radiality"] > 1e-3
        assert report["bound"] == pytest.approx(J0_SQUARED / 9.0, abs=1e-6)

    def test_bound_below_the_reference_of_equal_areas(self, unit_grid, monkeypatch):
        shoot = ballbound.compare.shoot_radial_lambda1

        def shoot_high(model, grid, tol):
            result = shoot(model, grid, tol)
            return result._replace(lambda1=result.lambda1 * (1.0 + 1e-4))

        monkeypatch.setattr(ballbound.compare, "shoot_radial_lambda1", shoot_high)
        report, _ = cheng_report(euclidean_model(2, 1.0), euclidean_model(2, 1.0), unit_grid, 1e-8)
        assert report["monotone_ok"]
        assert report["reference_lambda"] > report["bound"] + report["combined_tolerance"]
        assert report["verdict"] == BOUND_BELOW_REFERENCE
        # flat over hyperbolic areas decrease: a bound below the reference is the theorem's claim
        hyperbolic = space_form_model(2, -1.0, 1.0)
        report, _ = cheng_report(euclidean_model(2, 1.0), hyperbolic, unit_grid, 1e-8)
        assert report["verdict"] == BOUND_HOLDS

    def test_general_warping_reference(self, unit_grid):
        # reference W(t) = sinh(t): same as kappa = -1
        reference = area_from_warping(2, 1.0, lambda t: np.sinh(np.asarray(t, dtype=float)))
        via_warping, _ = cheng_report(euclidean_model(2, 1.0), reference, unit_grid, 1e-8)
        hyperbolic = space_form_model(2, -1.0, 1.0)
        via_kappa, _ = cheng_report(euclidean_model(2, 1.0), hyperbolic, unit_grid, 1e-8)
        assert via_warping["verdict"] == via_kappa["verdict"] == BOUND_HOLDS
        assert via_warping["reference_lambda"] == pytest.approx(
            via_kappa["reference_lambda"], rel=1e-9
        )

    def test_reference_of_another_dimension_is_rejected(self, unit_grid):
        # the area ratio of a 2-ball and a 3-ball model compares nothing
        with pytest.raises(DomainError, match="reference dimension 3 differs from the model's 2"):
            cheng_report(euclidean_model(2, 1.0), euclidean_model(3, 1.0), unit_grid)

    def test_soundness_harness(self):
        """Whenever the monotonicity hypothesis passes, the bound holds."""
        references = (-1.0, 0.0, 1.0)
        for label, metric in metric_suite():
            grid = RadialGrid(metric.radius, 256)
            for kappa in references:
                if kappa > 0.0 and metric.radius >= math.pi / math.sqrt(kappa):
                    continue
                reference = space_form_model(2, kappa, metric.radius)
                report, _ = cheng_report(metric, reference, grid, 1e-8, m_theta=64)
                if report["monotone_ok"]:
                    assert (
                        report["bound"]
                        <= report["reference_lambda"] + report["combined_tolerance"]
                    ), (label, kappa)


class TestGridRadius:
    @pytest.mark.parametrize(
        "solve",
        [
            run_until_converged,
            shoot_radial_lambda1,
            # a reference of the area's own radius, so that the grid check fires
            lambda area, grid: cheng_report(area, space_form_model(3, 0.0, area.radius), grid),
        ],
        ids=["hierarchy", "shooting", "cheng-report"],
    )
    def test_grid_of_another_radius_is_rejected(self, solve):
        # both radial solvers used to return pi^2/4 - 1 here, the eigenvalue of
        # the radius-2 ball, for the unit ball of curvature 1
        with pytest.raises(DomainError, match="grid radius must match the area radius"):
            solve(space_form_model(3, 1.0, 1.0), RadialGrid(2.0, 512))


def is_sharp(metric, grid):
    """The equality criterion of ``metric`` at 64 angles and the CLI's default tolerance 1e-8."""
    return equality_criterion(metric, grid, 64, 1e-8)[1]


class TestEqualityCriterion:
    def test_flat_disc(self, unit_grid):
        flat = polar_metric_from_warping(space_form_warping(0.0, 1.0), 1.0)
        assert is_sharp(flat, unit_grid)

    def test_hemisphere_density(self):
        radius = math.pi / 2
        grid = RadialGrid(radius, 512)
        hemi = polar_metric_from_warping(space_form_warping(1.0, radius), radius)
        # h(t) = d/dt log sin t = cot t, matched against the sampled warping
        assert is_sharp(hemi, grid)

    def test_bumped_disc_fails(self):
        grid = RadialGrid(3.0, 256)
        assert not is_sharp(bumped_disc_metric(3.0), grid)

    def test_bumped_disc_inside_flat_region_passes(self):
        grid = RadialGrid(1.0, 256)
        assert is_sharp(bumped_disc_metric(1.0), grid)

    @pytest.mark.parametrize("radius,sharp", [(1.0, True), (3.0, False)])
    def test_density_calls_do_not_grow_with_the_grid(self, radius, sharp):
        counts = []
        for intervals in (64, 512):
            metric, calls = counting_metric(bumped_disc_metric(radius))
            grid = RadialGrid(radius, intervals)
            assert equality_criterion(metric, grid, 64, 1e-6)[1] is sharp
            counts.append(len(calls))
        # the density and its radial derivative, each on one block of rows
        assert counts == [2, 2]

    def test_non_finite_curvature_is_rejected_not_sharp(self, unit_grid):
        # NaN compares false against every tolerance, so it used to read as sharp
        metric = PolarMetric2D(
            radius=1.0,
            density=lambda r, th: np.asarray(r, dtype=float) + 0.0 * np.asarray(th),
            density_r=lambda r, th: np.where(np.asarray(r) > 0.5, np.nan, 1.0) + 0.0 * np.asarray(th),
        )
        with pytest.raises(InvalidMetricError, match="mean curvature is not finite at t = 0.5"):
            is_sharp(metric, unit_grid)

    def test_wavy_cone_is_sharp(self, unit_grid):
        # the angular reparametrization is an isometry onto the flat disc
        assert is_sharp(wavy_cone_metric(1.0), unit_grid)

    def test_equality_implies_matching_eigenvalues(self, unit_grid):
        """Sharp metrics: the 2-D eigenvalue equals the symmetrized bound."""
        for label, metric in metric_suite():
            grid = RadialGrid(metric.radius, 256)
            area = area_from_polar_metric(metric, grid, 64)
            if not equality_criterion(metric, grid, 64, 1e-6)[1]:
                continue
            norm, _, _ = run_until_converged(area, grid, 1e-9, 200)
            fine, estimate, extrapolated = eigen_2d_refined(metric, Mesh2D(32, 32), 1e-9)
            combined = 1e-9 * norm.final + estimate
            assert abs(extrapolated - norm.final) <= 3.0 * combined, label


# radial profiles f with f'''(0) != 0: near the centre rho ~ t, where the old
# cross-check of H's angular mean against A'/A compared two derivative rules
# that differ by up to 1.7e-7 and called these round metrics not sharp
RADIAL_PROFILES = {
    "sin": np.sin,
    "sinh": np.sinh,
    "cubic": lambda r: r + 0.3 * r**3,
    "tan": np.tan,
}


class TestSeparableEqualityClass:
    """rho = f(r) g(theta) has H = f'/f on every circle: radial, so sharp at the
    CLI's default tolerance, on the grid and angles that ``compare`` uses."""

    @pytest.mark.parametrize("name", sorted(RADIAL_PROFILES))
    @pytest.mark.parametrize(
        "a,k,phi,radius",
        [(0.0, 0, 0.0, 0.59), (0.3, 2, 0.7, 1.38), (0.45, 5, 2.1, 0.8)],
        ids=["theta-free", "k2", "k5"],
    )
    def test_separable_density_is_sharp(self, name, a, k, phi, radius):
        f = RADIAL_PROFILES[name]
        metric = PolarMetric2D(
            radius=radius, density=lambda r, th: f(r) * (1.0 + a * np.cos(k * th + phi))
        )
        radiality, sharp = equality_criterion(metric, RadialGrid(radius, 4096), 256, 1e-8)
        assert radiality <= 1e-9 and sharp

    @pytest.mark.parametrize(
        "name,a,k,phi,radius", [("sin", 0.3, 3, 0.4, 1.1), ("cubic", 0.2, 2, 1.3, 0.9)]
    )
    def test_non_separable_density_is_not_sharp(self, name, a, k, phi, radius):
        f = RADIAL_PROFILES[name]
        metric = PolarMetric2D(
            radius=radius, density=lambda r, th: f(r) * (1.0 + a * r**2 * np.cos(k * th + phi))
        )
        radiality, sharp = equality_criterion(metric, RadialGrid(radius, 4096), 256, 1e-8)
        assert radiality > 1e-3 and not sharp
