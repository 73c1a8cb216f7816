import math

import numpy as np
import pytest

from ballbound import (
    BOUND_BELOW_REFERENCE,
    BOUND_HOLDS,
    EQUALITY_CANDIDATE,
    HYPOTHESIS_FAILS,
    Mesh2D,
    RadialGrid,
    area_from_warping,
    bumped_disc_metric,
    cheng_report,
    eigen_2d_refined,
    equality_criterion,
    euclidean_model,
    monotonicity_check,
    polar_metric_from_warping,
    space_form_model,
    space_form_warping,
)
import ballbound.compare
from ballbound.errors import DomainError

from conftest import J0_SQUARED, counting_metric, metric_suite, wavy_cone_metric


class TestMonotonicityCheck:
    def test_flat_over_hyperbolic_decreases(self, unit_grid):
        flat = area_from_warping(euclidean_model(2, 1.0))
        hyper = area_from_warping(space_form_model(2, -1.0, 1.0))
        ok, profile = monotonicity_check(flat, hyper, unit_grid)
        assert ok
        assert profile[0] == 1.0
        # t / sinh(t) decreases: sign of sinh t - t cosh t is negative (series)
        assert np.all(np.diff(profile) <= 0.0)

    def test_identical_areas_count_as_decreasing(self, unit_grid):
        flat = area_from_warping(euclidean_model(2, 1.0))
        ok, profile = monotonicity_check(flat, flat, unit_grid)
        assert ok
        assert np.max(np.abs(profile - 1.0)) < 1e-14

    def test_hyperbolic_over_flat_increases(self, unit_grid):
        flat = area_from_warping(euclidean_model(2, 1.0))
        hyper = area_from_warping(space_form_model(2, -1.0, 1.0))
        ok, _ = monotonicity_check(hyper, flat, unit_grid)
        assert not ok

    @pytest.mark.parametrize("pair", [(-1.0, 0.0), (0.0, 1.0), (-1.0, 1.0)])
    def test_antisymmetry_between_space_forms(self, pair, unit_grid):
        lo_kappa, hi_kappa = pair
        lo = area_from_warping(space_form_model(2, lo_kappa, 1.0) if lo_kappa else euclidean_model(2, 1.0))
        hi = area_from_warping(space_form_model(2, hi_kappa, 1.0) if hi_kappa else euclidean_model(2, 1.0))
        down, _ = monotonicity_check(hi, lo, unit_grid)
        up, _ = monotonicity_check(lo, hi, unit_grid)
        assert down and not up

    def test_zero_reference_rejected(self, unit_grid):
        from ballbound import AreaFunction

        flat = area_from_warping(euclidean_model(2, 1.0))

        # positive at the construction probes but zero on a band of grid nodes
        def dented(t):
            arr = np.asarray(t, dtype=float)
            out = 2.0 * math.pi * arr
            return np.where((arr > 0.28) & (arr < 0.32), 0.0, out)

        vanishing = AreaFunction(dimension=2, radius=1.0, eval=dented)
        with pytest.raises(DomainError):
            monotonicity_check(flat, vanishing, unit_grid)


class TestChengReport:
    def test_flat_versus_hyperbolic(self, unit_grid):
        report = cheng_report(euclidean_model(2, 1.0), -1.0, unit_grid, 1e-8)
        assert report.verdict == BOUND_HOLDS
        assert report.monotone_ok
        assert report.bound == pytest.approx(J0_SQUARED, abs=1e-3)
        assert report.bound <= report.reference_lambda + report.combined_tolerance

    def test_reflexive_comparison_is_equality(self, unit_grid):
        for kappa in (-1.0, 0.0, 0.5):
            model = (
                euclidean_model(2, 1.0)
                if kappa == 0.0
                else space_form_model(2, kappa, 1.0)
            )
            report = cheng_report(model, kappa, unit_grid, 1e-8)
            assert report.verdict == EQUALITY_CANDIDATE
            assert abs(report.bound - report.reference_lambda) <= report.combined_tolerance

    def test_hypothesis_failure_is_a_verdict(self, unit_grid):
        report = cheng_report(space_form_model(2, -1.0, 1.0), 1.0, unit_grid, 1e-8)
        assert report.verdict == HYPOTHESIS_FAILS
        assert not report.monotone_ok

    def test_bumped_disc_rejects_equality(self):
        grid = RadialGrid.uniform(3.0, 512)
        report = cheng_report(
            bumped_disc_metric(3.0), 0.0, grid, 1e-8, m_theta=64, model_id="bumped"
        )
        assert report.monotone_ok
        assert report.verdict == BOUND_HOLDS
        assert report.radiality > 1e-3
        assert report.bound == pytest.approx(J0_SQUARED / 9.0, abs=1e-6)

    def test_bound_below_the_reference_of_equal_areas(self, unit_grid, monkeypatch):
        shoot = ballbound.compare.shoot_radial_lambda1

        def shoot_high(model, grid, tol):
            result = shoot(model, grid, tol)
            result.lambda1 *= 1.0 + 1e-4
            return result

        monkeypatch.setattr(ballbound.compare, "shoot_radial_lambda1", shoot_high)
        report = cheng_report(euclidean_model(2, 1.0), 0.0, unit_grid, 1e-8)
        assert report.monotone_ok
        assert report.reference_lambda > report.bound + report.combined_tolerance
        assert report.verdict == BOUND_BELOW_REFERENCE
        # flat over hyperbolic areas decrease: a bound below the reference is the theorem's claim
        report = cheng_report(euclidean_model(2, 1.0), -1.0, unit_grid, 1e-8)
        assert report.verdict == BOUND_HOLDS

    def test_general_warping_reference(self, unit_grid):
        # reference W(t) = sinh(t): same as kappa = -1
        reference = lambda t: np.sinh(np.asarray(t, dtype=float))
        via_warping = cheng_report(euclidean_model(2, 1.0), reference, unit_grid, 1e-8)
        via_kappa = cheng_report(euclidean_model(2, 1.0), -1.0, unit_grid, 1e-8)
        assert via_warping.verdict == via_kappa.verdict == BOUND_HOLDS
        assert via_warping.reference_lambda == pytest.approx(
            via_kappa.reference_lambda, rel=1e-9
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_soundness_harness(self):
        """Whenever the monotonicity hypothesis passes, the bound holds."""
        references = (-1.0, 0.0, 1.0)
        for label, metric in metric_suite():
            grid = RadialGrid.uniform(metric.radius, 256)
            for kappa in references:
                if kappa > 0.0 and metric.radius >= math.pi / math.sqrt(kappa):
                    continue
                report = cheng_report(
                    metric, kappa, grid, 1e-8, m_theta=64, model_id=label
                )
                if report.monotone_ok:
                    assert (
                        report.bound
                        <= report.reference_lambda + report.combined_tolerance
                    ), (label, kappa)


class TestEqualityCriterion:
    def test_flat_disc(self, unit_grid):
        flat = polar_metric_from_warping(space_form_warping(0.0, 1.0), 1.0)
        assert equality_criterion(flat, unit_grid, 64, 1e-6)

    def test_hemisphere_density(self):
        radius = math.pi / 2
        grid = RadialGrid.uniform(radius, 512)
        hemi = polar_metric_from_warping(space_form_warping(1.0, radius), radius)
        # h(t) = d/dt log sin t = cot t, matched against the sampled warping
        assert equality_criterion(hemi, grid, 64, 1e-6)

    def test_bumped_disc_fails(self):
        grid = RadialGrid.uniform(3.0, 256)
        assert not equality_criterion(bumped_disc_metric(3.0), grid, 64, 1e-6)

    def test_bumped_disc_inside_flat_region_passes(self):
        grid = RadialGrid.uniform(1.0, 256)
        assert equality_criterion(bumped_disc_metric(1.0), grid, 64, 1e-6)

    @pytest.mark.parametrize("radius,sharp", [(1.0, True), (3.0, False)])
    def test_density_calls_do_not_grow_with_the_grid(self, radius, sharp):
        counts = []
        for intervals in (64, 512):
            metric, calls = counting_metric(bumped_disc_metric(radius))
            grid = RadialGrid.uniform(radius, intervals)
            assert equality_criterion(metric, grid, 64, 1e-6) is sharp
            counts.append(len(calls))
        # the curvature field once; a sharp metric also builds its area once
        assert counts == ([3, 3] if sharp else [2, 2])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_wavy_cone_is_sharp(self, unit_grid):
        # the angular reparametrization is an isometry onto the flat disc
        assert equality_criterion(wavy_cone_metric(1.0), unit_grid, 64, 1e-6)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_equality_implies_matching_eigenvalues(self, unit_grid):
        """Sharp metrics: the 2-D eigenvalue equals the symmetrized bound."""
        from ballbound import area_from_polar_metric, run_until_converged

        for label, metric in metric_suite():
            grid = RadialGrid.uniform(metric.radius, 256)
            if not equality_criterion(metric, grid, 64, 1e-6):
                continue
            area = area_from_polar_metric(metric, grid, 64)
            norm, _, _ = run_until_converged(area, grid, 1e-9, 200)
            fine, estimate, extrapolated = eigen_2d_refined(metric, Mesh2D(32, 32), 1e-9)
            combined = 1e-9 * norm.final + estimate
            assert abs(extrapolated - norm.final) <= 3.0 * combined, label
