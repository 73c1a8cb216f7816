import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import j0, jn_zeros

from ballbound import (
    Mesh2D,
    PolarMetric2D,
    RadialGrid,
    RiemannianModel,
    bumped_disc_metric,
    eigen_2d_polar,
    eigen_2d_refined,
    euclidean_model,
    polar_metric_from_warping,
    run_until_converged,
    shoot_radial_lambda1,
    space_form_model,
    space_form_warping,
    area_from_warping,
)
from ballbound import oracle
from ballbound.errors import ConvergenceError, DomainError
from ballbound.geometry import _bump

from conftest import (
    J0_SQUARED,
    PI_SQUARED,
    metric_suite,
    model_suite,
    operator_defects,
    reference_lambda1,
    reference_rayleigh_quotient,
    run_python,
)


class TestRadialShooting:
    def test_disc(self, fine_unit_grid):
        res = shoot_radial_lambda1(euclidean_model(2, 1.0), fine_unit_grid, 1e-10)
        assert res.lambda1 == pytest.approx(J0_SQUARED, abs=1e-9)
        assert res.residual <= 10.0 * 1e-10

    def test_disc_eigenfunction_is_bessel(self, fine_unit_grid):
        res = shoot_radial_lambda1(euclidean_model(2, 1.0), fine_unit_grid, 1e-10)
        expect = j0(float(jn_zeros(0, 1)[0]) * fine_unit_grid.nodes)
        assert np.max(np.abs(res.eigenfunction - expect)) < 1e-8

    def test_three_ball(self, unit_grid):
        res = shoot_radial_lambda1(euclidean_model(3, 1.0), unit_grid, 1e-10)
        # analytic eigenfunction sin(pi r)/(pi r), eigenvalue pi^2
        assert res.lambda1 == pytest.approx(PI_SQUARED, abs=1e-8)

    def test_hemisphere(self):
        radius = math.pi / 2
        grid = RadialGrid.uniform(radius, 1024)
        model = RiemannianModel(2, radius, space_form_warping(1.0, radius))
        res = shoot_radial_lambda1(model, grid, 1e-10)
        # residual of f = cos t in the radial equation with w = sin t is zero
        assert res.lambda1 == pytest.approx(2.0, abs=1e-8)
        expect = np.cos(grid.nodes)
        assert np.max(np.abs(res.eigenfunction - expect)) < 1e-9

    @pytest.mark.parametrize("label,model", model_suite())
    def test_eigenfunction_shape(self, label, model):
        grid = RadialGrid.uniform(model.radius, 512)
        res = shoot_radial_lambda1(model, grid, 1e-10)
        f = res.eigenfunction
        assert f[0] == 1.0
        assert f[-1] == 0.0
        assert np.all(f[:-1] > 0.0)
        assert np.all(np.diff(f) < 0.0)
        # one-sided derivative at the center vanishes to grid resolution
        assert abs(f[1] - f[0]) / grid.spacing <= res.lambda1 * grid.spacing
        assert res.residual <= 10.0 * 1e-10

    def test_bracket_doubling_reaches_large_eigenvalues(self):
        # strongly negative curvature: lambda1 >= |kappa|/4 = 100 exceeds the
        # first guess 8 j0^2 ~ 46, whose sweep has no zero, so the bracket
        # must double at least once
        grid = RadialGrid.uniform(1.0, 2048)
        model = space_form_model(2, -400.0, 1.0)
        res = shoot_radial_lambda1(model, grid, 1e-8)
        assert res.lambda1 > 4.0 * 2.0 * J0_SQUARED
        assert res.lambda1 > 100.0

    def test_large_hyperbolic_ball_is_bracketed(self):
        # lambda1 >= (n-1)^2/4 = 1 lies far above the Euclidean first guess
        # 12 j0^2 / R^2 ~ 0.007, and lambda1..lambda5 all lie within 0.03 of it
        radius, tol = 100.0, 1e-8
        model = space_form_model(3, -1.0, radius)
        res = shoot_radial_lambda1(model, RadialGrid.uniform(radius, 4096), tol)
        exact = 1.0 + PI_SQUARED / radius**2
        assert abs(res.lambda1 - exact) <= 5.0 * tol * exact + tol

    def test_sweep_budget_when_first_guess_is_above_lambda2(self, fine_unit_grid):
        # the first guess 8 j0^2 ~ 46 exceeds lambda2 = j1^2 ~ 30.5 of the
        # disc, so its sweep has two zeros and the bracket halves toward 0
        res = shoot_radial_lambda1(euclidean_model(2, 1.0), fine_unit_grid, 1e-10)
        assert res.lambda1 == pytest.approx(J0_SQUARED, abs=1e-9)
        assert res.iterations <= 20

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        kappa=st.floats(-4.0, 4.0),
        log_radius=st.floats(math.log(1e-3), math.log(20.0)),
    )
    def test_three_dimensional_space_forms(self, kappa, log_radius):
        radius = math.exp(log_radius)
        assume(kappa <= 0.0 or radius < 0.9 * math.pi / math.sqrt(kappa))
        model = space_form_model(3, kappa, radius)
        res = shoot_radial_lambda1(model, RadialGrid.uniform(radius, 1024), 1e-10)
        exact = PI_SQUARED / radius**2 - kappa
        assert abs(res.lambda1 - exact) <= 1e-7 * exact
        f = res.eigenfunction
        assert np.all(f[:-1] > 0.0) and np.all(np.diff(f) < 0.0)
        assert res.iterations <= 40

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
    def test_rejects_bad_tolerance(self, unit_grid, tol):
        # nan used to skip the bisection and return the bracket midpoint
        with pytest.raises(DomainError):
            shoot_radial_lambda1(euclidean_model(2, 1.0), unit_grid, tol)

    @pytest.mark.parametrize("command", ["oracle", "compare"])
    def test_tiny_radius_terminates(self, command):
        # At lambda ~ 5.8e8 the float spacing exceeds the width 1e-8, so the
        # root step must stop on adjacent floats.
        proc = run_python(
            "-m", "ballbound.cli", command, "--builtin", "euclidean", "--radius", "1e-4"
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        if command == "oracle":
            lam = report["oracle"]["lambda1"]
        else:
            lam = report["comparison"]["reference_lambda"]
        assert lam == pytest.approx(J0_SQUARED / 1e-8, rel=1e-9)

    def test_scaling_with_radius(self):
        grid1 = RadialGrid.uniform(1.0, 512)
        grid2 = RadialGrid.uniform(2.0, 512)
        lam1 = shoot_radial_lambda1(euclidean_model(2, 1.0), grid1, 1e-10).lambda1
        lam2 = shoot_radial_lambda1(euclidean_model(2, 2.0), grid2, 1e-10).lambda1
        assert lam2 == pytest.approx(lam1 / 4.0, rel=1e-8)


class TestEigen2D:
    def test_flat_disc_converges_to_bessel(self):
        flat = polar_metric_from_warping(space_form_warping(0.0, 1.0), 1.0)
        res = eigen_2d_polar(flat, Mesh2D(64, 64), 1e-8)
        assert abs(res.lambda1 - J0_SQUARED) / J0_SQUARED < 0.01
        assert res.residual <= 10.0 * 1e-8

    def test_flat_disc_radius_two(self):
        flat = polar_metric_from_warping(space_form_warping(0.0, 2.0), 2.0)
        res = eigen_2d_polar(flat, Mesh2D(64, 64), 1e-8)
        assert abs(res.lambda1 - J0_SQUARED / 4.0) / (J0_SQUARED / 4.0) < 0.01

    def test_refinement_pair_behaves_second_order(self):
        flat = polar_metric_from_warping(space_form_warping(0.0, 1.0), 1.0)
        fine, estimate, extrapolated = eigen_2d_refined(flat, Mesh2D(32, 32), 1e-9)
        true_err = abs(fine.lambda1 - J0_SQUARED)
        assert 0.3 * true_err <= estimate <= 3.0 * true_err
        assert abs(extrapolated - J0_SQUARED) < 0.1 * true_err

    def test_bumped_disc_sits_strictly_below_flat_value(self):
        fine, estimate, extrapolated = eigen_2d_refined(
            bumped_disc_metric(3.0), Mesh2D(64, 64), 1e-8
        )
        flat_value = J0_SQUARED / 9.0
        assert fine.lambda1 < flat_value
        assert flat_value - fine.lambda1 > estimate

    @pytest.mark.parametrize("label,metric", metric_suite())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_assembly_is_symmetric(self, label, metric):
        # the matrix-free operator against the COO-assembled reference matrix
        mismatch, asymmetry, mass_ok = operator_defects(metric, Mesh2D(24, 24))
        assert mismatch <= 1e-14
        assert asymmetry <= 1e-10
        assert mass_ok

    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.sampled_from(["wavy", "bump"]),
        a=st.floats(0.0, 0.99),
        k=st.integers(1, 6),
        n=st.sampled_from([32, 64]),
    )
    def test_lobpcg_matches_lu_inverse_iteration(self, shape, a, k, n):
        """LOBPCG against the reference matrix with sparse-LU inverse iteration."""
        if shape == "wavy":
            radius = 1.0

            def density(r, th):
                return np.asarray(r) * (1.0 + a * np.sin(k * np.asarray(th)))
        else:
            radius = 3.0

            def density(r, th):
                return np.asarray(r) + a * _bump(r) * np.cos(k * np.asarray(th))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            metric = PolarMetric2D(radius=radius, density=density)
        res = eigen_2d_polar(metric, Mesh2D(n, n), 1e-9)
        assert res.lambda1 == pytest.approx(reference_lambda1(metric, Mesh2D(n, n), 1e-9), rel=1e-10)
        assert np.all(res.eigenfunction > 0.0)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_LOBPCG_ITERATIONS", 3)
        with pytest.raises(ConvergenceError):
            eigen_2d_polar(bumped_disc_metric(3.0), Mesh2D(32, 32), 1e-8)

    @pytest.mark.parametrize("label,metric", metric_suite())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_symmetrized_bound_dominates_2d_eigenvalue(self, label, metric):
        """Desk-scale main comparison: lambda1(g) <= bound of the symmetrized model."""
        from ballbound import area_from_polar_metric

        grid = RadialGrid.uniform(metric.radius, 512)
        area = area_from_polar_metric(metric, grid, 64)
        norm, _, _ = run_until_converged(area, grid, 1e-9, 200)
        fine, estimate, extrapolated = eigen_2d_refined(metric, Mesh2D(32, 32), 1e-9)
        combined = 1e-9 * norm.final + estimate
        assert extrapolated <= norm.final + 3.0 * combined

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_rejects_bad_tolerance(self, tol):
        flat = polar_metric_from_warping(space_form_warping(0.0, 1.0), 1.0)
        with pytest.raises(DomainError):
            eigen_2d_polar(flat, Mesh2D(16, 16), tol)

    def test_mesh_validation(self):
        with pytest.raises(DomainError):
            Mesh2D(8, 64)
        with pytest.raises(DomainError):
            Mesh2D(64, 15)


class TestRayleighQuotient:
    def test_quotient_dominates_eigenvalue(self, unit_grid):
        flat = polar_metric_from_warping(space_form_warping(0.0, 1.0), 1.0)
        fine, estimate, extrapolated = eigen_2d_refined(flat, Mesh2D(32, 32), 1e-9)
        for profile in (
            1.0 - unit_grid.nodes**2,
            np.cos(0.5 * math.pi * unit_grid.nodes),
            (1.0 - unit_grid.nodes**2) ** 2,
        ):
            value = reference_rayleigh_quotient(flat, unit_grid, profile, 64)
            assert value >= extrapolated - 3.0 * estimate

    def test_model_eigenfunction_witnesses_bound_transfer(self):
        """The symmetrized model's eigenfunction gives the same quotient on the
        bumped metric because the two share every sphere area."""
        radius = 3.0
        grid = RadialGrid.uniform(radius, 512)
        model = euclidean_model(2, radius)
        profile = shoot_radial_lambda1(model, grid, 1e-10).eigenfunction
        quotient = reference_rayleigh_quotient(bumped_disc_metric(radius), grid, profile, 128)
        norm, _, _ = run_until_converged(area_from_warping(model), grid, 1e-10, 200)
        assert quotient == pytest.approx(norm.final, rel=1e-5)

