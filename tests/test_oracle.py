import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import j0, jn_zeros

from ballbound import oracle
from ballbound.errors import ConvergenceError, DomainError, InvalidAreaError, PrecisionError
from ballbound.geometry import (
    AreaFunction,
    PolarMetric2D,
    RadialGrid,
    _bump,
    area_from_warping,
    bumped_disc_metric,
    euclidean_model,
    space_form_model,
    space_form_warping,
)
from ballbound.moments import run_until_converged
from ballbound.oracle import Mesh2D, eigen_2d_polar, eigen_2d_refined, shoot_radial_lambda1

from conftest import (
    J0_SQUARED,
    PI_SQUARED,
    counting_metric,
    metric_suite,
    model_suite,
    operator_defects,
    polar_metric_from_warping,
    reference_lambda1,
    reference_rayleigh_quotient,
    reference_sweep,
    run_python,
    wavy_cone_metric,
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
        grid = RadialGrid(radius, 1024)
        model = area_from_warping(2, radius, space_form_warping(1.0, radius))
        res = shoot_radial_lambda1(model, grid, 1e-10)
        # residual of f = cos t in the radial equation with w = sin t is zero
        assert res.lambda1 == pytest.approx(2.0, abs=1e-8)
        expect = np.cos(grid.nodes)
        assert np.max(np.abs(res.eigenfunction - expect)) < 1e-9

    @pytest.mark.parametrize("label,model", model_suite())
    def test_eigenfunction_shape(self, label, model):
        grid = RadialGrid(model.radius, 512)
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
        grid = RadialGrid(1.0, 2048)
        model = space_form_model(2, -400.0, 1.0)
        res = shoot_radial_lambda1(model, grid, 1e-8)
        assert res.lambda1 > 4.0 * 2.0 * J0_SQUARED
        assert res.lambda1 > 100.0

    def test_large_hyperbolic_ball_is_bracketed(self):
        # lambda1 >= (n-1)^2/4 = 1 lies far above the Euclidean first guess
        # 12 j0^2 / R^2 ~ 0.007, and lambda1..lambda5 all lie within 0.03 of it
        radius, tol = 100.0, 1e-8
        model = space_form_model(3, -1.0, radius)
        res = shoot_radial_lambda1(model, RadialGrid(radius, 4096), tol)
        exact = 1.0 + PI_SQUARED / radius**2
        assert abs(res.lambda1 - exact) <= 5.0 * tol * exact + tol

    @pytest.mark.parametrize("radius", [177.3, 177.5])
    def test_lambda_times_area_outside_the_float_range(self, radius):
        # lambda1 ~ 4.0003, but A(R) ~ 8e307: from lambda ~ 2.5 (1.1 at 177.5)
        # the sweep is not finite, which once read as a Sturm count
        model, grid = space_form_model(3, -4.0, radius), RadialGrid(radius, 4096)
        with pytest.raises(PrecisionError, match=r"^lambda A\(t\) leaves the float range"):
            shoot_radial_lambda1(model, grid, 1e-8)

    def test_lambda_times_area_inside_the_float_range(self):
        res = shoot_radial_lambda1(space_form_model(3, -4.0, 177.0), RadialGrid(177.0, 4096), 1e-8)
        assert (res.lambda1, res.iterations) == (4.000318748862136, 31)

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
        res = shoot_radial_lambda1(model, RadialGrid(radius, 1024), 1e-10)
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

    def test_zero_area_at_a_step_midpoint(self, unit_grid):
        # the area's probes pass, but the sweep divides by A at every node and
        # midpoint, so it checks its own samples in radial order: zeros from
        # the first node on read as an underflow, a zero after a positive
        # sample (the first midpoint's included) as a bad area
        h = unit_grid.spacing

        def area_zero_at(*zeros):
            def evaluate(t):
                arr = np.asarray(t, dtype=float)
                return np.where(np.isin(arr, zeros), 0.0, 2.0 * math.pi * arr)

            return AreaFunction(dimension=2, radius=1.0, eval=evaluate)

        first_node = unit_grid.nodes[1]
        first_mid = first_node + 0.5 * h
        with pytest.raises(PrecisionError, match=f"A\\(t\\) underflows to 0 at t = {first_node:g}"):
            shoot_radial_lambda1(area_zero_at(first_node, first_mid), unit_grid, 1e-10)
        for zeros in [(first_mid,), (unit_grid.nodes[200] + 0.5 * h,)]:
            with pytest.raises(InvalidAreaError, match="A must be positive on"):
                shoot_radial_lambda1(area_zero_at(*zeros), unit_grid, 1e-10)

    def test_scaling_with_radius(self):
        grid1 = RadialGrid(1.0, 512)
        grid2 = RadialGrid(2.0, 512)
        lam1 = shoot_radial_lambda1(euclidean_model(2, 1.0), grid1, 1e-10).lambda1
        lam2 = shoot_radial_lambda1(euclidean_model(2, 2.0), grid2, 1e-10).lambda1
        assert lam2 == pytest.approx(lam1 / 4.0, rel=1e-8)


# (dimension, kappa, radius) of the balls the sweep is checked on; the
# spherical ball stops short of radius 20, past its conjugate point
SWEEP_BALLS = [
    (n, kappa, radius)
    for n in (2, 3, 20)
    for kappa in (-1.0, 0.0, 1.0)
    for radius in (1e-4, 1.0, 20.0)
    if kappa <= 0.0 or radius < 20.0
]
# sweeps per solve at tol = 1e-10 / R^2, as counted by the node-by-node float loop
SWEEP_COUNTS = {
    (2, -1.0, 1e-4): 13, (2, -1.0, 1.0): 13, (2, -1.0, 20.0): 15,
    (2, 0.0, 1e-4): 13, (2, 0.0, 1.0): 13, (2, 0.0, 20.0): 13,
    (2, 1.0, 1e-4): 13, (2, 1.0, 1.0): 13,
    (3, -1.0, 1e-4): 14, (3, -1.0, 1.0): 14, (3, -1.0, 20.0): 16,
    (3, 0.0, 1e-4): 14, (3, 0.0, 1.0): 14, (3, 0.0, 20.0): 14,
    (3, 1.0, 1e-4): 14, (3, 1.0, 1.0): 14,
    (20, -1.0, 1e-4): 23, (20, -1.0, 1.0): 15, (20, -1.0, 20.0): 30,
    (20, 0.0, 1e-4): 23, (20, 0.0, 1.0): 23, (20, 0.0, 20.0): 23,
    (20, 1.0, 1e-4): 23, (20, 1.0, 1.0): 23,
}


class TestSweep:
    """The step-matrix sweep against the node-by-node float loop it replaced."""

    @staticmethod
    def solve(n, kappa, radius):
        # the width scales with the ball's eigenvalue, so the root search
        # stops on it before f(R) reaches its rounding noise; at an absolute
        # width below the float spacing of lambda1 (radius 1e-4) the last
        # sweeps read that noise, and their number follows the rounding
        area, grid = space_form_model(n, kappa, radius), RadialGrid(radius, 4096)
        return area, grid, shoot_radial_lambda1(area, grid, 1e-10 / radius**2)

    @pytest.mark.parametrize("n,kappa,radius", SWEEP_BALLS)
    def test_path_matches_the_float_loop(self, n, kappa, radius):
        area, grid, result = self.solve(n, kappa, radius)
        h = grid.spacing
        a_nodes, a_mid = area.eval(grid.nodes[1:]), area.eval(grid.nodes[1:-1] + 0.5 * h)
        for lam in (0.5 * result.lambda1, result.lambda1, 1.5 * result.lambda1):
            path = oracle._sweep(lam, n, h, a_nodes, a_mid)
            _, changes, reference = reference_sweep(lam, n, h, a_nodes.tolist(), a_mid.tolist())
            reference = np.asarray(reference)
            assert np.max(np.abs(path - reference)) <= 1e-12 * np.max(np.abs(reference))
            assert oracle._sign_changes(path) == changes

    @pytest.mark.parametrize("n,kappa,radius", SWEEP_BALLS)
    def test_sweep_count(self, n, kappa, radius):
        assert self.solve(n, kappa, radius)[2].iterations == SWEEP_COUNTS[n, kappa, radius]


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

    def test_refined_pair_is_order_two_richardson(self):
        # one mesh halving of the second-order scheme: the error shrinks 2^2 = 4 times
        flat = polar_metric_from_warping(space_form_warping(0.0, 1.0), 1.0)
        coarse = eigen_2d_polar(flat, Mesh2D(16, 16), 1e-9).lambda1
        fine, estimate, extrapolated = eigen_2d_refined(flat, Mesh2D(16, 16), 1e-9)
        assert estimate == abs(coarse - fine.lambda1) / 3.0
        assert extrapolated == fine.lambda1 + (fine.lambda1 - coarse) / 3.0

    def test_bumped_disc_sits_strictly_below_flat_value(self):
        fine, estimate, extrapolated = eigen_2d_refined(
            bumped_disc_metric(3.0), Mesh2D(64, 64), 1e-8
        )
        flat_value = J0_SQUARED / 9.0
        assert fine.lambda1 < flat_value
        assert flat_value - fine.lambda1 > estimate

    @pytest.mark.parametrize("label,metric", metric_suite())
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

        metric = PolarMetric2D(radius=radius, density=density)
        res = eigen_2d_polar(metric, Mesh2D(n, n), 1e-9)
        assert res.lambda1 == pytest.approx(reference_lambda1(metric, Mesh2D(n, n), 1e-9), rel=1e-10)
        assert np.all(res.eigenfunction > 0.0)

    def test_peak_memory_is_a_few_mesh_vectors(self):
        metric, mesh = bumped_disc_metric(3.0), Mesh2D(256, 256)
        eigen_2d_polar(metric, Mesh2D(16, 16))  # numpy.fft loads on first use, not in the trace
        peak = traced_peak(lambda: eigen_2d_polar(metric, mesh))
        # a mesh vector is 0.5 MiB at 256^2: the masses and two conductance
        # arrays (3 vectors), the 3 x N basis, one image vector and the
        # theta-averaged factors (one vector) hold 8; one apply's flux buffer
        # and numpy's ufunc buffers add 1.4, a peak of 4.7 MiB; a second flux
        # buffer held beside the first reads 10.4 vectors, 5.2 MiB
        assert peak < 4.75 * 2**20

    def test_refined_pair_holds_no_coarse_eigenvector(self):
        metric = bumped_disc_metric(3.0)
        eigen_2d_polar(metric, Mesh2D(16, 16))  # numpy.fft loads on first use, not in the trace
        peak = traced_peak(lambda: eigen_2d_refined(metric, Mesh2D(128, 128)))
        # the 256^2 solve's 4.7 MiB alone; the 128^2 eigenvector (a quarter
        # of a fine vector) held through it reads 5.3 MiB
        assert peak < 4.75 * 2**20

    def test_assembly_holds_one_density_sample_at_a_time(self):
        metric, mesh = bumped_disc_metric(3.0), Mesh2D(256, 256)
        peak = traced_peak(lambda: oracle.build_discrete_laplacian(metric, mesh))
        # two conductance arrays and the masses, 0.5 MiB each at 256^2, plus
        # one density sample: 2.1 MiB; all four samples held at once, 3.5 MiB
        assert peak < 2.5 * 2**20

    def test_impossible_mesh_fails_before_sampling(self):
        # 1e14 masses (800 TB) cannot be allocated: numpy must refuse them before
        # the 1-D ring and face arrays (240 MB here) and any density sample
        metric, calls = counting_metric(bumped_disc_metric(3.0))
        with pytest.raises(MemoryError):
            oracle.build_discrete_laplacian(metric, Mesh2D(10**7, 10**7))
        assert calls == []

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_LOBPCG_ITERATIONS", 3)
        with pytest.raises(ConvergenceError):
            eigen_2d_polar(bumped_disc_metric(3.0), Mesh2D(32, 32), 1e-8)

    @pytest.mark.parametrize("label,metric", metric_suite())
    def test_symmetrized_bound_dominates_2d_eigenvalue(self, label, metric):
        """Desk-scale main comparison: lambda1(g) <= bound of the symmetrized model."""
        from ballbound.geometry import area_from_polar_metric

        grid = RadialGrid(metric.radius, 512)
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


def traced_peak(call) -> int:
    """Bytes that ``call()`` allocates at its peak above what was traced before it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def stacked_apply(stiffness, u):
    """K u as padded, rolled and appended copies: the reference for the buffered apply."""
    rings = u[:-1].reshape(stiffness.angular.shape)
    edge = np.zeros((1, rings.shape[1]))
    padded = np.concatenate([edge + u[-1], rings, edge])
    out_flux = stiffness.radial * (padded[:-1] - padded[1:])
    ang_flux = stiffness.angular * (rings - np.roll(rings, -1, axis=1))
    out = out_flux[1:] - out_flux[:-1] + ang_flux - np.roll(ang_flux, 1, axis=1)
    return np.append(out.ravel(), np.sum(out_flux[0]))


def stacked_averaged_solve(stiffness, r):
    """T^-1 r with a fresh transform array per step: the reference for the buffered solve."""
    n_ring, n_ang = stiffness.angular.shape
    c_rad = np.mean(stiffness.radial, axis=1)
    symbol = 4.0 * np.sin(np.pi * np.arange(n_ang // 2 + 1) / n_ang) ** 2
    pivot = np.full((n_ring + 1, symbol.size), math.inf)
    pivot[0, 0] = c_rad[0]
    c_ang = np.mean(stiffness.angular, axis=1)
    pivot[1:] = (c_rad[:-1] + c_rad[1:])[:, None] + c_ang[:, None] * symbol
    lower = np.zeros_like(pivot)
    for j in range(1, n_ring + 1):
        lower[j] = -c_rad[j - 1] / pivot[j - 1]
        pivot[j] += lower[j] * c_rad[j - 1]
    inv_pivot = 1.0 / pivot
    y = np.zeros(pivot.shape, dtype=complex)
    y[0, 0] = r[-1]
    y[1:] = np.fft.rfft(r[:-1].reshape(n_ring, n_ang), axis=1)
    for j in range(1, n_ring + 1):
        y[j] -= lower[j] * y[j - 1]
    y[-1] *= inv_pivot[-1]
    for j in range(n_ring - 1, -1, -1):
        y[j] = y[j] * inv_pivot[j] - lower[j + 1] * y[j + 1]
    rings = np.fft.irfft(y[1:], n=n_ang, axis=1)
    return np.append(rings.ravel(), y[0, 0].real / n_ang)


class TestMeshOperators:
    """The stiffness apply and the theta-averaged solve write into preallocated
    buffers; they must give the bits of the copying expressions they replace."""

    @pytest.mark.parametrize(
        "metric", [bumped_disc_metric(3.0), wavy_cone_metric(1.0)], ids=["bumped", "wavy-cone"]
    )
    def test_buffered_applies_match_the_copying_ones_to_the_bit(self, metric):
        stiffness, mass = oracle.build_discrete_laplacian(metric, Mesh2D(40, 64))
        solve = stiffness.averaged_solver()
        rng = np.random.default_rng(7)
        buffer = np.empty(mass.size)  # reused across the applies, as LOBPCG reuses its image
        for u in (rng.standard_normal(mass.size), rng.uniform(0.0, 1.0, mass.size)):
            expected = stacked_apply(stiffness, u)
            assert np.array_equal(stiffness.apply(u, np.empty_like(u)), expected)
            assert stiffness.apply(u, buffer) is buffer
            assert np.array_equal(buffer, expected)
            assert np.array_equal(solve(u, np.empty_like(u)), stacked_averaged_solve(stiffness, u))
            in_place = u.copy()
            assert solve(in_place, out=in_place) is in_place
            assert np.array_equal(in_place, solve(u, np.empty_like(u)))


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
        grid = RadialGrid(radius, 512)
        model = euclidean_model(2, radius)
        profile = shoot_radial_lambda1(model, grid, 1e-10).eigenfunction
        quotient = reference_rayleigh_quotient(bumped_disc_metric(radius), grid, profile, 128)
        norm, _, _ = run_until_converged(model, grid, 1e-10, 200)
        assert quotient == pytest.approx(norm.final, rel=1e-5)

