import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import jn_zeros

from ballbound.errors import DomainError, InvalidAreaError, PrecisionError
from ballbound.geometry import (
    AreaFunction,
    RadialGrid,
    area_from_warping,
    euclidean_model,
    space_form_warping,
)
from ballbound.moments import hierarchy, run_until_converged
from ballbound.oracle import shoot_radial_lambda1

from conftest import J0_SQUARED, PI_SQUARED, model_suite


def disc_area(radius=1.0):
    return euclidean_model(2, radius)


def first_levels(area, grid, count):
    """The (level, center, mass, norm2) tuples of levels 0 .. count - 1."""
    return list(itertools.islice(hierarchy(area, grid), count))


class TestSymbolicLevels:
    """Hand-integrated levels for A = 2 pi t on [0, 1]."""

    def test_level_zero_is_one(self, unit_grid):
        level, center, _, _ = first_levels(disc_area(), unit_grid, 1)[0]
        assert np.all(level == 1.0)
        assert center == 1.0

    def test_first_level_quarter_parabola(self, unit_grid):
        # T_1(t) = int_t^1 (s/2) ds = (1 - t^2)/4
        level, center, _, _ = first_levels(disc_area(), unit_grid, 2)[1]
        t = unit_grid.nodes
        level = center * level
        assert np.max(np.abs(level - (1.0 - t**2) / 4.0)) < 1e-8

    def test_second_level_center_value(self, unit_grid):
        # T_2(t) = (3 - 4 t^2 + t^4)/64, so T_2(0) = 3/64
        _, (_, c1, _, _), (level, c2, _, _) = first_levels(disc_area(), unit_grid, 3)
        assert c1 * c2 == pytest.approx(3.0 / 64.0, abs=1e-8)
        t = unit_grid.nodes
        level = c1 * c2 * level
        assert np.max(np.abs(level - (3.0 - 4.0 * t**2 + t**4) / 64.0)) < 1e-8

    def test_center_ratios(self, unit_grid):
        # T_0(0) / T_1(0) = 1 / (1/4) and T_1(0) / T_2(0) = (1/4) / (3/64)
        _, center, _ = run_until_converged(disc_area(), unit_grid, 1e-14, 2)
        assert center.ks == (1, 2)
        assert center.values[0] == pytest.approx(4.0, abs=1e-8)
        assert center.values[1] == pytest.approx(16.0 / 3.0, abs=1e-8)

    def test_mass_ratio_first_level(self, unit_grid):
        # int 2 pi t dt / int 2 pi t (1-t^2)/4 dt = pi / (pi/8) = 8
        _, _, mass = run_until_converged(disc_area(), unit_grid, 1e-14, 2)
        assert mass.ks[0] == 1
        assert mass.values[0] == pytest.approx(8.0, abs=1e-8)


class TestLevelShape:
    @pytest.mark.parametrize("label,model", model_suite())
    def test_positivity_and_monotonicity(self, label, model):
        grid = RadialGrid(model.radius, 128)
        for level, _, _, _ in first_levels(model, grid, 7)[1:]:
            assert level[0] == 1.0
            assert level[-1] == 0.0
            assert np.all(level[:-1] > 0.0)
            assert np.all(np.diff(level) < 0.0)


class TestConvergedEstimates:
    def test_disc_reaches_bessel_value(self, fine_unit_grid):
        norm, center, mass = run_until_converged(disc_area(), fine_unit_grid, 1e-8, 200)
        for series in (norm, center, mass):
            assert series.converged
            assert series.final == pytest.approx(J0_SQUARED, abs=1e-6)

    def test_common_limit_pairwise(self, unit_grid):
        norm, center, mass = run_until_converged(disc_area(), unit_grid, 1e-6, 200)
        finals = [norm.final, center.final, mass.final]
        for a in finals:
            for b in finals:
                assert abs(a - b) <= 5e-6 * max(finals)

    def test_series_values_positive_and_cauchy_at_stop(self, unit_grid):
        for series in run_until_converged(disc_area(), unit_grid, 1e-8, 200):
            values = series.values
            assert all(v > 0.0 for v in values)
            assert series.converged
            assert abs(values[-1] - values[-2]) <= 1e-8 * values[-1]

    def test_three_ball_reaches_pi_squared(self, unit_grid):
        area = euclidean_model(3, 1.0)
        norm, center, mass = run_until_converged(area, unit_grid, 1e-8, 200)
        assert norm.final == pytest.approx(PI_SQUARED, rel=1e-6)

    @pytest.mark.parametrize("label,model", model_suite())
    def test_upper_bound_matches_radial_oracle(self, label, model):
        grid = RadialGrid(model.radius, 512)
        norm, center, mass = run_until_converged(model, grid, 1e-9, 200)
        oracle = shoot_radial_lambda1(model, grid, 1e-10)
        assert abs(norm.final - oracle.lambda1) <= 1e-3 * oracle.lambda1

    @pytest.mark.parametrize("dimension", [20, 24])
    def test_high_dimension_norm_ratio(self, dimension):
        # the eigenfunction falls far below its centre value before the rim; each
        # level is summed from the rim, so its tail keeps its relative digits
        norm, _, _ = run_until_converged(
            euclidean_model(dimension, 1.0), RadialGrid(1.0, 4096), 1e-8, 200
        )
        exact = float(jn_zeros(dimension // 2 - 1, 1)[0] ** 2)
        assert norm.final == pytest.approx(exact, rel=1e-11, abs=0.0)


class TestScaling:
    def test_dilation_invariance(self):
        finals = {}
        for radius in (0.5, 1.0, 2.0, 4.0):
            grid = RadialGrid(radius, 512)
            area = euclidean_model(2, radius)
            norm, _, _ = run_until_converged(area, grid, 1e-10, 200)
            finals[radius] = norm.final * radius**2
        base = finals[1.0]
        for value in finals.values():
            assert abs(value - base) <= 1e-6 * base

    def test_doubling_radius_quarters_bound(self):
        grid1 = RadialGrid(1.0, 1024)
        grid2 = RadialGrid(2.0, 1024)
        b1 = run_until_converged(disc_area(), grid1, 1e-8, 200)[0].final
        b2 = run_until_converged(disc_area(2.0), grid2, 1e-8, 200)[0].final
        assert abs(b2 - b1 / 4.0) <= 1e-6 * b2


class TestGridRefinement:
    def test_fourth_order_decay(self):
        radius = math.pi / 2
        area = area_from_warping(2, radius, space_form_warping(1.0, radius))
        finals = {"norm": [], "center": [], "mass": []}
        for intervals in (32, 64, 128):
            grid = RadialGrid(radius, intervals)
            norm, center, mass = run_until_converged(area, grid, 1e-12, 100)
            finals["norm"].append(norm.final)
            finals["center"].append(center.final)
            finals["mass"].append(mass.final)
        for kind, values in finals.items():
            d_coarse = abs(values[0] - values[1])
            d_fine = abs(values[1] - values[2])
            assert d_coarse > 0.0, kind
            # composite rule is 4th order: halving h shrinks the change ~16x
            assert d_fine <= d_coarse / 10.0, kind


class TestStoppingAndErrors:
    def test_unconverged_flag(self, unit_grid):
        norm, center, mass = run_until_converged(disc_area(), unit_grid, 1e-14, 2)
        assert not norm.converged and not center.converged and not mass.converged
        assert len(center.values) == 2

    def test_levels_computed_on_demand(self, unit_grid, monkeypatch):
        # each level costs two cumulative integrals; none is built past the last asked for
        calls = []
        cumulative = RadialGrid.cumulative

        def counting(grid, y):
            calls.append(y.size)
            return cumulative(grid, y)

        monkeypatch.setattr(RadialGrid, "cumulative", counting)
        norm, _, _ = run_until_converged(disc_area(), unit_grid, 1e-14, 5)
        assert not norm.converged and len(calls) == 2 * 5
        calls.clear()
        assert len(first_levels(disc_area(), unit_grid, 4)) == 4 and len(calls) == 2 * 3

    def test_overflow_raises_without_a_numpy_warning(self):
        # read outside any np.errstate: the generator sets its own around its numpy work
        levels = hierarchy(euclidean_model(2, 1e160), RadialGrid(1e160, 64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionError, match="the area integral overflows"):
                next(levels)

    def test_error_state_does_not_leak_into_the_reader(self, unit_grid):
        before = np.geterr()
        # checked while the generator is suspended at each of its first three yields
        for _ in itertools.islice(hierarchy(disc_area(), unit_grid), 3):
            assert np.geterr() == before

    def test_rate_diagnostic_is_reported(self, unit_grid):
        _, center, _ = run_until_converged(disc_area(), unit_grid, 1e-10, 200)
        # disc ratio sequences contract roughly like lambda1/lambda2 ~ 0.19
        assert center.rate is not None
        assert 0.05 < center.rate < 0.5

    def test_no_rate_from_differences_at_rounding(self):
        # the CLI's default grid and tol: the norm ratio settles to within 6 and
        # 8 ulps, under the sqrt(4096) = 64 ulp floor, while the others still run
        norm, center, mass = run_until_converged(disc_area(), RadialGrid(1.0, 4096))
        assert norm.converged
        assert norm.rate is None
        assert 0.15 < center.rate < 0.25
        assert 0.15 < mass.rate < 0.25

    def test_small_grid_rejected(self):
        # the grid's own minimum of 8 intervals is the only one; the hierarchy runs on it
        with pytest.raises(DomainError, match="at least 8 intervals"):
            RadialGrid(1.0, 7)
        norm, _, _ = run_until_converged(disc_area(), RadialGrid(1.0, 8), 1e-8, 200)
        assert norm.converged
        assert J0_SQUARED <= norm.final <= (1.0 + 1e-3) * J0_SQUARED

    def test_nonpositive_area_rejected(self, unit_grid):
        # positive at the construction probes but negative on a band of nodes
        def dented(t):
            arr = np.asarray(t, dtype=float)
            out = 2.0 * np.pi * arr
            return np.where((arr > 0.28) & (arr < 0.32), -1.0, out)

        bad = AreaFunction(dimension=2, radius=1.0, eval=dented)
        with pytest.raises(InvalidAreaError):
            first_levels(bad, unit_grid, 2)

    def test_bad_arguments(self, unit_grid):
        with pytest.raises(DomainError):
            run_until_converged(disc_area(), unit_grid, -1.0, 10)
        # inf would stop at the first comparison with a wrong "converged" value
        for tol in (math.nan, math.inf):
            with pytest.raises(DomainError):
                run_until_converged(disc_area(), unit_grid, tol, 10)
        with pytest.raises(DomainError):
            run_until_converged(disc_area(), unit_grid, 1e-8, 1)
