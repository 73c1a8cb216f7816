import math
import tracemalloc

import numpy as np
import pytest

from ballbound import (
    AreaFunction,
    PolarMetric2D,
    RadialGrid,
    area_from_polar_metric,
    area_from_warping,
    bumped_disc_metric,
    euclidean_model,
    mean_curvature_field,
    polar_metric_from_warping,
    radiality_deviation,
    space_form_model,
    space_form_warping,
    unit_sphere_volume,
    warping_from_area,
)
from ballbound.errors import (
    DomainError,
    InvalidAreaError,
    InvalidMetricError,
    PrecisionError,
)
from ballbound.geometry import (
    _BLOCK,
    _angles,
    _circle_curvature,
    _eval_on,
    _row_blocks,
    area_of,
)

from conftest import (
    bump_curvature_oracle,
    counting_metric,
    model_suite,
    suite_warping,
    wavy_cone_metric,
)


class TestEvaluationContract:
    """Callables take arrays, their results broadcast to the input shape, and
    their exceptions propagate."""

    @pytest.mark.parametrize(
        "args",
        [
            (np.linspace(0.0, 1.0, 5),),
            (np.linspace(0.1, 1.0, 5)[:, None], np.zeros(3)),
        ],
        ids=["eval_on", "eval_on2"],
    )
    def test_raising_callable_is_called_once(self, args):
        boom = ValueError("boom")
        calls = []

        def fail(*xs):
            calls.append(xs)
            raise boom

        with pytest.raises(ValueError) as exc:
            _eval_on(fail, *args)
        assert exc.value is boom
        assert len(calls) == 1

    def test_scalar_only_callable_raises(self):
        with pytest.raises(TypeError):
            _eval_on(math.sin, np.linspace(0.0, 1.0, 5))


class TestUnitSphereVolume:
    def test_circle_and_sphere(self):
        assert unit_sphere_volume(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert unit_sphere_volume(3) == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_three_sphere(self):
        # vol(S^3) = 2 pi^2, evaluated independently of the gamma formula
        assert unit_sphere_volume(4) == pytest.approx(19.739208802178716, rel=1e-15)

    def test_rejects_low_dimension(self):
        with pytest.raises(DomainError):
            unit_sphere_volume(1)

    def test_last_finite_dimension_keeps_the_formula(self):
        # Gamma(n/2) is finite up to n = 343
        assert unit_sphere_volume(343) == 2.0 * math.pi ** 171.5 / math.gamma(171.5)

    @pytest.mark.parametrize("n", [344, 400, 10**20])
    def test_overflow_is_a_precision_error(self, n):
        with pytest.raises(PrecisionError, match=f"overflows in dimension {n}"):
            unit_sphere_volume(n)


class TestAreaOf:
    def test_each_target_kind(self):
        grid = RadialGrid(1.0, 64)
        metric = polar_metric_from_warping(space_form_warping(0.0, 1.0), 1.0)
        area = AreaFunction(dimension=2, radius=1.0, eval=lambda t: 2.0 * math.pi * t)
        t = grid.nodes
        assert np.allclose(area_of(metric, grid, 16).eval(t), 2.0 * math.pi * t)
        assert area_of(area, grid, 16) is area

    def test_rejects_other_objects(self):
        with pytest.raises(DomainError, match="no sphere-area function"):
            area_of(1.0, RadialGrid(1.0, 64), 16)


class TestSpaceFormWarping:
    def test_flat_is_identity(self):
        w = space_form_warping(0.0, 5.0)
        t = np.linspace(0.0, 5.0, 7)
        assert np.allclose(w(t), t, atol=0.0)

    def test_hyperbolic_value(self):
        w = space_form_warping(-1.0, 2.0)
        assert float(w(1.0)) == pytest.approx(math.sinh(1.0), rel=1e-15)

    def test_spherical_value(self):
        w = space_form_warping(1.0, 3.0)
        assert float(w(math.pi / 2)) == pytest.approx(1.0, rel=1e-15)

    def test_spherical_radius_cap(self):
        with pytest.raises(DomainError):
            space_form_warping(1.0, math.pi)
        with pytest.raises(DomainError):
            space_form_warping(4.0, math.pi / 2.0)


class TestAreaFromWarping:
    def test_euclidean_circle_length(self):
        area = euclidean_model(2, 1.0)
        t = np.linspace(0.0, 1.0, 9)
        assert np.allclose(_eval_on(area.eval, t), 2.0 * math.pi * t, rtol=1e-15)

    def test_hyperbolic_sphere_area(self):
        area = space_form_model(3, -1.0, 2.0)
        # 4 pi sinh(1)^2, direct evaluation cross-checked by hand
        assert float(_eval_on(area.eval, 1.0)) == pytest.approx(17.355387381771433, rel=1e-12)

    def test_hemisphere_equator(self):
        area = area_from_warping(2, math.pi / 2, space_form_warping(1.0, math.pi / 2))
        assert float(_eval_on(area.eval, math.pi / 2)) == pytest.approx(2.0 * math.pi, rel=1e-15)


class TestWarpingAreaRoundTrip:
    @pytest.mark.parametrize("label,model", model_suite())
    def test_round_trip_on_grid(self, label, model):
        grid = RadialGrid(model.radius, 256)
        back = warping_from_area(model)
        t = grid.nodes[1:]
        expect = _eval_on(suite_warping(label), t)
        got = _eval_on(back, t)
        assert np.max(np.abs(got - expect) / expect) < 1e-12

    def test_closed_form_inversions(self):
        area = AreaFunction(dimension=2, radius=1.0, eval=lambda t: 2.0 * math.pi * np.asarray(t))
        w = warping_from_area(area)
        assert float(_eval_on(w, 0.5)) == pytest.approx(0.5, rel=1e-14)
        area3 = AreaFunction(
            dimension=3, radius=2.0, eval=lambda t: 4.0 * math.pi * np.sinh(np.asarray(t)) ** 2
        )
        w3 = warping_from_area(area3)
        assert float(_eval_on(w3, 1.0)) == pytest.approx(math.sinh(1.0), rel=1e-13)

    def test_sampled_inversion(self):
        grid = RadialGrid(math.pi / 2, 128)
        metric = polar_metric_from_warping(space_form_warping(1.0, math.pi / 2), math.pi / 2)
        area = area_from_polar_metric(metric, grid, 64)
        w = warping_from_area(area)
        # pi/6 falls between grid nodes; the cubic interpolant is ~O(h^4) there
        assert float(_eval_on(w, math.pi / 6)) == pytest.approx(0.5, abs=1e-6)

    def test_negative_area_rejected(self):
        bad = AreaFunction(
            dimension=2,
            radius=1.0,
            eval=lambda t: 2.0 * math.pi * np.asarray(t),
            samples=(np.linspace(0, 1, 9), np.array([0, 1, 2, 3, -4, 5, 6, 7, 8.0])),
        )
        with pytest.raises(InvalidAreaError):
            warping_from_area(bad)


class TestAreaFromPolarMetric:
    def test_bumped_disc_keeps_flat_circles(self):
        grid = RadialGrid(3.0, 512)
        area = area_from_polar_metric(bumped_disc_metric(3.0), grid, 256)
        assert np.max(np.abs(area.samples[1] - 2.0 * math.pi * grid.nodes)) < 1e-10

    def test_theta_independent_density_is_exact(self):
        grid = RadialGrid(1.0, 64)
        metric = polar_metric_from_warping(space_form_warping(0.0, 1.0), 1.0)
        area = area_from_polar_metric(metric, grid, 32)
        assert np.max(np.abs(area.samples[1] - 2.0 * math.pi * grid.nodes)) < 1e-13

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_oscillatory_density_averages_out(self):
        grid = RadialGrid(1.0, 64)
        area = area_from_polar_metric(wavy_cone_metric(1.0), grid, 64)
        # int sin(3 theta) dtheta = 0 over a full period (hand integration)
        assert np.max(np.abs(area.samples[1] - 2.0 * math.pi * grid.nodes)) < 1e-10

    def test_odd_theta_count_rejected(self):
        grid = RadialGrid(1.0, 64)
        metric = polar_metric_from_warping(space_form_warping(0.0, 1.0), 1.0)
        with pytest.raises(DomainError):
            area_from_polar_metric(metric, grid, 33)


class TestMeanCurvature:
    def test_flat_branch_of_bumped_disc(self):
        metric = bumped_disc_metric(3.0)
        for theta in (0.0, 1.0, math.pi, 5.0):
            assert mean_curvature_field(metric, 1.5, theta) == pytest.approx(
                1.0 / 1.5, rel=1e-14
            )

    def test_euclidean_circle(self):
        metric = polar_metric_from_warping(space_form_warping(0.0, 4.0), 4.0)
        assert mean_curvature_field(metric, 2.0, 0.3) == pytest.approx(0.5, rel=1e-14)

    def test_bump_matches_closed_form_and_breaks_radiality(self):
        metric = bumped_disc_metric(3.5)
        h_front = mean_curvature_field(metric, 3.0, 0.0)
        h_back = mean_curvature_field(metric, 3.0, math.pi)
        assert h_front == pytest.approx(bump_curvature_oracle(3.0, 0.0), rel=1e-12)
        assert h_back == pytest.approx(bump_curvature_oracle(3.0, math.pi), rel=1e-12)
        assert abs(h_front - h_back) > 1e-2
        assert h_front > 1.0 / 3.0

    def test_domain_checks(self):
        metric = bumped_disc_metric(3.0)
        with pytest.raises(DomainError):
            mean_curvature_field(metric, 0.0, 0.0)
        with pytest.raises(DomainError):
            mean_curvature_field(metric, 3.0, 0.0)
        with pytest.raises(DomainError, match="got 3.0"):
            mean_curvature_field(metric, np.array([1.0, 3.0])[:, None], np.zeros(4))

    def test_array_radii_match_scalar_calls(self):
        metric = bumped_disc_metric(3.5)
        t = np.array([0.5, 2.5, 3.0])
        theta = np.linspace(0.0, 2.0 * math.pi, 7)
        field = mean_curvature_field(metric, t[:, None], theta)
        assert field.shape == (3, 7)
        for row, ti in zip(field, t):
            assert np.array_equal(row, mean_curvature_field(metric, float(ti), theta))

    def test_space_form_matches_log_derivative(self):
        # w'/w of t, sin t and sinh t, differentiated by hand
        for kappa, radius, log_derivative in (
            (0.0, 1.0, lambda t: 1.0 / t),
            (1.0, math.pi / 2, lambda t: 1.0 / math.tan(t)),
            (-1.0, 2.0, lambda t: 1.0 / math.tanh(t)),
        ):
            metric = polar_metric_from_warping(space_form_warping(kappa, radius), radius)
            for t in (0.2 * radius, 0.5 * radius, 0.9 * radius):
                expect = log_derivative(t)
                assert mean_curvature_field(metric, t, 1.1) == pytest.approx(
                    expect, abs=1e-8
                )


class TestRadialityDeviation:
    def test_rotationally_symmetric_metrics_are_radial(self):
        grid = RadialGrid(1.0, 64)
        flat = polar_metric_from_warping(space_form_warping(0.0, 1.0), 1.0)
        assert radiality_deviation(flat, grid, 32) == 0.0
        gridh = RadialGrid(math.pi / 2, 64)
        hemi = polar_metric_from_warping(space_form_warping(1.0, math.pi / 2), math.pi / 2)
        assert radiality_deviation(hemi, gridh, 32) < 1e-12

    def test_bumped_disc_is_not_radial(self):
        grid = RadialGrid(3.0, 128)
        deviation = radiality_deviation(bumped_disc_metric(3.0), grid, 64)
        assert deviation > 1e-3
        # lower bound from the closed form at the node closest to t = 2.5
        assert deviation >= abs(
            bump_curvature_oracle(2.5, 0.0) - bump_curvature_oracle(2.5, math.pi)
        ) * 0.5

    def test_rotation_invariance(self):
        base = bumped_disc_metric(3.0)
        shift = math.pi / 3.0
        rotated = PolarMetric2D(
            radius=3.0,
            density=lambda r, th: base.density(r, np.asarray(th) + shift),
            density_r=lambda r, th: base.density_r(r, np.asarray(th) + shift),
        )
        grid = RadialGrid(3.0, 128)
        # 192 angles make the pi/3 rotation a permutation of the sample set
        d0 = radiality_deviation(base, grid, 192)
        d1 = radiality_deviation(rotated, grid, 192)
        assert abs(d0 - d1) < 1e-12

    def test_density_calls_do_not_grow_with_the_grid(self):
        counts = []
        for intervals in (64, 512):
            metric, calls = counting_metric(bumped_disc_metric(3.0))
            assert radiality_deviation(metric, RadialGrid(3.0, intervals), 64) > 1e-3
            counts.append(len(calls))
        # one call each of the density and its radial derivative
        assert counts == [2, 2]


ROW_BLOCK_METRICS = {
    "bumped-disc": lambda: bumped_disc_metric(3.0),
    "wavy-cone": lambda: wavy_cone_metric(1.0),
    "theta-independent": lambda: polar_metric_from_warping(space_form_warping(-1.0, 2.0), 2.0),
}


class TestRowBlocks:
    """Each (radius x angle) field is evaluated in blocks of grid rows; a row's
    sum, spread and mean are the same arithmetic in any block."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(ROW_BLOCK_METRICS))
    @pytest.mark.parametrize(
        "intervals,m_theta",
        [(3000, 256), (8, _BLOCK + 2)],
        ids=["ragged-last-block", "one-row-per-block"],
    )
    def test_blocks_match_one_full_field_to_the_bit(self, name, intervals, m_theta):
        metric = ROW_BLOCK_METRICS[name]()
        grid = RadialGrid(metric.radius, intervals)
        sizes = [len(rows) for rows in _row_blocks(grid.nodes[1:-1], m_theta)]
        # several blocks: a ragged last one, or a single row each
        assert len(sizes) > 1 and (sizes[-1] < sizes[0] or sizes[0] == 1)
        theta = _angles(m_theta)
        rho = _eval_on(metric.density, grid.nodes[1:, None], theta[None, :])
        h = mean_curvature_field(metric, grid.nodes[1:-1, None], theta)

        samples = area_from_polar_metric(metric, grid, m_theta).samples[1]
        assert samples[0] == 0.0
        assert np.array_equal(samples[1:], rho.sum(axis=1) * (2.0 * math.pi / m_theta))
        spread, mean = _circle_curvature(metric, grid, m_theta)
        assert np.array_equal(spread, np.ptp(h, axis=1))
        assert np.array_equal(mean, np.mean(h, axis=1))
        assert radiality_deviation(metric, grid, m_theta) == float(np.max(np.ptp(h, axis=1)))

    def test_peak_memory_is_a_block_not_a_field(self):
        metric = bumped_disc_metric(3.0)
        grid = RadialGrid(3.0, 4096)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        peaks = []
        try:
            for reduce in (radiality_deviation, area_from_polar_metric):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                reduce(metric, grid, 256)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            if not tracing:
                tracemalloc.stop()
        # one full 4095 x 256 field is 8 MiB; evaluated whole, the two peaked
        # at 25 and 16 MiB
        assert peaks[0] < 10 * 2**20
        assert peaks[1] < 5.5 * 2**20

    def test_nonpositive_density_in_a_later_block_names_the_first_t(self):
        def density(r, th):
            r = np.asarray(r, dtype=float)
            return np.where(np.abs(r - 2.9) < 0.05, -r, r) + 0.0 * np.asarray(th)

        metric = PolarMetric2D(radius=3.0, density=density)
        grid = RadialGrid(3.0, 4096)
        with pytest.raises(InvalidMetricError, match="density is not positive at t = ") as full:
            mean_curvature_field(metric, grid.nodes[1:-1, None], _angles(256))
        with pytest.raises(InvalidMetricError) as blocked:
            radiality_deviation(metric, grid, 256)
        assert str(blocked.value) == str(full.value)
        first_block = next(_row_blocks(grid.nodes[1:-1], 256))
        assert float(str(full.value).rsplit(" ", 1)[1]) > first_block[-1, 0]


class TestSmallRadiusLaw:
    @pytest.mark.parametrize("label,model", model_suite())
    def test_leading_area_coefficient(self, label, model):
        grid = RadialGrid(model.radius, 2048)
        t1 = grid.nodes[1]
        assert t1 <= model.radius / 1000.0
        ratio = float(_eval_on(model.eval, t1)) / (
            unit_sphere_volume(model.dimension) * t1 ** (model.dimension - 1)
        )
        assert abs(ratio - 1.0) < 0.05


class TestValidation:
    def test_radial_grid_invariants(self):
        with pytest.raises(DomainError):
            RadialGrid(-1.0, 64)
        grid = RadialGrid(2.0, 64)
        assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 2.0
        assert abs(grid.weights.sum() - 2.0) < 1e-12 * 2.0
        for radius, intervals in ((2.0, 64), (0.3, 16384), (3.1, 32768)):
            grid = RadialGrid(radius, intervals)
            assert grid.spacing == grid.nodes[1] - grid.nodes[0] == radius / intervals

    def test_non_finite_area_rejected(self):
        def area(t):
            t = np.asarray(t, dtype=float)
            return np.where(t > 0.6, np.inf, 2.0 * math.pi * t)

        with pytest.raises(InvalidAreaError, match="not finite at t = 0.75"):
            AreaFunction(dimension=2, radius=1.0, eval=area)

    def test_degenerate_area_rejected(self):
        with pytest.raises(InvalidAreaError):
            AreaFunction(dimension=2, radius=1.0, eval=lambda t: np.zeros_like(np.asarray(t)))
        with pytest.raises(InvalidAreaError):
            AreaFunction(dimension=2, radius=1.0, eval=lambda t: np.asarray(t) ** 2)

    def test_center_ratio_policy(self):
        # a sampled area warns, a closed-form area raises; models raise (below)
        grid = RadialGrid(1.0, 64)
        with pytest.warns(RuntimeWarning):
            tripled = PolarMetric2D(radius=1.0, density=lambda r, th: 3.0 * np.asarray(r) + 0.0 * th)
        with pytest.warns(RuntimeWarning, match=r"A\(t\)/t\^\(n-1\) -> 3"):
            area = area_from_polar_metric(tripled, grid, 16)
        assert np.allclose(area.samples[1], 6.0 * math.pi * grid.nodes)
        with pytest.raises(InvalidAreaError, match=r"A\(t\)/t\^\(n-1\) -> 3"):
            AreaFunction(dimension=2, radius=1.0, eval=lambda t: 6.0 * math.pi * np.asarray(t))

    def test_cone_warping_rejected(self):
        # a model is held to its area's centre law: A(t)/t^(n-1) -> 2 vol(S^1)
        with pytest.raises(InvalidAreaError, match=r"A\(t\)/t\^\(n-1\) -> 2"):
            area_from_warping(2, 1.0, lambda t: 2.0 * np.asarray(t, dtype=float))

    def test_nonpositive_density_rejected(self):
        with pytest.raises(InvalidMetricError):
            PolarMetric2D(radius=1.0, density=lambda r, th: np.asarray(r) - 0.5)

    def test_nonperiodic_density_rejected(self):
        with pytest.raises(InvalidMetricError):
            PolarMetric2D(
                radius=1.0,
                density=lambda r, th: np.asarray(r) * (1.0 + 0.1 * np.asarray(th)),
            )

    def test_conical_center_warns(self):
        with pytest.warns(RuntimeWarning):
            PolarMetric2D(
                radius=1.0,
                density=lambda r, th: np.asarray(r) * (1.0 + 0.3 * np.sin(3.0 * np.asarray(th))),
            )
