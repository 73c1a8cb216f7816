"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.
"""
import math
import random
import time

import numpy as np

from ballbound import (
    BOUND_HOLDS,
    Mesh2D,
    RadialGrid,
    RiemannianModel,
    area_from_polar_metric,
    area_from_warping,
    bumped_disc_metric,
    cheng_report,
    compute_moments,
    equality_criterion,
    estimator_center_ratio,
    euclidean_model,
    format_expression,
    monotonicity_check,
    parse,
    radiality_deviation,
    run_until_converged,
    shoot_radial_lambda1,
    space_form_model,
    space_form_warping,
    warping_from_area,
)
from ballbound.geometry import _eval_on
from ballbound.oracle import eigen_2d_refined

from conftest import (
    J0_SQUARED,
    PI_SQUARED,
    metric_suite,
    model_suite,
    operator_defects,
    random_expression,
)


def _report(number: int, description: str, checks: list[tuple[bool, str]]):
    ok = all(flag for flag, _ in checks)
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    failed = [msg for flag, msg in checks if not flag]
    assert ok, f"criterion {number}: {failed}"


def test_criterion_1_euclidean_disc_estimators():
    grid = RadialGrid.uniform(1.0, 4096)
    area = area_from_warping(euclidean_model(2, 1.0))
    start = time.perf_counter()
    norm, center, mass = run_until_converged(area, grid, 1e-6, 200)
    elapsed = time.perf_counter() - start
    finals = [norm.final, center.final, mass.final]
    spread = max(finals) - min(finals)
    checks = [
        (norm.converged and center.converged and mass.converged, "estimators converged"),
        *[
            (abs(value - J0_SQUARED) <= 1e-3, f"final {value} within 1e-3 of j0^2")
            for value in finals
        ],
        (spread <= 5e-6, f"pairwise spread {spread:.2e} <= 5e-6"),
        (elapsed < 5.0, f"runtime {elapsed:.2f}s < 5s"),
        (center.ks[-1] <= 200, "depth within K <= 200"),
    ]
    _report(1, "Euclidean disc: three estimators reach j0^2", checks)


def test_criterion_2_dilation():
    bounds = {}
    for radius in (1.0, 2.0):
        grid = RadialGrid.uniform(radius, 4096)
        area = area_from_warping(euclidean_model(2, radius))
        bounds[radius], _, _ = run_until_converged(area, grid, 1e-8, 200)
    b1, b2 = bounds[1.0].final, bounds[2.0].final
    rel = abs(b2 - b1 / 4.0) / b2
    _report(
        2,
        "dilation: bound at R=2 is a quarter of the R=1 bound",
        [(rel <= 1e-6, f"relative mismatch {rel:.2e} <= 1e-6")],
    )


def test_criterion_3_euclidean_three_ball():
    grid = RadialGrid.uniform(1.0, 2048)
    model = euclidean_model(3, 1.0)
    oracle = shoot_radial_lambda1(model, grid, 1e-10)
    norm, center, mass = run_until_converged(area_from_warping(model), grid, 1e-8, 200)
    checks = [
        (abs(oracle.lambda1 - PI_SQUARED) <= 1e-4, f"oracle {oracle.lambda1} vs pi^2"),
        *[
            (
                abs(series.final - oracle.lambda1) <= 1e-3 * oracle.lambda1,
                f"{series.kind} within 1e-3 relative of the oracle",
            )
            for series in (norm, center, mass)
        ],
    ]
    _report(3, "Euclidean 3-ball: oracle pi^2 and estimator agreement", checks)


def test_criterion_4_hemisphere():
    radius = math.pi / 2
    grid = RadialGrid.uniform(radius, 2048)
    model = RiemannianModel(2, radius, space_form_warping(1.0, radius))
    oracle = shoot_radial_lambda1(model, grid, 1e-10)
    norm, center, mass = run_until_converged(area_from_warping(model), grid, 1e-8, 200)
    checks = [
        (abs(oracle.lambda1 - 2.0) <= 1e-4, f"oracle {oracle.lambda1} vs 2.0"),
        *[
            (
                abs(series.final - oracle.lambda1) <= 1e-3 * oracle.lambda1,
                f"{series.kind} within 1e-3 relative of the oracle",
            )
            for series in (norm, center, mass)
        ],
    ]
    _report(4, "hemisphere: oracle 2.0 and estimator agreement", checks)


def test_criterion_5_hyperbolic_ball_and_cheng():
    radius = 2.0
    grid = RadialGrid.uniform(radius, 2048)
    hyperbolic = space_form_model(2, -1.0, radius)
    oracle = shoot_radial_lambda1(hyperbolic, grid, 1e-10)
    norm, center, mass = run_until_converged(
        area_from_warping(hyperbolic), grid, 1e-8, 200
    )
    flat_area = area_from_warping(euclidean_model(2, radius))
    monotone_ok, _ = monotonicity_check(flat_area, area_from_warping(hyperbolic), grid)
    report = cheng_report(euclidean_model(2, radius), -1.0, grid, 1e-8)
    checks = [
        *[
            (
                abs(series.final - oracle.lambda1) <= 1e-3 * oracle.lambda1,
                f"{series.kind} within 1e-3 relative of the oracle",
            )
            for series in (norm, center, mass)
        ],
        (monotone_ok, "flat/hyperbolic area ratio decreases"),
        (report.verdict == BOUND_HOLDS, f"verdict {report.verdict}"),
        (
            report.bound <= report.reference_lambda + report.combined_tolerance,
            "flat bound below the hyperbolic reference",
        ),
    ]
    _report(5, "hyperbolic ball: estimators vs oracle and comparison verdict", checks)


def test_criterion_6_bumped_disc_symmetrization():
    grid = RadialGrid.uniform(3.0, 4096)
    area = area_from_polar_metric(bumped_disc_metric(3.0), grid, 256)
    worst = float(np.max(np.abs(area.samples[1] - 2.0 * math.pi * grid.nodes)))
    _report(
        6,
        "bumped disc: circle lengths stay 2 pi t",
        [(worst < 1e-10, f"max area error {worst:.2e} < 1e-10")],
    )


def test_criterion_7_strict_inequality_at_radius_three():
    metric = bumped_disc_metric(3.0)
    grid = RadialGrid.uniform(3.0, 1024)
    fine, estimate, _ = eigen_2d_refined(metric, Mesh2D(64, 64), 1e-9)
    flat_value = J0_SQUARED / 9.0
    gap = flat_value - fine.lambda1
    deviation = radiality_deviation(metric, grid, 256)
    sharp = equality_criterion(metric, grid, 256, 1e-6)
    checks = [
        (fine.lambda1 < flat_value, f"FD eigenvalue {fine.lambda1:.6f} < {flat_value:.6f}"),
        (gap > estimate, f"gap {gap:.2e} exceeds Richardson estimate {estimate:.2e}"),
        (not sharp, "equality criterion rejected"),
        (deviation > 1e-3, f"radiality deviation {deviation:.3f} > 1e-3"),
    ]
    _report(7, "bumped disc at R=3: strict inequality on a 128x128 mesh", checks)


def test_criterion_8_symbolic_moment_oracle():
    grid = RadialGrid.uniform(1.0, 4096)
    area = area_from_warping(euclidean_model(2, 1.0))
    table = compute_moments(area, grid, 2)
    t = grid.nodes
    level1 = math.exp(table.log_scale[1]) * table.levels[1]
    worst1 = float(np.max(np.abs(level1 - (1.0 - t**2) / 4.0)))
    center0 = math.exp(table.log_scale[2])
    ratio2 = estimator_center_ratio(table, 2)
    checks = [
        (worst1 <= 1e-8, f"T_1 max error {worst1:.2e} <= 1e-8"),
        (abs(center0 - 3.0 / 64.0) <= 1e-8, f"T_2(0) = {center0} vs 3/64"),
        (abs(ratio2 - 16.0 / 3.0) <= 1e-8, f"center ratio k=2 = {ratio2} vs 16/3"),
    ]
    _report(8, "symbolic moment oracle for the Euclidean disc", checks)


def test_criterion_9_property_suites():
    checks: list[tuple[bool, str]] = []

    # moment positivity/monotonicity over the model suite
    shape_ok = True
    for label, model in model_suite():
        grid = RadialGrid.uniform(model.radius, 128)
        table = compute_moments(area_from_warping(model), grid, 5)
        for k in range(1, 6):
            level = table.levels[k]
            if not (
                level[-1] == 0.0
                and np.all(level[:-1] > 0.0)
                and np.all(np.diff(level) < 0.0)
            ):
                shape_ok = False
    checks.append((shape_ok, "moment levels positive and strictly decreasing"))

    # warping <-> area round trip at 1e-12 relative
    round_ok = True
    for label, model in model_suite():
        grid = RadialGrid.uniform(model.radius, 256)
        back = warping_from_area(area_from_warping(model))
        t = grid.nodes[1:]
        expect = _eval_on(model.warping, t)
        if np.max(np.abs(_eval_on(back, t) - expect) / expect) >= 1e-12:
            round_ok = False
    checks.append((round_ok, "warping/area round trip at 1e-12"))

    # eigenfunction shape: f'(0) = 0 to grid tolerance and f strictly decreasing
    shape2_ok = True
    for label, model in model_suite():
        grid = RadialGrid.uniform(model.radius, 512)
        res = shoot_radial_lambda1(model, grid, 1e-10)
        f = res.eigenfunction
        if not (
            abs(f[1] - f[0]) / grid.spacing <= res.lambda1 * grid.spacing
            and np.all(np.diff(f) < 0.0)
        ):
            shape2_ok = False
    checks.append((shape2_ok, "radial eigenfunctions: flat center, decreasing"))

    # 2-D operator: the reference matrix on random vectors at 1e-14, symmetric at 1e-10
    import warnings

    sym_ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for label, metric in metric_suite():
            mismatch, asymmetry, mass_ok = operator_defects(metric, Mesh2D(24, 24))
            if not (mismatch <= 1e-14 and asymmetry <= 1e-10 and mass_ok):
                sym_ok = False
    checks.append((sym_ok, "2-D operator equals the assembled matrix, symmetric at 1e-10"))

    # expression parser round trip on 1000 random trees
    rng = random.Random(987654321)
    trips_ok = all(
        parse(format_expression(tree)) == tree
        for tree in (random_expression(rng) for _ in range(1000))
    )
    checks.append((trips_ok, "parser round trip on 1000 random trees"))

    _report(9, "property suites", checks)
