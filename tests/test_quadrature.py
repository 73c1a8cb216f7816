import numpy as np
import pytest

from ballbound.errors import DomainError
from ballbound.geometry import RadialGrid


def test_weights_sum_to_interval_and_stay_positive():
    for intervals in (8, 16, 63, 4096):
        w = RadialGrid(1.0, intervals).weights
        assert np.all(w > 0.0)
        assert abs(w.sum() - 1.0) < 1e-13


def test_weights_exact_for_cubics():
    grid = RadialGrid(2.0, 32)
    x = grid.nodes
    y = 3.0 * x**3 - x**2 + 5.0 * x - 1.0
    exact = 3.0 / 4.0 * 2.0**4 - 2.0**3 / 3.0 + 5.0 / 2.0 * 2.0**2 - 2.0
    assert abs(grid.weights @ y - exact) < 1e-12


def test_cumulative_exact_for_cubics():
    grid = RadialGrid(1.0, 20)
    x = grid.nodes
    y = x**3 - 2.0 * x + 1.0
    exact = x**4 / 4.0 - x**2 + x
    out = grid.cumulative(y)
    assert out[0] == 0.0
    assert np.max(np.abs(out - exact)) < 1e-15


def test_cumulative_fourth_order_on_sine():
    errs = []
    for n in (64, 128, 256):
        grid = RadialGrid(1.0, n)
        out = grid.cumulative(np.sin(grid.nodes))
        errs.append(np.max(np.abs(out - (1.0 - np.cos(grid.nodes)))))
    assert errs[0] / errs[1] > 12.0
    assert errs[1] / errs[2] > 12.0


def test_cumulative_total_matches_weights():
    grid = RadialGrid(3.0, 49)
    y = np.exp(-(grid.nodes**2))
    assert abs(grid.cumulative(y)[-1] - grid.weights @ y) < 1e-14


def test_derivative_exact_for_quartics():
    grid = RadialGrid(1.0, 16)
    x = grid.nodes
    y = x**4 - 3.0 * x**2 + x
    expect = 4.0 * x**3 - 6.0 * x + 1.0
    assert np.max(np.abs(grid.derivative(y) - expect)) < 1e-11


def test_hermite_returns_the_samples_at_every_node():
    rng = np.random.default_rng(3)
    for radius, intervals in ((1.0, 8), (2.5, 513), (3e106, 4096), (1e-150, 64)):
        grid = RadialGrid(radius, intervals)
        y = rng.uniform(0.5, 2.0, grid.nodes.size) * grid.nodes
        spline = grid.hermite(y)
        assert np.array_equal(spline(grid.nodes), y)
        assert spline(grid.radius) == y[-1]


def test_hermite_exact_for_cubics():
    grid = RadialGrid(2.0, 16)
    cubic = np.polynomial.Polynomial([-1.0, 5.0, -1.0, 3.0])
    points = np.linspace(0.0, 2.0, 1001)
    assert np.max(np.abs(grid.hermite(cubic(grid.nodes))(points) - cubic(points))) < 1e-13


def test_hermite_fourth_order_between_nodes():
    # midpoints of A = 2 pi sin t on [0, 2.5]: each halving of the spacing
    # shrinks the error 16 times (a shape-preserving PCHIP gains 2.5-7.7)
    errs = []
    for n in (64, 128, 256, 512):
        grid = RadialGrid(2.5, n)
        mid = grid.nodes[:-1] + 0.5 * grid.spacing
        spline = grid.hermite(2.0 * np.pi * np.sin(grid.nodes))
        errs.append(np.max(np.abs(spline(mid) - 2.0 * np.pi * np.sin(mid))))
    assert all(coarse / fine >= 14.0 for coarse, fine in zip(errs, errs[1:]))


def test_hermite_reads_only_the_ball():
    grid = RadialGrid(1.0, 8)
    y = grid.nodes**2
    spline = grid.hermite(y)
    # points within 1e-12 R of [0, R] are clamped to it
    assert np.array_equal(spline(np.array([-1e-13, 1.0 + 1e-13])), y[[0, -1]])
    for outside in (-1e-9, 1.0 + 1e-9):
        with pytest.raises(DomainError, match="outside"):
            spline(outside)
