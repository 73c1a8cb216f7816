import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from ballbound.errors import DomainError
from ballbound.quadrature import (
    _pchip,
    composite_weights,
    cumulative_integral,
    derivative_five_point,
    richardson_estimate,
    richardson_extrapolate,
)


def test_weights_sum_to_interval_and_stay_positive():
    for n in (8, 17, 64, 4097):
        w = composite_weights(n, 1.0 / (n - 1))
        assert np.all(w > 0.0)
        assert abs(w.sum() - 1.0) < 1e-13


def test_weights_exact_for_cubics():
    x = np.linspace(0.0, 2.0, 33)
    w = composite_weights(x.size, x[1] - x[0])
    y = 3.0 * x**3 - x**2 + 5.0 * x - 1.0
    exact = 3.0 / 4.0 * 2.0**4 - 2.0**3 / 3.0 + 5.0 / 2.0 * 2.0**2 - 2.0
    assert abs(w @ y - exact) < 1e-12


def test_cumulative_exact_for_cubics():
    x = np.linspace(0.0, 1.0, 21)
    y = x**3 - 2.0 * x + 1.0
    exact = x**4 / 4.0 - x**2 + x
    out = cumulative_integral(y, x[1] - x[0])
    assert out[0] == 0.0
    assert np.max(np.abs(out - exact)) < 1e-15


def test_cumulative_fourth_order_on_sine():
    errs = []
    for n in (64, 128, 256):
        x = np.linspace(0.0, 1.0, n + 1)
        out = cumulative_integral(np.sin(x), x[1] - x[0])
        errs.append(np.max(np.abs(out - (1.0 - np.cos(x)))))
    assert errs[0] / errs[1] > 12.0
    assert errs[1] / errs[2] > 12.0


def test_cumulative_total_matches_weights():
    x = np.linspace(0.0, 3.0, 50)
    y = np.exp(-(x**2))
    w = composite_weights(x.size, x[1] - x[0])
    out = cumulative_integral(y, x[1] - x[0])
    assert abs(out[-1] - w @ y) < 1e-14


def test_derivative_exact_for_quartics():
    x = np.linspace(0.0, 1.0, 17)
    y = x**4 - 3.0 * x**2 + x
    expect = 4.0 * x**3 - 6.0 * x + 1.0
    assert np.max(np.abs(derivative_five_point(y, x[1] - x[0]) - expect)) < 1e-11


@pytest.mark.parametrize("nodes", ["uniform", "non-uniform"])
@pytest.mark.parametrize("data", ["monotone", "sign-changing", "flat-runs"])
def test_pchip_equals_scipy_bit_for_bit(nodes, data):
    rng = np.random.default_rng(7)
    for n in (3, 4, 9, 65, 257):
        if nodes == "uniform":
            x = np.linspace(0.0, rng.uniform(1e-3, 1e3), n)
        else:
            x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 2.0, n - 1))])
        if data == "monotone":
            y = np.cumsum(rng.exponential(1.0, n)) * rng.choice([-1.0, 1.0])
        elif data == "sign-changing":
            y = rng.normal(size=n)
        else:
            y = np.repeat(rng.normal(size=n), 3)[:n]  # plateaus of equal values
        points = np.concatenate([rng.uniform(x[0], x[-1], 500), x])
        expect = PchipInterpolator(x, y, extrapolate=False)(points)
        assert np.array_equal(_pchip(x, y)(points), expect)
        # points outside [x[0], x[-1]] are clamped to it
        assert np.array_equal(_pchip(x, y)(np.array([-1.0, x[-1] + 1.0])), expect[[-n, -1]])


def test_pchip_plateau_of_signed_zeros():
    # a secant of -0.0 next to one of +0.0 has no sign change, and its
    # harmonic mean is nan: the zero-secant test must set the slope to 0
    x = np.arange(6.0)
    y = np.array([1.0, 0.0, -0.0, 0.0, -0.0, 2.0])
    points = np.linspace(0.0, 5.0, 101)
    expect = PchipInterpolator(x, y)(points)
    assert np.array_equal(_pchip(x, y)(points), expect)


def test_richardson_helpers():
    # second-order sequence: v(h) = 1 + h^2
    coarse, fine = 1.0 + 0.04, 1.0 + 0.01
    assert abs(richardson_estimate(coarse, fine, 2) - 0.01) < 1e-15
    assert abs(richardson_extrapolate(coarse, fine, 2) - 1.0) < 1e-15


def test_input_validation():
    with pytest.raises(DomainError):
        composite_weights(5, 0.1)
    with pytest.raises(DomainError):
        cumulative_integral(np.ones(4), 0.1)
    with pytest.raises(DomainError):
        derivative_five_point(np.ones(3), 0.1)
