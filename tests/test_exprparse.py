import math
import random

import numpy as np
import pytest

from ballbound.errors import EvaluationError, ExpressionSyntaxError
from ballbound.exprparse import (
    FUNCTIONS,
    BinOp,
    Call,
    Neg,
    Num,
    Piecewise,
    Var,
    evaluate,
    format_expression,
    free_variables,
    parse,
)

from conftest import random_expression


class TestBasicEvaluation:
    def test_hyperbolic_sine(self):
        assert evaluate(parse("sinh(t)"), {"t": 1.0}) == pytest.approx(
            math.sinh(1.0), rel=1e-15
        )

    def test_bump_density_expression(self):
        tree = parse("r + exp(-1/(r-2)^2) * cos(theta)")
        assert evaluate(tree, {"r": 3.0, "theta": 0.0}) == pytest.approx(
            3.0 + math.exp(-1.0), rel=1e-15
        )

    def test_constants(self):
        assert evaluate(parse("2*pi*t"), {"t": 1.0}) == pytest.approx(
            2.0 * math.pi, rel=1e-15
        )
        assert evaluate(parse("e"), {}) == pytest.approx(math.e, rel=1e-15)

    def test_space_form_profile(self):
        tree = parse("sin(sqrt(kappa)*t)/sqrt(kappa)")
        assert evaluate(tree, {"kappa": 1.0, "t": math.pi / 2}) == pytest.approx(1.0)

    def test_free_variables(self):
        tree = parse("piecewise(t <= R: kappa; r + theta)")
        assert free_variables(tree) == {"t", "R", "kappa", "r", "theta"}

    def test_free_variables_of_every_node_type(self):
        assert free_variables(parse("-sin(t) + pow(r, kappa)^2 / R")) == {"t", "r", "kappa", "R"}
        assert free_variables(parse("piecewise(1 < 2: pi; e)")) == set()
        assert free_variables(parse("2.5")) == set()

    def test_every_function_matches_numpy(self):
        reference = {
            "sin": np.sin, "cos": np.cos, "tan": np.tan, "sinh": np.sinh, "cosh": np.cosh,
            "tanh": np.tanh, "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
            "pow": np.power, "min": np.minimum, "max": np.maximum,
        }
        assert set(FUNCTIONS) == set(reference)
        t = np.linspace(0.5, 2.0, 7)
        for name, fn in reference.items():
            arity = FUNCTIONS[name][0]
            source = f"{name}({', '.join(['t', '1.5'][:arity])})"
            expected = fn(t, 1.5) if arity == 2 else fn(t)
            assert np.array_equal(evaluate(parse(source), {"t": t}), expected), name
            assert evaluate(parse(source), {"t": 0.75}) == float(fn(*[0.75, 1.5][:arity]))


PRECEDENCE_CASES = [
    ("1+2*3", 7.0),
    ("2*3+1", 7.0),
    ("2^3^2", 512.0),
    ("(2^3)^2", 64.0),
    ("-2^2", -4.0),
    ("(-2)^2", 4.0),
    ("2^-1", 0.5),
    ("6/3/2", 1.0),
    ("6/(3/2)", 4.0),
    ("1-2-3", -4.0),
    ("1-(2-3)", 2.0),
    ("2*3^2", 18.0),
    ("(2*3)^2", 36.0),
    ("-2*3", -6.0),
    ("2--3", 5.0),
    ("min(1,2)", 1.0),
    ("max(1,2)+1", 3.0),
    ("pow(2,10)", 1024.0),
    ("abs(-3)*2", 6.0),
    ("sqrt(16)/2", 2.0),
]


@pytest.mark.parametrize("source,expected", PRECEDENCE_CASES)
def test_precedence_table(source, expected):
    assert evaluate(parse(source), {}) == pytest.approx(expected, rel=1e-15)


class TestRoundTrip:
    def test_thousand_random_trees(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            tree = random_expression(rng)
            assert parse(format_expression(tree)) == tree

    def test_unary_minus_of_power(self):
        tree = Neg(BinOp("^", Var("t"), Num(2.0)))
        assert format_expression(tree) == "-t^2.0"
        assert parse(format_expression(tree)) == tree

    def test_power_of_negation_keeps_parens(self):
        tree = BinOp("^", Neg(Var("t")), Num(2.0))
        assert parse(format_expression(tree)) == tree

    def test_right_associative_power_chain(self):
        chain = parse("2^3^2")
        assert chain == BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))
        assert parse(format_expression(chain)) == chain


class TestPiecewise:
    def test_bump_profile_is_continuous_at_two(self):
        tree = parse("piecewise(t <= 2: 0; exp(-1/(t-2)^2))")
        assert evaluate(tree, {"t": 2.0}) == 0.0
        # just past the joint the exponential underflows to exactly 0
        assert abs(evaluate(tree, {"t": 2.0 + 1e-3})) <= 1e-300
        assert evaluate(tree, {"t": 2.5}) == pytest.approx(math.exp(-4.0), rel=1e-15)

    def test_array_evaluation_masks_guarded_singularity(self):
        tree = parse("piecewise(t <= 2: 0; exp(-1/(t-2)^2))")
        t = np.array([1.0, 2.0, 2.5, 3.0])
        out = evaluate(tree, {"t": t})
        assert out.shape == t.shape
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(math.exp(-4.0), rel=1e-14)
        assert out[3] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_branches_checked_in_order(self):
        tree = parse("piecewise(t < 1: 10; t < 2: 20; 30)")
        assert evaluate(tree, {"t": 0.5}) == 10.0
        assert evaluate(tree, {"t": 1.5}) == 20.0
        assert evaluate(tree, {"t": 5.0}) == 30.0

    def test_broadcasting_matches_scalar_loop(self):
        tree = parse("r + piecewise(r <= 2: 0; exp(-1/(r-2)^2)) * cos(theta)")
        r = np.linspace(0.5, 3.0, 7)[:, None]
        theta = np.linspace(0.0, 2.0 * math.pi, 5)[None, :]
        grid = evaluate(tree, {"r": r, "theta": theta})
        for i in range(7):
            for j in range(5):
                scalar = evaluate(tree, {"r": float(r[i, 0]), "theta": float(theta[0, j])})
                assert grid[i, j] == pytest.approx(scalar, rel=1e-15)

    def test_own_variables_match_full_broadcast_bit_for_bit(self):
        # a piecewise broadcasts and masks only the arrays it reads; its
        # values must equal those on bindings broadcast to the full grid
        rng = random.Random(20261018)
        shape = (9, 6)
        small = {
            "t": np.linspace(0.1, 2.0, 6)[None, :],
            "r": np.linspace(0.05, 3.0, 9)[:, None],
            "theta": np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)[None, :],
            "R": 3.0,
            "kappa": -1.0,
        }
        full = {
            k: np.broadcast_to(v, shape).copy() if isinstance(v, np.ndarray) else v
            for k, v in small.items()
        }
        compared = 0
        while compared < 200:
            tree = random_expression(rng)
            if "piecewise" not in format_expression(tree):
                continue
            try:
                expected = np.broadcast_to(evaluate(tree, full), shape)
            except EvaluationError as exc:
                with pytest.raises(EvaluationError) as info:
                    evaluate(tree, small)
                assert str(info.value) == str(exc)
                continue
            got = np.broadcast_to(evaluate(tree, small), shape)
            assert got.tobytes() == expected.tobytes(), format_expression(tree)
            compared += 1


class TestErrors:
    def test_unknown_identifier_with_offset(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("t + nope")
        assert err.value.position == 4

    def test_unknown_function(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("frob(t)")

    def test_arity_mismatch(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("sin(t, r)")
        with pytest.raises(ExpressionSyntaxError):
            parse("pow(2)")

    def test_syntax_error_position(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("1 + * 2")
        assert err.value.position == 4

    def test_empty_source(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("1 + 2 )")

    def test_unbound_variable(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("t + r"), {"t": 1.0})

    def test_unknown_binding_name(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("t"), {"t": 1.0, "tt": 2.0})

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("1/(r-2)"), {"r": 2.0})

    def test_log_and_sqrt_domains(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("log(t)"), {"t": -1.0})
        with pytest.raises(EvaluationError):
            evaluate(parse("sqrt(t)"), {"t": -4.0})

    def test_power_domains(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("t^-1"), {"t": 0.0})
        with pytest.raises(EvaluationError):
            evaluate(parse("(-2)^0.5"), {})

    def test_overflow_is_an_error_not_inf(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("exp(t)"), {"t": 1e4})

    def test_array_division_by_zero_detected(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("1/(r-2)"), {"r": np.array([1.0, 2.0, 3.0])})
