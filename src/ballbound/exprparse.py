"""Small arithmetic-expression language for radial profiles and densities.

Grammar (whitespace-insensitive)::

    expr      := term (("+"|"-") term)*
    term      := factor (("*"|"/") factor)*
    factor    := "-" factor | power
    power     := atom ("^" factor)?
    atom      := number | ident | ident "(" args ")" | "(" expr ")" | piecewise
    piecewise := "piecewise" "(" (cond ":" expr ";")+ expr ")"
    cond      := expr ("<"|"<="|">"|">=") expr

"^" binds tightest and associates to the right; unary minus binds looser, so
"-t^2" is -(t^2).  Identifiers are restricted to the variables t, r, theta,
R, kappa, the constants pi and e, and a fixed function set.  Evaluation is
total on its domain: division by zero, log of a non-positive number, and the
like raise :class:`EvaluationError` instead of producing non-finite values.
Bindings may be floats or numpy arrays; piecewise branches are evaluated only
where their guard holds, so guarded singularities stay silent.
"""
from __future__ import annotations

import math
import operator
import re
from typing import NamedTuple, Union

import numpy as np

from .errors import EvaluationError, ExpressionSyntaxError

VARIABLES = frozenset({"t", "r", "theta", "R", "kappa"})
CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "sinh": 1,
    "cosh": 1,
    "tanh": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "pow": 2,
    "min": 2,
    "max": 2,
}

_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5

# binary operator -> (precedence, function); "^" is apart: checked, right-associative
_ARITHMETIC = {
    "+": (_ADD, operator.add),
    "-": (_ADD, operator.sub),
    "*": (_MUL, operator.mul),
    "/": (_MUL, operator.truediv),
}
_COMPARISONS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}

# Tree nodes are named tuples, so equality ignores the node type; parsed trees
# still compare as trees, since no two node types share field values (the
# variable, constant and operator name sets are disjoint).


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Const(NamedTuple):
    name: str


class Neg(NamedTuple):
    operand: "Expression"


class BinOp(NamedTuple):
    op: str
    left: "Expression"
    right: "Expression"


class Call(NamedTuple):
    name: str
    args: tuple["Expression", ...]


class Comparison(NamedTuple):
    op: str
    left: "Expression"
    right: "Expression"


class Piecewise(NamedTuple):
    branches: tuple[tuple[Comparison, "Expression"], ...]
    default: "Expression"


Expression = Union[Num, Var, Const, Neg, BinOp, Call, Piecewise]

_TOKEN_RE = re.compile(
    r"(?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|[-+*/^(),:;<>])"
    r"|(?P<ws>\s+)"
)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExpressionSyntaxError(f"unexpected character {source[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise ExpressionSyntaxError(
                f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos
            )
        return self.advance()

    def parse(self) -> Expression:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExpressionSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Expression:
        return self.chain(_ADD, self.term)

    def term(self) -> Expression:
        return self.chain(_MUL, self.factor)

    def chain(self, level: int, operand) -> Expression:
        node = operand()
        while (op := self.peek().text) in _ARITHMETIC and _ARITHMETIC[op][0] == level:
            self.advance()
            node = BinOp(op, node, operand())
        return node

    def factor(self) -> Expression:
        if self.peek().text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expression:
        node = self.atom()
        if self.peek().text == "^":
            self.advance()
            node = BinOp("^", node, self.factor())
        return node

    def atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name == "piecewise":
                self.expect("(")
                return self.piecewise()
            if self.peek().text == "(":
                if name not in FUNCTIONS:
                    raise ExpressionSyntaxError(f"unknown function {name!r}", tok.pos)
                self.advance()
                args = [self.expr()]
                while self.peek().text == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                if len(args) != FUNCTIONS[name]:
                    raise ExpressionSyntaxError(
                        f"{name} takes {FUNCTIONS[name]} argument(s), got {len(args)}",
                        tok.pos,
                    )
                return Call(name, tuple(args))
            if name in VARIABLES:
                return Var(name)
            if name in CONSTANTS:
                return Const(name)
            if name in FUNCTIONS:
                raise ExpressionSyntaxError(
                    f"function {name!r} needs parenthesized arguments", tok.pos
                )
            raise ExpressionSyntaxError(f"unknown identifier {name!r}", tok.pos)
        raise ExpressionSyntaxError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
        )

    def piecewise(self) -> Piecewise:
        branches: list[tuple[Comparison, Expression]] = []
        while True:
            node = self.expr()
            tok = self.peek()
            if tok.text in _COMPARISONS:
                self.advance()
                cond = Comparison(tok.text, node, self.expr())
                self.expect(":")
                value = self.expr()
                self.expect(";")
                branches.append((cond, value))
                continue
            if not branches:
                raise ExpressionSyntaxError(
                    "piecewise needs at least one 'condition: value;' branch", tok.pos
                )
            self.expect(")")
            return Piecewise(tuple(branches), node)


def parse(source: str) -> Expression:
    """Parse expression source text into a tree."""
    if not source or not source.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# printing


def _prec(node: Expression) -> int:
    if isinstance(node, BinOp):
        return _ARITHMETIC[node.op][0] if node.op in _ARITHMETIC else _POW
    if isinstance(node, Neg):
        return _NEG
    return _ATOM


def _wrap(text: str, needed: bool) -> str:
    return f"({text})" if needed else text


def format_expression(node: Expression) -> str:
    """Render a tree back to source; parsing the result reproduces the tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Neg):
        inner = format_expression(node.operand)
        return "-" + _wrap(inner, _prec(node.operand) <= _MUL)
    if isinstance(node, BinOp):
        left = format_expression(node.left)
        right = format_expression(node.right)
        if _prec(node) == _ADD:
            return f"{left} {node.op} {_wrap(right, _prec(node.right) <= _ADD)}"
        if _prec(node) == _MUL:
            return (
                _wrap(left, _prec(node.left) < _MUL)
                + node.op
                + _wrap(right, _prec(node.right) <= _MUL)
            )
        # '^': the base must be an atom, the exponent a factor
        return (
            _wrap(left, _prec(node.left) < _ATOM)
            + "^"
            + _wrap(right, _prec(node.right) < _NEG)
        )
    if isinstance(node, Call):
        return f"{node.name}({', '.join(format_expression(a) for a in node.args)})"
    if isinstance(node, Comparison):
        return f"{format_expression(node.left)} {node.op} {format_expression(node.right)}"
    if isinstance(node, Piecewise):
        parts = [
            f"{format_expression(cond)}: {format_expression(value)}; "
            for cond, value in node.branches
        ]
        return f"piecewise({''.join(parts)}{format_expression(node.default)})"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# evaluation


def free_variables(node: Expression) -> set[str]:
    """Names of the variables the expression reads."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return free_variables(node.operand)
    if isinstance(node, (BinOp, Comparison)):
        return free_variables(node.left) | free_variables(node.right)
    if isinstance(node, Call):
        out: set[str] = set()
        for arg in node.args:
            out |= free_variables(arg)
        return out
    if isinstance(node, Piecewise):
        out = free_variables(node.default)
        for cond, value in node.branches:
            out |= free_variables(cond) | free_variables(value)
        return out
    return set()


def _fail(node: Expression, why: str):
    raise EvaluationError(f"{why} in '{format_expression(node)}'")


def _power(node: BinOp, base, expo):
    if np.any((base == 0.0) & (np.asarray(expo) < 0.0)):
        _fail(node, "zero raised to a negative power")
    neg = np.asarray(base) < 0.0
    if np.any(neg & (np.asarray(expo) != np.floor(expo))):
        _fail(node, "negative base with non-integer exponent")
    return np.power(base, expo)


def _eval(node: Expression, env: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, BinOp):
        left = _eval(node.left, env)
        right = _eval(node.right, env)
        if node.op == "^":
            return _power(node, left, right)
        if node.op == "/" and np.any(np.asarray(right) == 0.0):
            _fail(node, "division by zero")
        return _ARITHMETIC[node.op][1](left, right)
    if isinstance(node, Call):
        args = [_eval(a, env) for a in node.args]
        name = node.name
        if name == "log":
            if np.any(np.asarray(args[0]) <= 0.0):
                _fail(node, "log of a non-positive number")
            return np.log(args[0])
        if name == "sqrt":
            if np.any(np.asarray(args[0]) < 0.0):
                _fail(node, "square root of a negative number")
            return np.sqrt(args[0])
        if name == "pow":
            return _power(node, args[0], args[1])
        if name == "min":
            return np.minimum(args[0], args[1])
        if name == "max":
            return np.maximum(args[0], args[1])
        return getattr(np, name)(args[0])
    if isinstance(node, Comparison):
        return _COMPARISONS[node.op](_eval(node.left, env), _eval(node.right, env))
    if isinstance(node, Piecewise):
        return _eval_piecewise(node, env)
    raise TypeError(f"not an expression node: {node!r}")


def _eval_piecewise(node: Piecewise, env: dict):
    # Only the node's own array variables are broadcast and masked: one it does
    # not read would multiply every branch's work by that array's size.
    array_keys = [
        k for k in free_variables(node) if isinstance(env[k], np.ndarray) and env[k].ndim > 0
    ]
    if not array_keys:
        for cond, value in node.branches:
            if _eval(cond, env):
                return _eval(value, env)
        return _eval(node.default, env)

    shape = np.broadcast_shapes(*(env[k].shape for k in array_keys))
    size = int(np.prod(shape))
    flat = {**env, **{k: np.broadcast_to(env[k], shape).reshape(-1) for k in array_keys}}

    def restrict(mask):
        return {**flat, **{k: flat[k][mask] for k in array_keys}}

    out = np.empty(size)
    remaining = np.ones(size, dtype=bool)
    for cond, value in node.branches:
        cond_val = np.broadcast_to(np.asarray(_eval(cond, flat)), (size,))
        active = cond_val & remaining
        if np.any(active):
            out[active] = _eval(value, restrict(active))
            remaining &= ~active
        if not remaining.any():
            break
    if remaining.any():
        out[remaining] = _eval(node.default, restrict(remaining))
    return out.reshape(shape)


def evaluate(node: Expression, bindings: dict):
    """Evaluate a tree with the given variable bindings.

    Bindings map variable names to floats (returns a float) or numpy arrays
    (returns an array, broadcast elementwise).  Unbound variables, unknown
    binding names, and domain violations raise :class:`EvaluationError`.
    """
    unknown = set(bindings) - VARIABLES
    if unknown:
        raise EvaluationError(f"unknown binding name(s): {', '.join(sorted(unknown))}")
    missing = free_variables(node) - set(bindings)
    if missing:
        raise EvaluationError(f"unbound variable(s): {', '.join(sorted(missing))}")
    env = {
        k: (np.asarray(v, dtype=float) if isinstance(v, np.ndarray) else float(v))
        for k, v in bindings.items()
    }
    # overflow surfaces as an EvaluationError below, not as a numpy warning
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        value = _eval(node, env)
    if np.ndim(value):
        arr = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise EvaluationError(
                f"non-finite result from '{format_expression(node)}'"
            )
        return arr
    out = float(value)
    if not math.isfinite(out):
        raise EvaluationError(f"non-finite result from '{format_expression(node)}'")
    return out
