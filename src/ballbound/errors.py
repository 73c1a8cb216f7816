"""Exception types shared across the package."""


class BallboundError(Exception):
    """Base class for every package-specific error.

    ``exit_code`` and ``label`` are the command line's exit status and stderr
    prefix for the error; subclasses override them by category.
    """

    exit_code, label = 1, "error"


class DomainError(BallboundError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""

    exit_code, label = 5, "invalid input"


class InvalidAreaError(BallboundError, ValueError):
    """An area function, a radial model's included, is not finite, violates
    A(0) = 0 or positivity on (0, R], or breaks the smooth-metric centre law."""

    exit_code, label = 5, "invalid input"


class InvalidMetricError(BallboundError, ValueError):
    """A polar metric density is non-positive, non-periodic, or otherwise unusable."""

    exit_code, label = 5, "invalid input"


class BracketError(BallboundError, RuntimeError):
    """Within its sweep cap, shooting found no lambda whose f has exactly one zero in (0, R]."""

    exit_code, label = 4, "solver error"


class ConvergenceError(BallboundError, RuntimeError):
    """An iterative solver stagnated before reaching its tolerance."""

    exit_code, label = 4, "solver error"


class PrecisionError(BallboundError, ArithmeticError):
    """A quantity underflowed or lost all significant digits."""

    exit_code, label = 5, "invalid input"


class ExpressionError(BallboundError):
    """Base class for expression parsing/evaluation failures."""

    exit_code, label = 2, "expression error"


class ExpressionSyntaxError(ExpressionError, ValueError):
    """Malformed expression source; carries the byte offset of the failure."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvaluationError(ExpressionError, ValueError):
    """An expression evaluation hit an unbound variable or a domain violation."""


class ConfigError(BallboundError, ValueError):
    """A run configuration is inconsistent or incomplete."""
