"""Exception types shared across the package."""


class BallboundError(Exception):
    """Base class for every package-specific error."""


class DomainError(BallboundError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidAreaError(BallboundError, ValueError):
    """An area function violates A(0) = 0 or positivity on (0, R]."""


class InvalidMetricError(BallboundError, ValueError):
    """A polar metric density is non-positive, non-periodic, or otherwise unusable."""


class InvalidModelError(BallboundError, ValueError):
    """A rotationally symmetric model has a degenerate warping function."""


class BracketError(BallboundError, RuntimeError):
    """Within its sweep cap, shooting found no lambda whose f has exactly one zero in (0, R]."""


class ConvergenceError(BallboundError, RuntimeError):
    """An iterative solver stagnated before reaching its tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class PrecisionError(BallboundError, ArithmeticError):
    """A quantity underflowed or lost all significant digits."""


class ExpressionError(BallboundError):
    """Base class for expression parsing/evaluation failures."""


class ExpressionSyntaxError(ExpressionError, ValueError):
    """Malformed expression source; carries the byte offset of the failure."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvaluationError(ExpressionError, ValueError):
    """An expression evaluation hit an unbound variable or a domain violation."""


class ConfigError(BallboundError, ValueError):
    """A run configuration is inconsistent or incomplete."""
