"""Exception types shared across the package."""

from __future__ import annotations


class FracError(Exception):
    """Base class for every error raised by this package."""


class ScalarError(FracError):
    """Invalid exact-scalar operation (zero denominator, bad power, ...)."""


class ExprError(FracError):
    """Operation outside the exponential-polynomial expression class."""


class ParseError(FracError):
    """Syntax or semantic error in source text, with a position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.line is None:
            return self.message
        if self.col is None:
            return f"line {self.line}: {self.message}"
        return f"line {self.line}, col {self.col}: {self.message}"


class ProblemError(FracError):
    """A parsed problem file fails validation."""


class AlphaOutOfRange(ProblemError):
    """Fractional order must satisfy 0 < alpha <= 1."""


class AlphaMismatch(FracError):
    """Two series (or a series and an operator) disagree on alpha."""


class NotLinear(FracError):
    """solve_linear was given a right-hand side that is not linear."""


class TimeCoefficientIncompatible(FracError):
    """A time coefficient cannot be represented on the t^(k*alpha) grid."""


class EvalError(FracError):
    """Numeric evaluation failed (unbound parameter, domain, overflow)."""
