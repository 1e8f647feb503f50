"""Exact fractional power series solutions of time-fractional PDEs.

The package derives the coefficients of
Sum_k phi_k(x) * t^(k*alpha) / Gamma(1 + k*alpha) symbolically, with every
phi_k an exponential-polynomial in x over an exact scalar ring, then
verifies and evaluates those series numerically.
"""

from .errors import (
    AlphaMismatch,
    AlphaOutOfRange,
    EvalError,
    ExprError,
    FracError,
    NotLinear,
    ParseError,
    ProblemError,
    ScalarError,
    TimeCoefficientIncompatible,
)
from .gammafn import gamma_real
from .scalar import Scalar
from .expr import Expr
from .series import (
    FracSeries,
    gamma_factor,
)
from .problems import (
    ExactSolution,
    Problem,
    RhsFactor,
    RhsOperator,
    RhsTerm,
)
from .solver import (
    SeriesSolution,
    apply_rhs,
    mittag_leffler_form,
    residual_orders,
    residual_series,
    solve,
    solve_linear,
)
from .dsl import (
    parse_exact,
    parse_expr,
    parse_problem,
    parse_problem_file,
    parse_rhs,
    problem_to_source,
    rhs_to_source,
)
from .evaluate import (
    ErrorTable,
    EvalGrid,
    TableRow,
    error_table,
    eval_solution,
    export,
    read_table_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaMismatch",
    "AlphaOutOfRange",
    "ErrorTable",
    "EvalError",
    "EvalGrid",
    "ExactSolution",
    "Expr",
    "ExprError",
    "FracError",
    "FracSeries",
    "NotLinear",
    "ParseError",
    "Problem",
    "ProblemError",
    "RhsFactor",
    "RhsOperator",
    "RhsTerm",
    "Scalar",
    "ScalarError",
    "SeriesSolution",
    "TableRow",
    "TimeCoefficientIncompatible",
    "apply_rhs",
    "error_table",
    "eval_solution",
    "export",
    "gamma_factor",
    "gamma_real",
    "mittag_leffler_form",
    "parse_exact",
    "parse_expr",
    "parse_problem",
    "parse_problem_file",
    "parse_rhs",
    "problem_to_source",
    "read_table_csv",
    "residual_orders",
    "residual_series",
    "rhs_to_source",
    "solve",
    "solve_linear",
]
