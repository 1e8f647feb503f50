"""Problem model: structured right-hand sides and validated equations.

An equation is D_t^(m*alpha) psi = R[psi] with m initial conditions.  The
right-hand side is a sum of terms

    coeff(x) * tcoef(t) * prod_j (D_x^(n_j) B_j)(xscale_j * x, tscale_j * t)^(power_j)

with tcoef an exponential-polynomial in t (an Expr read in t), each B_j psi
itself or a nested right-hand side (Dx(psi^2, 2) is one factor with
B = psi^2), plus forcing coefficients e_k(x) on the grid
t^(k*alpha)/Gamma(1+k*alpha) of the problem's own alpha, so
dataclasses.replace(problem, alpha=a) re-derives any problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional

from .errors import AlphaOutOfRange, EvalError, ProblemError
from .expr import Expr
from .scalar import Scalar

_RESERVED_NAMES = frozenset({"x", "t", "psi"})


@dataclass(frozen=True)
class RhsFactor:
    """One unknown-function occurrence: (D_x^n B)(xscale*x, tscale*t)^power.

    B is psi when inner is None, and otherwise the right-hand side inner
    applied to psi, whose product is formed once and then differentiated.
    """

    n: int = 0
    xscale: Fraction = Fraction(1)
    tscale: Fraction = Fraction(1)
    power: int = 1
    inner: Optional[RhsOperator] = None

    def __post_init__(self):
        object.__setattr__(self, "xscale", Fraction(self.xscale))
        object.__setattr__(self, "tscale", Fraction(self.tscale))
        if self.n < 0:
            raise ProblemError("x-derivative order must be >= 0")
        if self.xscale <= 0 or self.tscale <= 0:
            raise ProblemError("argument scales must be positive rationals")
        if self.power < 1:
            raise ProblemError("factor power must be >= 1")
        if self.inner is not None and self.n < 1:
            raise ProblemError("a nested right-hand side needs an x-derivative")

    @property
    def scaled(self) -> bool:
        return self.xscale != 1 or self.tscale != 1


@dataclass(frozen=True)
class RhsTerm:
    """Product term of the right-hand side.

    tcoef is an Expr read as a function of t; Expr.one() means no time
    dependence. An empty factor tuple makes the term a pure source: it
    contributes coeff(x) * tcoef(t) on its own.
    """

    coeff: Expr
    tcoef: Expr = Expr.one()
    factors: tuple[RhsFactor, ...] = ()


@dataclass(frozen=True)
class RhsOperator:
    """Product terms plus forcing (k, e_k) pairs, k ascending, zero e_k dropped."""

    terms: tuple[RhsTerm, ...] = ()
    forcing: tuple[tuple[int, Expr], ...] = ()

    def __post_init__(self):
        live = dict(self.forcing)
        if len(live) != len(self.forcing) or min(live, default=0) < 0:
            raise ProblemError("forcing indices must be distinct and >= 0")
        pairs = tuple((k, live[k]) for k in sorted(live) if not live[k].is_zero())
        object.__setattr__(self, "forcing", pairs)

    def is_linear(self) -> bool:
        """True when every term is a single first-power factor, nested ones linear too.

        This is the structural gate of solve_linear; source terms and
        products disqualify.
        """
        return all(
            len(t.factors) == 1 and t.factors[0].power == 1
            and (t.factors[0].inner is None or t.factors[0].inner.is_linear())
            for t in self.terms
        )


@dataclass(frozen=True)
class Problem:
    """Validated equation D_t^(m*alpha) psi = rhs, with m initial conditions.

    Initial condition j supplies the coefficient of t^(j*alpha)/Gamma(1+j*alpha),
    i.e. the Caputo derivative of order j*alpha at t = 0.
    """

    name: str
    m: int
    alpha: Fraction
    rhs: RhsOperator
    ics: tuple[Expr, ...]
    params: Mapping[str, Optional[Scalar]] = field(default_factory=dict)
    exact: Optional["ExactSolution"] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "ics", tuple(self.ics))
        if self.m < 1:
            raise ProblemError("equation order m must be >= 1")
        if not (0 < self.alpha <= 1):
            raise AlphaOutOfRange(
                f"alpha must lie in (0, 1], got {self.alpha}"
            )
        if len(self.ics) != self.m:
            raise ProblemError(
                f"expected {self.m} initial conditions, got {len(self.ics)}"
            )
        bad = _RESERVED_NAMES & set(self.params)
        if bad:
            raise ProblemError(
                "parameter names collide with built-ins: " + ", ".join(sorted(bad))
            )

    def param_floats(self, overrides: Optional[Mapping[str, float]] = None) -> dict[str, float]:
        """Numeric parameter bindings: file defaults overlaid by overrides. A
        value that is not finite is an EvalError naming its parameter."""
        out: dict[str, float] = {}
        for name, val in self.params.items():
            if val is not None:
                out[name] = val._float({})  # named below if not finite
        if overrides:
            out.update(overrides)
        for name, v in out.items():
            if not math.isfinite(v):
                raise EvalError(f"parameter '{name}' = {v} is not finite")
        return out


# -- exact reference solutions -------------------------------------------------------

# Node shapes (plain tuples, so structural equality is free):
#   ('num', Fraction) ('x',) ('t',) ('param', name)
#   ('neg', a) ('add', a, b) ('sub', a, b) ('mul', a, b) ('div', a, b) ('pow', a, b)
#   ('call', fname, a) with fname in {exp, sinh, cosh, sqrt}

_XT_FUNCS = {
    "exp": math.exp,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "sqrt": math.sqrt,
}


class ExactSolution:
    """Closed-form reference in x and t, kept as a small expression tree.

    Unlike Expr this is evaluation-only: references like x*exp(t) fall
    outside the x-only symbolic class, and the error tables just need
    numbers. The tree is compiled once, at construction, into nested
    closures that do the tree's float operations in the tree's order.
    """

    __slots__ = ("node", "source", "_fn")

    def __init__(self, node: tuple, source: str):
        self.node = node
        self.source = source
        self._fn = _xt_compile(node)

    def eval(self, x: float, t: float, params: Mapping[str, float]) -> float:
        try:
            v = self._fn(x, t, params)
        except (OverflowError, ValueError, ZeroDivisionError) as exc:
            raise EvalError(f"reference evaluation failed at x={x}, t={t}: {exc}")
        if isinstance(v, complex) or not math.isfinite(v):
            raise EvalError(f"reference evaluation produced {v} at x={x}, t={t}")
        return float(v)

    def to_source(self) -> str:
        return self.source

    def __eq__(self, other):
        if not isinstance(other, ExactSolution):
            return NotImplemented
        return self.node == other.node

    def __hash__(self):
        return hash(self.node)

    def __repr__(self):
        return f"ExactSolution({self.source!r})"

    def __reduce__(self):  # the compiled closures do not pickle; rebuild them
        return ExactSolution, (self.node, self.source)


def _xt_compile(node: tuple) -> Callable[[float, float, Mapping[str, float]], float]:
    """The node as a function of (x, t, params); operands are evaluated left
    to right, as a recursive walk of the tree would."""
    tag = node[0]
    if tag == "num":
        q = node[1]
        try:
            v = float(q)
        except OverflowError:  # fails at every point, as an evaluation error
            return lambda x, t, p: float(q)
        return lambda x, t, p: v
    if tag == "x":
        return lambda x, t, p: x
    if tag == "t":
        return lambda x, t, p: t
    if tag == "param":
        name = node[1]

        def param(x, t, p):
            if name not in p:
                raise EvalError(f"parameter '{name}' has no value")
            return p[name]
        return param
    if tag == "neg":
        a = _xt_compile(node[1])
        return lambda x, t, p: -a(x, t, p)
    if tag == "call":
        fn = _XT_FUNCS[node[1]]
        a = _xt_compile(node[2])
        return lambda x, t, p: fn(a(x, t, p))
    if tag not in ("add", "sub", "mul", "div", "pow"):
        raise EvalError(f"malformed reference node {tag!r}")
    a = _xt_compile(node[1])
    b = _xt_compile(node[2])
    if tag == "add":
        return lambda x, t, p: a(x, t, p) + b(x, t, p)
    if tag == "sub":
        return lambda x, t, p: a(x, t, p) - b(x, t, p)
    if tag == "mul":
        return lambda x, t, p: a(x, t, p) * b(x, t, p)
    if tag == "div":
        return lambda x, t, p: a(x, t, p) / b(x, t, p)
    return lambda x, t, p: a(x, t, p) ** b(x, t, p)
