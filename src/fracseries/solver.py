"""Series solver: one explicit coefficient engine plus a residual verifier.

For D_t^(m*alpha) psi = R[psi] the truncated solution coefficients come out
one at a time: the first m are the initial conditions, and each later one is

    phi_k = coefficient k-m of R applied to the series built from phi_0..phi_{k-1}.

No symbolic unknowns and no limit process are involved; substituting only the
already-known prefix is exact because the k-m coefficient of R[S] never reads
series entries above k-1 (every operation here preserves or raises grid order).
solve reads it off online series products (van der Hoeven, "Relax, but don't
be too lazy", J. Symb. Comput. 2002); solve_linear is solve behind a guard.
The last problem's streams are kept, so solving it again at another order
reads or extends them instead of starting over.

Verification is independent of the construction: residual_series recomputes
D_t^(m*alpha) S - R[S] from scratch with the batch operator apply_rhs and
checks that its low-order coefficients are structurally zero.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotLinear, ProblemError, TimeCoefficientIncompatible
from .expr import Expr
from .problems import Problem, RhsOperator, RhsTerm
from .scalar import Scalar
from .series import FracSeries, _mul_weight


@dataclass(frozen=True)
class SeriesSolution:
    """Computed coefficient list for one problem at one truncation order."""

    problem: Problem
    order: int
    coeffs: tuple[Expr, ...]
    linear_path_used: bool = False

    def coeff(self, k: int) -> Expr:
        return self.coeffs[k]

    def series(self) -> FracSeries:
        return FracSeries(
            self.problem.alpha, self.order, dict(enumerate(self.coeffs))
        )

    def replace_coeff(self, k: int, e: Expr) -> "SeriesSolution":
        """Fault-injection helper: same solution with coefficient k swapped."""
        cs = list(self.coeffs)
        cs[k] = e
        return SeriesSolution(self.problem, self.order, tuple(cs), self.linear_path_used)


# -- right-hand side application ------------------------------------------------------

_OFF_GRID = (
    "time-dependent coefficients need alpha = 1 or a vanishing factor "
    "product: integer powers of t do not live on the t^(k*alpha) grid"
)


def _tcoef_grid(tcoef: Expr):
    """Grid coefficients of tcoef, an Expr read in t, at alpha = 1: its j-th
    t-derivatives at t = 0, where each exponential is 1 and each polynomial
    its constant term."""
    while True:
        yield Expr.const(sum((poly[0] for _, poly in tcoef.terms), Scalar.zero()))
        tcoef = tcoef.diff_x()


def _apply_tcoef(s: FracSeries, tcoef: Expr, kmax: int) -> FracSeries:
    if tcoef == Expr.one():
        return s
    if s.is_zero():
        # the time factor multiplies an identically-zero series; nothing to place
        return s
    if s.alpha == 1:
        grid = list(itertools.islice(_tcoef_grid(tcoef), kmax + 1))
        return s.mul(FracSeries(s.alpha, kmax, grid), kmax)
    raise TimeCoefficientIncompatible(_OFF_GRID)


def apply_rhs(rhs: RhsOperator, series: FracSeries, kmax: int) -> FracSeries:
    """Apply a structured right-hand side to a truncated series.

    Per term: each factor's base (the series, or its nested right-hand side
    applied to it), then x-derivatives, then argument scaling, then the factor
    power, then the product across factors, then the x-coefficient and the time
    coefficient. Source terms (no factors) contribute coeff * tcoef alone.
    """
    if kmax < 0:
        raise ProblemError("target truncation must be >= 0")
    alpha = series.alpha
    total = FracSeries.zero(alpha, kmax)
    for term in rhs.terms:
        acc = None
        for f in term.factors:
            base = series if f.inner is None else apply_rhs(f.inner, series, kmax)
            base = base.dx(f.n) if f.n else base
            if f.scaled:
                base = base.scale_args(f.xscale, f.tscale)
            base = base.pow(f.power, kmax) if f.power > 1 else base.truncate(kmax)
            acc = base if acc is None else acc.mul(base, kmax)
        if acc is None:
            acc = FracSeries(alpha, kmax, {0: term.coeff})
        else:
            acc = acc.expr_mul(term.coeff)
        total = total.add(_apply_tcoef(acc, term.tcoef, kmax))
    total = total.add(FracSeries(alpha, kmax, dict(rhs.forcing)))
    return total.truncate(kmax)


# -- the coefficient engine ---------------------------------------------------------

class _Stream:
    """Series coefficients computed once each, in index order, on first use."""

    __slots__ = ("_next", "coeffs", "nonzero")

    def __init__(self, next_coeff):
        self._next = next_coeff
        self.coeffs: list[Expr] = []
        self.nonzero: list[int] = []  # indices of the structurally nonzero coefficients

    def __getitem__(self, j: int) -> Expr:
        while len(self.coeffs) <= j:
            e = self._next(len(self.coeffs))
            if not e.is_zero():
                self.nonzero.append(len(self.coeffs))
            self.coeffs.append(e)
        return self.coeffs[j]


def _product(alpha: Fraction, a: _Stream, b: _Stream) -> _Stream:
    """Online Cauchy product, summed in the order FracSeries.mul sums it."""

    def coeff(j: int) -> Expr:
        a[j]
        out = Expr.zero()
        for i in a.nonzero:
            if i > j:
                break  # a is shared and already ahead of this product
            if not b[j - i].is_zero():
                out = out + (a.coeffs[i] * b[j - i]).scalar_mul(_mul_weight(alpha, i, j - i))
        return out

    return _Stream(coeff)


def _term_stream(term: RhsTerm, image, alpha: Fraction) -> _Stream:
    """One right-hand-side term as a stream, built in apply_rhs's operation order."""
    if not term.factors:
        s = _Stream(lambda j: term.coeff if j == 0 else Expr.zero())
    else:
        acc = None
        for f in term.factors:
            base = p = image(f.n, f.xscale, f.tscale, f.inner)
            for _ in range(f.power - 1):
                p = _product(alpha, p, base)
            acc = p if acc is None else _product(alpha, acc, p)
        s = _Stream(lambda j: Expr.zero() if acc[j].is_zero() else acc[j] * term.coeff)
    if term.tcoef == Expr.one():
        return s
    if alpha == 1:
        grid = _tcoef_grid(term.tcoef)
        return _product(alpha, s, _Stream(lambda j: next(grid)))

    def off_grid(j: int) -> Expr:
        if not s[j].is_zero():
            raise TimeCoefficientIncompatible(_OFF_GRID)
        return s[j]

    return _Stream(off_grid)


class _Engine:
    """The streams of one problem: its solution coefficients, starting with
    the ICs, and the summed right-hand side, extended on demand.

    The stream tables are keyed by rhs operator and by image; no stream
    refers back to the engine, so dropping it frees them without a cycle.
    """

    __slots__ = ("problem", "coeffs", "_summed", "_images")

    def __init__(self, problem: Problem):
        self.problem = problem
        self.coeffs: list[Expr] = list(problem.ics)
        self._summed: dict[RhsOperator, _Stream] = {}
        self._images: dict[tuple, _Stream] = {}

    def summed(self, rhs: RhsOperator) -> _Stream:
        """rhs applied to the solution: its term streams plus its forcing."""
        stream = self._summed.get(rhs)
        if stream is None:
            forcing = dict(rhs.forcing)
            streams = [_term_stream(t, self.image, self.problem.alpha) for t in rhs.terms]

            def coeff(j: int) -> Expr:
                out = forcing.get(j, Expr.zero())
                for s in streams:
                    e = s[j]
                    if not e.is_zero():
                        out = out + e
                return out

            stream = self._summed[rhs] = _Stream(coeff)
        return stream

    def image(self, n: int, xscale: Fraction, tscale: Fraction,
              inner: RhsOperator | None) -> _Stream:
        """(D_x^n B)(xscale*x, tscale*t), B = psi or inner, shared by every factor."""
        key = (n, xscale, tscale, inner)
        stream = self._images.get(key)
        if stream is None:
            base = self.coeffs if inner is None else self.summed(inner)
            alpha = self.problem.alpha

            def coeff(j: int) -> Expr:
                e = base[j]
                if e.is_zero():
                    return e
                if n:
                    e = e.diff_x(n)
                if xscale != 1 or tscale != 1:
                    e = e.scale_x(xscale).scalar_mul(Scalar.rational_power(tscale, j * alpha))
                return e

            stream = self._images[key] = _Stream(coeff)
        return stream

    def coefficients(self, order: int) -> tuple[Expr, ...]:
        """Coefficients 0..order, computing only those past the ones kept."""
        m = self.problem.m
        rhs = self.summed(self.problem.rhs)
        while len(self.coeffs) <= order:
            self.coeffs.append(rhs[len(self.coeffs) - m])
        return tuple(self.coeffs[: order + 1])

    def close(self) -> None:
        """Release the streams, even while something still holds the engine."""
        self._summed.clear()
        self._images.clear()


# The engine of the last problem solved: one problem's streams at most. A list
# changed in place, so solving never rebinds a module attribute; the lock keeps
# two threads from extending one engine at once.
_last_engine: list[_Engine] = []
_engine_lock = threading.Lock()


def _drop_engine() -> None:
    while _last_engine:
        _last_engine.pop().close()


def solve(problem: Problem, order: int) -> SeriesSolution:
    """Explicit recurrence: one new coefficient per step, nothing revisited.

    Step k reads coefficient k-m of the right-hand side's summed stream; every
    stream coefficient, and every x-derivative and argument scaling of a
    solution coefficient or of a nested right-hand side, is computed once.
    The last problem's streams are kept: solving it (or an == problem) again
    reuses its prefix, as step k reads only coefficients 0..k-1.
    """
    if order < problem.m - 1:
        raise ProblemError(
            f"truncation order {order} is below m-1 = {problem.m - 1}: "
            "not even the initial conditions fit"
        )
    with _engine_lock:
        try:
            engine = _last_engine[0] if _last_engine else None
            if engine is None or not (engine.problem is problem or engine.problem == problem):
                _drop_engine()
                engine = _Engine(problem)
                _last_engine.append(engine)
            coeffs = engine.coefficients(order)
        except BaseException:
            # a failed step may leave streams partly advanced
            _drop_engine()
            raise
    return SeriesSolution(problem, order, coeffs)


def solve_linear(problem: Problem, order: int) -> SeriesSolution:
    """solve, restricted to right-hand sides of single first-power factors.

    Raises NotLinear for any other right-hand side; where it runs, its
    coefficients are those of solve, flagged with linear_path_used.
    """
    if not problem.rhs.is_linear():
        raise NotLinear(
            "linear path needs every term to be a single first-power factor"
        )
    return dataclasses.replace(solve(problem, order), linear_path_used=True)


# -- verification --------------------------------------------------------------

def residual_series(problem: Problem, sol: SeriesSolution) -> FracSeries:
    """Defect of the truncated solution against the defining equation.

    Returns D_t^(m*alpha) S - R[S] with every coefficient recomputed from the
    finished series, truncated at order K-m (higher orders mix truncated-away
    information and are not meaningful).
    """
    if sol.order < problem.m:
        raise ProblemError(
            f"residual check needs order >= m = {problem.m}, got {sol.order}"
        )
    kmax = sol.order - problem.m
    full = sol.series()
    lhs = full.caputo_shift(problem.m).truncate(kmax)
    rhs = apply_rhs(problem.rhs, full, kmax)
    return lhs.sub(rhs)


def residual_orders(problem: Problem, sol: SeriesSolution) -> list[tuple[int, bool]]:
    """Per-order verdicts: (j, True) iff residual coefficient j is structurally zero.

    A True verdict is a proof. False means the coefficient is not structurally
    zero, which includes forms equal in value that the canonical Scalars do
    not relate (gamma(1/3)*gamma(2/3) against 2*3^(-1/2)*gamma(1/2)^2: no
    relation is applied at a prime denominator).
    """
    res = residual_series(problem, sol)
    return [(j, res.coeff(j).is_zero()) for j in range(sol.order - problem.m + 1)]


def mittag_leffler_form(sol: SeriesSolution) -> str | None:
    """Display tag for solutions whose coefficients are all the same function.

    Such a series is c(x) times the partial sum of the one-parameter
    Mittag-Leffler function in t^alpha; returns the tag text, or None.
    """
    head = sol.coeffs[0]
    if all((c - head).is_zero() for c in sol.coeffs[1:]):
        return f"({head.pretty()}) * E_alpha(t^alpha), alpha = {sol.problem.alpha}"
    return None
