"""Truncated fractional power series.

A FracSeries with fractional order alpha and truncation K represents

    sum_{k=0..K} coeffs[k](x) * t^(k*alpha) / Gamma(1 + k*alpha).

Storing the Gamma-normalized coefficients makes the Caputo derivative of
order n*alpha a pure index shift: term k maps to term k-n with the same
coefficient (the derivative of t^(k*alpha) contributes exactly the Gamma
ratio that the normalization absorbs, and terms below the derivative order
vanish the way derivatives of constants do).

Multiplication re-normalizes the plain Cauchy product, so coefficient k of
a product picks up the exact weight Gamma(1+k*a) / (Gamma(1+i*a) *
Gamma(1+j*a)) on each pair i+j = k; the weights stay symbolic through the
Scalar layer (and collapse to binomial coefficients at alpha = 1). The
weight is symmetric in i and j, so a square takes each pair i < j once at
twice its weight. Each product coefficient is one sum_products call, which
sums each of its (frequency, x-degree) slots in one pass.

Each exact constant of the grid is formed once per process: Gamma(1+k*a)
and its inverse in one table keyed by (alpha, k), so a weight is two
monomial products with no division, and the time-scale factor b^(k*a) of
scale_args in a table keyed by (b, k*a). Both derivations read them.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import AlphaMismatch, FracError
from .expr import Expr, sum_products
from .scalar import Scalar

# bounds each table below: the weights hold all (i, j) pairs of one alpha up
# to K = 125, the Gamma factors and time-scale powers one entry per index
_WEIGHT_CACHE_SIZE = 4096


def gamma_factor(alpha: Fraction, k: int) -> Scalar:
    """Gamma(1 + k*alpha) as an exact Scalar."""
    return Scalar.gamma(1 + k * alpha)


@functools.lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def _gamma_pair(alpha: Fraction, k: int) -> tuple[Scalar, Scalar]:
    """gamma_factor(alpha, k) and its inverse, formed once."""
    g = gamma_factor(alpha, k)
    return g, Scalar.one() / g


@functools.lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def _time_power(b: Fraction, e: Fraction) -> Scalar:
    """b^e, the time-scale factor b^(k*alpha) of a coefficient."""
    return Scalar.rational_power(b, e)


def _mul_weight(alpha: Fraction, i: int, j: int) -> Scalar:
    return _weight(alpha, i, j) if i <= j else _weight(alpha, j, i)


def _square_weight(alpha: Fraction, i: int, j: int) -> Scalar:
    """Weight of the pair i <= j in a square, which also stands for (j, i)."""
    w = _weight(alpha, i, j)
    return w if i == j else w * 2


@functools.lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def _weight(alpha: Fraction, lo: int, hi: int) -> Scalar:
    return _gamma_pair(alpha, lo + hi)[0] * (_gamma_pair(alpha, lo)[1] * _gamma_pair(alpha, hi)[1])


class FracSeries:
    """Immutable truncated series on the t^(k*alpha) grid."""

    __slots__ = ("alpha", "trunc", "coeffs")

    def __init__(self, alpha, trunc: int, coeffs):
        alpha = Fraction(alpha)
        if trunc < 0:
            raise FracError("truncation order must be >= 0")
        items: dict[int, Expr] = {}
        if isinstance(coeffs, Mapping):
            pairs: Iterable = coeffs.items()
        else:
            pairs = enumerate(coeffs)
        for k, e in pairs:
            e = Expr._coerce(e)
            if k < 0:
                raise FracError("series indices must be >= 0")
            if k <= trunc and not e.is_zero():
                items[k] = e
        self.alpha = alpha
        self.trunc = trunc
        self.coeffs = tuple(sorted(items.items()))

    # -- access ---------------------------------------------------------------

    def coeff(self, k: int) -> Expr:
        for i, e in self.coeffs:
            if i == k:
                return e
        return Expr.zero()

    def is_zero(self) -> bool:
        return not self.coeffs

    @classmethod
    def zero(cls, alpha, trunc: int = 0) -> "FracSeries":
        return cls(alpha, trunc, {})

    def _check_alpha(self, other: "FracSeries") -> None:
        if self.alpha != other.alpha:
            raise AlphaMismatch(
                f"series orders differ: {self.alpha} vs {other.alpha}"
            )

    # -- ring operations ----------------------------------------------------------

    def add(self, other: "FracSeries") -> "FracSeries":
        self._check_alpha(other)
        out = dict(self.coeffs)
        for k, e in other.coeffs:
            out[k] = out.get(k, Expr.zero()) + e
        return FracSeries(self.alpha, max(self.trunc, other.trunc), out)

    def sub(self, other: "FracSeries") -> "FracSeries":
        return self.add(other.neg())

    def neg(self) -> "FracSeries":
        return FracSeries(self.alpha, self.trunc, {k: -e for k, e in self.coeffs})

    def mul(self, other: "FracSeries", kmax: int) -> "FracSeries":
        self._check_alpha(other)
        pairs = ((i, a, j, b) for i, a in self.coeffs for j, b in other.coeffs)
        return self._cauchy(pairs, _mul_weight, kmax)

    def square(self, kmax: int) -> "FracSeries":
        """self.mul(self, kmax), one symmetric product over the pairs i <= j."""
        cs = self.coeffs
        return self._cauchy(((i, a, j, b) for n, (i, a) in enumerate(cs) for j, b in cs[n:]),
                            _square_weight, kmax)

    def _cauchy(self, pairs, weight, kmax: int) -> "FracSeries":
        """Coefficients 0..kmax of sum weight(alpha, i, j)*a*b over pairs (i, a, j, b)."""
        triples: dict[int, list] = {}
        for i, a, j, b in pairs:
            if i + j <= kmax:
                triples.setdefault(i + j, []).append((a, b, weight(self.alpha, i, j)))
        return FracSeries(self.alpha, kmax, {k: sum_products(t) for k, t in triples.items()})

    def pow(self, p: int, kmax: int) -> "FracSeries":
        if p < 1:
            raise FracError(f"series power must be >= 1, got {p}")
        acc = self.square(kmax) if p > 1 else self.truncate(kmax)
        for _ in range(p - 2):
            acc = acc.mul(self, kmax)
        return acc

    def scalar_mul(self, s) -> "FracSeries":
        return FracSeries(
            self.alpha, self.trunc, {k: e.scalar_mul(s) for k, e in self.coeffs}
        )

    def expr_mul(self, e: Expr) -> "FracSeries":
        """Coefficientwise multiplication by a function of x only."""
        return FracSeries(self.alpha, self.trunc, {k: c * e for k, c in self.coeffs})

    # -- calculus on the grid ---------------------------------------------------------

    def dx(self, n: int = 1) -> "FracSeries":
        """Coefficientwise x-derivative."""
        return FracSeries(self.alpha, self.trunc, {k: e.diff_x(n) for k, e in self.coeffs})

    def scale_args(self, xscale, tscale) -> "FracSeries":
        """Proportional-delay substitution (x, t) -> (a*x, b*t).

        Coefficient k picks up the exact factor b^(k*alpha); requires
        rational alpha, which the series carries by construction.
        """
        a = Fraction(xscale)
        b = Fraction(tscale)
        if a <= 0 or b <= 0:
            raise FracError("argument scales must be positive rationals")
        out = {}
        for k, e in self.coeffs:
            out[k] = e.scale_x(a).scalar_mul(_time_power(b, k * self.alpha))
        return FracSeries(self.alpha, self.trunc, out)

    def caputo_shift(self, n: int) -> "FracSeries":
        """Caputo derivative of order n*alpha: index shift by n.

        Constants (index < n) are annihilated; coefficient k lands at
        index k - n unchanged thanks to the Gamma normalization.
        """
        if n < 0:
            raise FracError("Caputo shift order must be >= 0")
        out = {k - n: e for k, e in self.coeffs if k >= n}
        return FracSeries(self.alpha, max(self.trunc - n, 0), out)

    def truncate(self, kmax: int) -> "FracSeries":
        return FracSeries(self.alpha, kmax, {k: e for k, e in self.coeffs if k <= kmax})

    # -- identity -----------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FracSeries):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.alpha, self.trunc, self.coeffs))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {e.to_source()}" for k, e in self.coeffs)
        return f"FracSeries(alpha={self.alpha}, trunc={self.trunc}, {{{inner}}})"
