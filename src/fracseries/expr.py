"""Closed symbolic expression class for exponential-polynomials in one variable.

An Expr is a finite sum  sum_i p_i(x) * exp(mu_i * x)  where each p_i is a
polynomial in x with Scalar coefficients and each frequency mu_i is a
Scalar, pairwise distinct and sorted. Hyperbolics enter expanded:
cosh(c*x) = (exp(c*x) + exp(-c*x))/2. The class is closed under addition,
multiplication, d/dx and x -> a*x. The zero test is structural (an
expression is zero iff it has no terms), so it is exact only while the
Scalars are canonical. Rationals, parameters and prime atoms are. Gamma
atoms are canonical under translation and, at composite denominators up to
32, under the multiplication formula: gamma(3/2) is built as gamma(1/2)/2 and
gamma(3/4) as 2^(1/2)*gamma(1/2)^2/gamma(1/4), so
Expr.const(gamma(1/4)*gamma(3/4) - 2^(1/2)*gamma(1/2)^2).is_zero() holds.
Prime denominators have no relation applied: gamma(1/3)*gamma(2/3) and
2*3^(-1/2)*gamma(1/2)^2 are both 2pi/sqrt(3) but differ structurally, so
their difference is not zero here. sum_products forms a Gamma-weighted
Cauchy sum with each (frequency, x-degree) slot summed in one pass. The
series engine and the residual check share it, so a PASS verdict proves the
recurrence, not this arithmetic, which tests check on their own.
probe_equal and probe_zero compare
numerically at random points. They are helpers of this module, not package
exports, and no verdict or acceptance test uses them.

The variable is x for series coefficients and initial conditions. A
right-hand-side term's time coefficient is an Expr read in t instead
(exptime(c) is exp(c*t), polytime(c0, c1) is c0 + c1*t), and there diff_x
and scale_x act on t.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from fractions import Fraction
from typing import Mapping, Union

from .errors import EvalError, ExprError
from .scalar import ProductSum, Scalar, ScalarLike, power_by_squaring

ExprLike = Union["Expr", Scalar, int, Fraction]
FloatTerm = tuple[tuple[float, ...], float]


def _trim(poly: list[Scalar]) -> tuple[Scalar, ...]:
    while poly and poly[-1].is_zero():
        poly.pop()
    return tuple(poly)


class Expr:
    """Exponential-polynomial in x. Immutable, canonical."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple = (), _raw: bool = False):
        if not _raw:
            raise ExprError("use the Expr class methods or arithmetic")
        self.terms = terms

    # -- construction -------------------------------------------------------

    @staticmethod
    def _make(groups: dict[Scalar, list[Scalar]]) -> "Expr":
        terms = []
        for mu, poly in groups.items():
            tpoly = _trim(list(poly))
            if tpoly:
                terms.append((mu, tpoly))
        if len(terms) > 1:
            terms.sort(key=lambda t: t[0].to_source())
        return Expr(tuple(terms), _raw=True)

    @classmethod
    def zero(cls) -> "Expr":
        return _EXPR_ZERO

    @classmethod
    def one(cls) -> "Expr":
        return _EXPR_ONE

    @classmethod
    def const(cls, value: ScalarLike) -> "Expr":
        return cls.exponential(0, value)

    @classmethod
    def x(cls) -> "Expr":
        return cls._make({Scalar.zero(): [Scalar.zero(), Scalar.one()]})

    @classmethod
    def poly(cls, coeffs) -> "Expr":
        """Polynomial from coefficients low degree first."""
        return cls._make({Scalar.zero(): [Scalar._coerce(c) for c in coeffs]})

    @classmethod
    def exponential(cls, mu: ScalarLike, amplitude: ScalarLike = 1) -> "Expr":
        """amplitude * exp(mu*x)."""
        m = Scalar._coerce(mu)
        a = Scalar._coerce(amplitude)
        if a.is_zero():
            return _EXPR_ZERO
        return cls._make({m: [a]})

    @classmethod
    def cosh_of(cls, mu: ScalarLike) -> "Expr":
        return cls._hyperbolic(mu, 1)

    @classmethod
    def sinh_of(cls, mu: ScalarLike) -> "Expr":
        return cls._hyperbolic(mu, -1)

    @classmethod
    def _hyperbolic(cls, mu: ScalarLike, sign: int) -> "Expr":
        """(exp(mu*x) + sign*exp(-mu*x))/2: cosh for sign 1, sinh for -1."""
        m = Scalar._coerce(mu)
        half = Scalar.from_fraction(Fraction(1, 2))
        return cls.exponential(m, half) + cls.exponential(-m, sign * half)

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def as_scalar(self) -> Scalar | None:
        """The constant value if the expression does not depend on x."""
        if not self.terms:
            return Scalar.zero()
        if len(self.terms) == 1:
            mu, poly = self.terms[0]
            if mu.is_zero() and len(poly) == 1:
                return poly[0]
        return None

    def free_params(self) -> frozenset[str]:
        names: set[str] = set()
        for mu, poly in self.terms:
            names |= mu.free_params()
            for c in poly:
                names |= c.free_params()
        return frozenset(names)

    # -- arithmetic -------------------------------------------------------------

    @staticmethod
    def _coerce(v: ExprLike) -> "Expr":
        if isinstance(v, Expr):
            return v
        return Expr.const(Scalar._coerce(v))

    def __add__(self, other: ExprLike) -> "Expr":
        o = self._coerce(other)
        if not o.terms:
            return self
        if not self.terms:
            return o
        groups: dict[Scalar, list[Scalar]] = {}
        for mu, poly in self.terms + o.terms:
            acc = groups.setdefault(mu, [])
            for i, c in enumerate(poly):
                if i < len(acc):
                    acc[i] = acc[i] + c
                else:
                    acc.extend([Scalar.zero()] * (i - len(acc)))
                    acc.append(c)
        return Expr._make(groups)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(
            tuple((mu, tuple(-c for c in poly)) for mu, poly in self.terms), _raw=True
        )

    def __sub__(self, other: ExprLike) -> "Expr":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return self._coerce(other) + (-self)

    def __mul__(self, other: ExprLike) -> "Expr":
        o = self._coerce(other)
        groups: dict[Scalar, list[Scalar]] = {}
        for mu_a, pa in self.terms:
            for mu_b, pb in o.terms:
                mu = mu_a + mu_b
                acc = groups.setdefault(mu, [])
                need = len(pa) + len(pb) - 1
                if len(acc) < need:
                    acc.extend([Scalar.zero()] * (need - len(acc)))
                for i, ca in enumerate(pa):
                    if ca.is_zero():
                        continue
                    for j, cb in enumerate(pb):
                        if cb.is_zero():
                            continue
                        acc[i + j] = acc[i + j] + ca * cb
        return Expr._make(groups)

    __rmul__ = __mul__

    def scalar_mul(self, s: ScalarLike) -> "Expr":
        s = Scalar._coerce(s)
        if s.is_zero():
            return _EXPR_ZERO
        return Expr(
            tuple((mu, tuple(c * s for c in poly)) for mu, poly in self.terms),
            _raw=True,
        )

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int) or n < 0:
            raise ExprError(f"expression power must be a non-negative integer, got {n!r}")
        return power_by_squaring(self, n, Expr.one())

    # -- calculus -------------------------------------------------------------

    def diff_x(self, n: int = 1) -> "Expr":
        """n-th derivative with respect to x."""
        if n < 0:
            raise ExprError("derivative order must be >= 0")
        cur = self
        for _ in range(n):
            groups: dict[Scalar, list[Scalar]] = {}
            for mu, poly in cur.terms:
                # (p * e^{mu x})' = (p' + mu p) e^{mu x}
                deriv = [Scalar.zero()] * max(len(poly), 1)
                for i in range(1, len(poly)):
                    deriv[i - 1] = deriv[i - 1] + poly[i] * i
                if not mu.is_zero():
                    for i, c in enumerate(poly):
                        deriv[i] = deriv[i] + mu * c
                groups[mu] = deriv  # frequencies are distinct: nothing to merge
            cur = Expr._make(groups)
        return cur

    def scale_x(self, a) -> "Expr":
        """Substitute x -> a*x for a positive rational a."""
        a = Fraction(a)
        if a <= 0:
            raise ExprError(f"argument scale must be positive, got {a}")
        sa = Scalar.from_fraction(a)
        groups: dict[Scalar, list[Scalar]] = {}
        for mu, poly in self.terms:
            new_poly = [c * sa**i for i, c in enumerate(poly)]
            groups[mu * sa] = new_poly
        return Expr._make(groups)

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Expr, Scalar, int, Fraction)):
            return NotImplemented
        return self.terms == Expr._coerce(other).terms

    def __hash__(self):
        # agree with __eq__, which accepts Scalar, int and Fraction
        s = self.as_scalar()
        return hash(self.terms) if s is None else hash(s)

    # -- numerics ------------------------------------------------------------------

    def eval(self, x: float, params: Mapping[str, float] | None = None) -> float:
        return eval_float_terms(self.float_terms(params or {}), x)

    def float_terms(self, params: Mapping[str, float]) -> list[FloatTerm]:
        """Per term, under one float binding: the polynomial coefficients in
        Horner order (highest degree first) and the frequency."""
        # tuple of a list, not of a generator: this runs per coefficient per table
        return [(tuple([c.eval(params) for c in reversed(poly)]), mu.eval(params))
                for mu, poly in self.terms]

    # -- printing --------------------------------------------------------------------

    def to_source(self) -> str:
        """Deterministic, re-parseable form (exponentials kept unfolded)."""
        if not self.terms:
            return "0"
        chunks = []
        for mu, poly in self.terms:
            ptxt = _poly_source(poly)
            if mu.is_zero():
                chunks.append(ptxt)
            else:
                head = f"exp({_scaled_x_source(mu)})"
                if ptxt == "1":
                    chunks.append(head)
                else:
                    chunks.append(f"({ptxt})*{head}")
        return " + ".join(chunks)

    def pretty(self) -> str:
        """Human-oriented form: +/- frequency pairs fold into cosh/sinh."""
        if not self.terms:
            return "0"
        groups = {mu: list(poly) for mu, poly in self.terms}
        handled: set[Scalar] = set()
        chunks: list[str] = []
        for mu, poly in self.terms:
            if mu in handled:
                continue
            if mu.is_zero():
                handled.add(mu)
                chunks.append(_poly_source(tuple(poly)))
                continue
            neg = -mu
            if neg in groups:
                pos_mu = neg if mu.leading_coeff_negative() else mu
                p = groups[pos_mu]
                q = groups[-pos_mu]
                size = max(len(p), len(q))
                p = p + [Scalar.zero()] * (size - len(p))
                q = q + [Scalar.zero()] * (size - len(q))
                even = _trim([a + b for a, b in zip(p, q)])
                odd = _trim([a - b for a, b in zip(p, q)])
                arg = _scaled_x_source(pos_mu)
                if even:
                    chunks.append(_wrap_poly(even) + f"*cosh({arg})")
                if odd:
                    chunks.append(_wrap_poly(odd) + f"*sinh({arg})")
                handled.add(mu)
                handled.add(neg)
            else:
                handled.add(mu)
                chunks.append(_wrap_poly(tuple(poly)) + f"*exp({_scaled_x_source(mu)})")
        return " + ".join(chunks)

    def __str__(self) -> str:
        return self.to_source()

    def __repr__(self) -> str:
        return f"Expr({self.to_source()!r})"


def sum_products(triples) -> Expr:
    """The sum of (a * b).scalar_mul(w) over (a, b, w) triples. The pair
    products of a triple are summed per (frequency, x-degree) slot, scaled by
    w into that slot of the result, and each slot of the result is reduced
    once (ProductSum)."""
    slots = defaultdict(lambda: defaultdict(ProductSum))
    for a, b, w in triples:
        pairs = defaultdict(lambda: defaultdict(ProductSum))
        for mu_a, pa in a.terms:
            for mu_b, pb in b.terms:
                poly = pairs[mu_a + mu_b]
                for i, ca in enumerate(pa):
                    for j, cb in enumerate(pb):
                        if not (ca.is_zero() or cb.is_zero()):
                            poly[i + j].add(ca, cb)
        for mu, poly in pairs.items():
            out = slots[mu]
            for n, part in poly.items():
                out[n].add_scaled(part, w)
    return Expr._make({mu: [poly[n].value() if n in poly else Scalar.zero()
                            for n in range(max(poly) + 1)] for mu, poly in slots.items()})


def _scaled_x_source(mu: Scalar) -> str:
    if mu.is_one():
        return "x"
    src = mu.to_source()
    if len(mu.num) > 1:
        # a sum: parenthesize so the appended *x binds to the whole scalar
        return f"({src})*x"
    return f"{src}*x"


def _poly_source(poly: tuple[Scalar, ...]) -> str:
    chunks = []
    for deg, c in enumerate(poly):
        if c.is_zero():
            continue
        xpart = "" if deg == 0 else ("x" if deg == 1 else f"x^{deg}")
        csrc = c.to_source()
        needs_parens = len(c.num) > 1 or csrc.startswith("(")
        if not xpart:
            chunks.append(f"({csrc})" if needs_parens and len(poly) > 1 else csrc)
        elif c.is_one():
            chunks.append(xpart)
        else:
            base = f"({csrc})" if needs_parens else csrc
            chunks.append(f"{base}*{xpart}")
    return " + ".join(chunks)


def eval_float_terms(terms: list[FloatTerm], x: float) -> float:
    """The sum over float terms (see Expr.float_terms) of p(x) * exp(mu*x)."""
    total = 0.0
    try:
        for cs, mv in terms:
            pv = 0.0
            for c in cs:
                pv = pv * x + c
            total += pv * math.exp(mv * x) if mv != 0.0 else pv
    except OverflowError as exc:
        raise EvalError(f"overflow evaluating expression at x={x}") from exc
    return total


def _wrap_poly(poly: tuple[Scalar, ...]) -> str:
    src = _poly_source(poly)
    if len(poly) == 1 and len(poly[0].num) <= 1 and not src.startswith("("):
        return src
    return f"({src})"


# -- numeric equality probing ------------------------------------------------------

PROBE_POINTS = 8
PROBE_RTOL = 1e-9
_PROBE_SEED = 20260819
_PARAM_LOW, _PARAM_HIGH = 0.5, 2.0


def probe_equal(
    a: ExprLike,
    b: ExprLike,
    params: Mapping[str, float] | None = None,
    points: int = PROBE_POINTS,
    rtol: float = PROBE_RTOL,
    seed: int = _PROBE_SEED,
) -> bool:
    """Numeric fallback equality: evaluate both sides at random probe points.

    Unpinned parameters are sampled uniformly from [0.5, 2] (away from the
    singularities of the atom powers); x is sampled from [-1.5, 1.5].
    """
    ea, eb = Expr._coerce(a), Expr._coerce(b)
    rng = random.Random(seed)
    fixed = dict(params or {})
    names = sorted((ea.free_params() | eb.free_params()) - set(fixed))
    for _ in range(points):
        for attempt in range(8):
            vals = dict(fixed)
            for n in names:
                vals[n] = rng.uniform(_PARAM_LOW, _PARAM_HIGH)
            xv = rng.uniform(-1.5, 1.5)
            try:
                va = ea.eval(xv, vals)
                vb = eb.eval(xv, vals)
            except EvalError:
                if attempt == 7:
                    raise
                continue
            break
        scale = max(1.0, abs(va), abs(vb))
        if not (abs(va - vb) <= rtol * scale):
            return False
    return True


def probe_zero(
    e: ExprLike,
    scale_refs: tuple[ExprLike, ...] = (),
    params: Mapping[str, float] | None = None,
    points: int = 10,
    rtol: float = 1e-10,
    seed: int = _PROBE_SEED,
) -> bool:
    """Probe |e| <= rtol relative to the magnitude of the reference
    expressions (and of e's own term envelope)."""
    ee = Expr._coerce(e)
    refs = tuple(Expr._coerce(r) for r in scale_refs)
    rng = random.Random(seed)
    fixed = dict(params or {})
    names = set(ee.free_params()) - set(fixed)
    for r in refs:
        names |= r.free_params() - set(fixed)
    names = sorted(names)
    for _ in range(points):
        for attempt in range(8):
            vals = dict(fixed)
            for n in names:
                vals[n] = rng.uniform(_PARAM_LOW, _PARAM_HIGH)
            xv = rng.uniform(-1.5, 1.5)
            try:
                terms = ee.float_terms(vals)
                v = eval_float_terms(terms, xv)
                # envelope: the sum of absolute term magnitudes
                scale = max(1.0, eval_float_terms(
                    [(tuple(abs(c) for c in cs), abs(mv)) for cs, mv in terms], abs(xv)))
                for r in refs:
                    scale = max(scale, abs(r.eval(xv, vals)))
            except EvalError:
                if attempt == 7:
                    raise
                continue
            break
        if not (abs(v) <= rtol * scale):
            return False
    return True


_EXPR_ZERO = Expr((), _raw=True)
_EXPR_ONE = Expr(((Scalar.zero(), (Scalar.one(),)),), _raw=True)
