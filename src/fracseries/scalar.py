"""Exact symbolic constants.

A Scalar is a quotient num/den of two finite sums of monomials. A monomial
is a rational coefficient times a product of atoms raised to rational
exponents. Three atom kinds exist:

* named parameters (``nu``, ``omega``, ...), assumed positive wherever a
  fractional exponent touches them;
* gamma-function values at rational arguments in (0, 1): construction
  folds an integer argument n to (n-1)! and reduces gamma(f + n), f in
  (0, 1), to the rational (f)_n = f(f+1)...(f+n-1) times gamma(f), by
  the recurrence Gamma(z+1) = z*Gamma(z) (DLMF 5.5.1);
* prime bases carrying the fractional part of a rational-base power, so
  2^(-1/2) normalizes to the monomial (1/2) * 2^(1/2).

The representation is canonical: coefficients in lowest terms, zero terms
absent, monomials sorted, prime-atom exponents in (0, 1), denominators
normalized to leading coefficient one with common monomial content
cancelled. The zero Scalar is the unique empty numerator. Integral
exponents and integral coefficients are ints, everything else a Fraction;
an int equals and hashes like the Fraction of its value, so this changes
no comparison or printed form. Every non-integral exponent and Gamma
argument is the one shared instance of its value (a private Fraction
subclass that stores its hash), so signatures hash and compare without
entering Fraction.__hash__ or Fraction.__eq__, and the signature half of
a monomial product is memoized. Every division goes through Fraction, so
no coefficient is ever a float. Denominators equal to 1 share one
unit-sum tuple, and sums and products of such Scalars skip the quotient
normalization. Adding zero, multiplying by zero and multiplying by one
return an operand (or the zero Scalar) without arithmetic. Gamma
atoms are canonical under translation only: the reflection and
multiplication formulas are not applied, so gamma(1/4)*gamma(3/4) and
2^(1/2)*gamma(1/2)^2 (both pi*sqrt(2)) stay distinct, and a residual
check reports such a value-equal pair as nonzero. Sums are not factored,
so quotients reduce only up to monomial content.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import EvalError, ScalarError
from .gammafn import gamma_real

# An atom is a small tuple so that atoms order naturally by kind then value:
#   ('g', Fraction arg)   gamma(arg)
#   ('p', str name)       named parameter
#   ('r', int prime)      prime base with fractional exponent
Atom = tuple
# A signature is a sorted tuple of (atom, exponent) pairs with exponents != 0;
# an integral exponent is an int (hashed far faster than, and equal to, the
# Fraction of the same value), a non-integral one an interned _Q.
Sig = tuple
# A monomial coefficient: an int when integral, else a Fraction (see _demote).
Coeff = Union[int, Fraction]

_ZERO = Fraction(0)

_FACTOR_LIMIT = 10**9

ScalarLike = Union["Scalar", int, Fraction]


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    if n <= 0:
        raise ScalarError(f"cannot factor non-positive integer {n}")
    if n > _FACTOR_LIMIT:
        raise ScalarError(f"rational base {n} too large to factor")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2 if p % 6 == 5 else 4  # step over multiples of 2 and 3
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class _Q(Fraction):
    """The one shared instance of a non-integral rational in a signature.

    Made only by _intern, so two _Q are equal exactly when they are
    the same object. The hash is computed once; against another _Q,
    equality is identity and order one integer cross-multiplication, and
    against any other number both fall back to Fraction. A _Q therefore
    compares, hashes, orders and prints like the Fraction of its value,
    while tuple comparison and dict lookup on signatures short-circuit on
    identity. Fraction arithmetic on a _Q returns a plain Fraction.
    """

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if type(other) is _Q:
            return self is other
        return Fraction.__eq__(self, other)

    def __lt__(self, other):
        if type(other) is _Q:
            return self._numerator * other._denominator < other._numerator * self._denominator
        return Fraction.__lt__(self, other)

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    # pickling re-interns; copies are the instance itself
    def __reduce__(self):
        return _intern, (Fraction(self),)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


# Process-wide, as identity must be, and never pruned: it holds one entry per
# distinct Gamma argument or exponent (27 over the whole Tier-1 suite).
_INTERNED: dict[tuple[int, int], _Q] = {}


def _intern(q: Fraction) -> _Q:
    """The shared _Q of the non-integral rational q, made on first use."""
    if type(q) is _Q:
        return q
    key = (q.numerator, q.denominator)
    shared = _INTERNED.get(key)
    if shared is None:
        shared = Fraction.__new__(_Q, *key)
        shared._hash = Fraction.__hash__(shared)
        shared = _INTERNED.setdefault(key, shared)
    return shared


def _demote(q: Coeff) -> Coeff:
    """An integral Fraction as its int numerator; anything else unchanged."""
    return q.numerator if q.denominator == 1 else q


def _normalize_exponents(exps: dict[Atom, int | Fraction]) -> tuple[Sig, Coeff]:
    """Drop zero exponents, store integral ones as int, pull integer parts of
    prime-atom powers into a rational multiplier, and return a sorted
    signature."""
    mult = 1
    items = []
    for atom, e in exps.items():
        if not e:
            continue
        if atom[0] == "r":
            whole = e.numerator // e.denominator
            frac = e - whole
            if whole:
                mult *= Fraction(atom[1]) ** whole
            if frac:
                items.append((atom, _intern(frac)))
        else:
            items.append((atom, _intern(e) if e.denominator != 1 else int(e)))
    items.sort()
    return tuple(items), _demote(mult)


# Distinct signature pairs multiplied by solve plus residual_orders: at most
# 425 per benchmark case (605 in one delay-sweep process), 11,319 for
# burgers-delay at alpha 2/7, K = 12.
_SIG_MUL_CACHE_SIZE = 16384


@functools.lru_cache(maxsize=_SIG_MUL_CACHE_SIZE)
def _sig_mul(sig_a: Sig, sig_b: Sig) -> tuple[Sig, Coeff]:
    """The signature of a product of two monomials and its rational factor."""
    exps: dict[Atom, int | Fraction] = dict(sig_a)
    for atom, e in sig_b:
        exps[atom] = exps.get(atom, 0) + e
    return _normalize_exponents(exps)


def _mono_mul(sig_a: Sig, ca: Coeff, sig_b: Sig, cb: Coeff) -> tuple[Sig, Coeff]:
    if not sig_a or not sig_b:  # a normalized signature times a constant
        return sig_a or sig_b, _demote(ca * cb)
    sig, mult = _sig_mul(sig_a, sig_b)
    return sig, _demote(ca * cb * mult)


def _mono_inv(sig: Sig, c: Coeff) -> tuple[Sig, Coeff]:
    exps = {atom: -e for atom, e in sig}
    new_sig, mult = _normalize_exponents(exps)
    return new_sig, _demote(Fraction(mult) / c)  # int / int would be a float


def _mono_pow(sig: Sig, c: Coeff, e: Fraction) -> tuple[Sig, Coeff]:
    exps = {atom: ae * e for atom, ae in sig}
    sig2, mult = _normalize_exponents(exps)
    csig, cval = _rational_power(c, e)
    sig3, mult2 = _mono_mul(sig2, mult, csig, cval)
    return sig3, mult2


def _rational_power(q: Coeff, e: Fraction) -> tuple[Sig, Coeff]:
    """q**e as a monomial; q must be nonzero, and positive unless e is integral."""
    if q == 0:
        raise ScalarError("zero base in rational power")
    if e.denominator == 1:
        return (), _demote(Fraction(q) ** int(e))  # an int to a negative power is a float
    if q < 0:
        raise ScalarError(f"fractional power of negative rational {q}")
    exps: dict[Atom, Fraction] = {}
    for base, sign in ((q.numerator, 1), (q.denominator, -1)):
        for p, mult in _factorize(base).items():
            atom = ("r", p)
            exps[atom] = exps.get(atom, 0) + sign * mult * e
    return _normalize_exponents(exps)


# Sum helpers read iterables of (sig, coeff) pairs, return {sig: coeff} dicts.

def _sum_add(a, b) -> dict[Sig, Coeff]:
    out = dict(a)
    for sig, c in b:
        nc = out.get(sig, 0) + c
        if nc:
            out[sig] = _demote(nc)
        else:
            out.pop(sig, None)
    return out


def _sum_mul(a, b) -> dict[Sig, Coeff]:
    out: dict[Sig, Coeff] = {}
    for sig_a, ca in a:
        for sig_b, cb in b:
            sig, c = _mono_mul(sig_a, ca, sig_b, cb)
            nc = out.get(sig, 0) + c
            if nc:
                out[sig] = _demote(nc)
            else:
                out.pop(sig, None)
    return out


_ONE_SUM: tuple = (((), 1),)


class Scalar:
    """Exact constant: quotient of monomial sums. Immutable."""

    __slots__ = ("num", "den", "_src")

    def __init__(self, num, den, _raw: bool = False):
        if not _raw:
            raise ScalarError("use Scalar.from_fraction/param/gamma or arithmetic")
        self.num = num
        self.den = den
        self._src = None

    def __reduce__(self):  # an unpickled unit denominator is _ONE_SUM again
        return _rebuild, (self.num, self.den)

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(num: dict[Sig, Coeff], den) -> "Scalar":
        if den is _ONE_SUM:
            # num holds normalized signatures and no zero coefficients
            if not num:
                return _ZERO_SCALAR
            return Scalar(tuple(sorted(num.items())), _ONE_SUM, _raw=True)
        num = {sig: c for sig, c in num.items() if c}
        den = {sig: c for sig, c in dict(den).items() if c}
        if not den:
            raise ScalarError("division by a symbolically zero scalar")
        if not num:
            return _ZERO_SCALAR
        if len(den) == 1:
            (dsig, dc), = den.items()
            inv_sig, inv_c = _mono_inv(dsig, dc)
            folded: dict[Sig, Coeff] = {}
            for sig, c in num.items():
                s2, c2 = _mono_mul(sig, c, inv_sig, inv_c)
                folded[s2] = folded.get(s2, 0) + c2
            num = {s: _demote(c) for s, c in folded.items() if c}
            if not num:
                return _ZERO_SCALAR
            return Scalar(tuple(sorted(num.items())), _ONE_SUM, _raw=True)
        # multi-monomial denominator: cancel common atom content, then scale
        # so the canonically first denominator monomial has coefficient 1.
        monos = list(num.items()) + list(den.items())
        common: dict[Atom, Fraction] | None = None
        for sig, _ in monos:
            exps = dict(sig)
            if common is None:
                common = exps
            else:
                common = {
                    atom: min(e, exps[atom]) for atom, e in common.items() if atom in exps
                }
            if not common:
                break
        if common:
            inv_sig, inv_c = _mono_inv(tuple(sorted(common.items())), 1)
            num = dict(_mono_mul(s, c, inv_sig, inv_c) for s, c in num.items())
            den = dict(_mono_mul(s, c, inv_sig, inv_c) for s, c in den.items())
        den_items = sorted(den.items())
        scale = Fraction(den_items[0][1])  # int / int would be a float
        num_t = tuple(sorted((sig, _demote(c / scale)) for sig, c in num.items()))
        den_t = tuple((sig, _demote(c / scale)) for sig, c in den_items)
        # proportional num/den collapse to their constant ratio; den_t leads
        # with coefficient 1, so the ratio is the leading numerator coefficient
        if len(num_t) == len(den_t) and all(
            ns == ds for (ns, _), (ds, _) in zip(num_t, den_t)
        ):
            ratio = num_t[0][1]
            if all(nc == ratio * dc for (_, nc), (_, dc) in zip(num_t, den_t)):
                if ratio == 1:
                    return _ONE_SCALAR
                return Scalar((((), ratio),), _ONE_SUM, _raw=True)
        return Scalar(num_t, den_t, _raw=True)

    @classmethod
    def from_fraction(cls, q) -> "Scalar":
        q = q if type(q) is int else _demote(Fraction(q))
        return cls._make({(): q} if q else {}, _ONE_SUM)

    @classmethod
    def zero(cls) -> "Scalar":
        return _ZERO_SCALAR

    @classmethod
    def one(cls) -> "Scalar":
        return _ONE_SCALAR

    @classmethod
    def param(cls, name: str) -> "Scalar":
        return cls._make({((("p", name), 1),): 1}, _ONE_SUM)

    @classmethod
    def gamma(cls, arg) -> "Scalar":
        arg = Fraction(arg)
        if arg <= 0:
            raise ScalarError(f"gamma argument must be positive, got {arg}")
        if arg.denominator == 1:
            return cls.from_fraction(math.factorial(int(arg) - 1))
        n = arg.numerator // arg.denominator
        f = arg - n
        poch = _demote(math.prod((f + i for i in range(n)), start=Fraction(1)))
        return cls._make({((("g", _intern(f)), 1),): poch}, _ONE_SUM)

    @classmethod
    def rational_power(cls, base, exp) -> "Scalar":
        base = Fraction(base)
        exp = Fraction(exp)
        if base == 0:
            if exp > 0:
                return cls.zero()
            raise ScalarError("0 raised to a non-positive power")
        sig, c = _rational_power(base, exp)
        return cls._make({sig: c}, _ONE_SUM)

    # -- shape predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == _ONE_SUM and self.den == _ONE_SUM

    def as_fraction(self) -> Fraction | None:
        """The exact rational value, or None if atoms remain."""
        if self.den != _ONE_SUM:
            return None
        if not self.num:
            return _ZERO
        if len(self.num) == 1 and self.num[0][0] == ():
            return Fraction(self.num[0][1])
        return None

    def free_params(self) -> frozenset[str]:
        names = set()
        for part in (self.num, self.den):
            for sig, _ in part:
                for atom, _e in sig:
                    if atom[0] == "p":
                        names.add(atom[1])
        return frozenset(names)

    def leading_coeff_negative(self) -> bool:
        return bool(self.num) and self.num[0][1] < 0

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(v: ScalarLike) -> "Scalar":
        if isinstance(v, Scalar):
            return v
        if isinstance(v, (int, Fraction)):
            return Scalar.from_fraction(v)
        raise TypeError(f"cannot use {type(v).__name__} as a Scalar")

    def __add__(self, other: ScalarLike) -> "Scalar":
        o = self._coerce(other)
        if not o.num:
            return self
        if not self.num:
            return o
        if self.den == o.den:
            return Scalar._make(_sum_add(self.num, o.num), self.den)
        n = _sum_add(_sum_mul(self.num, o.den), _sum_mul(o.num, self.den).items())
        return Scalar._make(n, _sum_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        # negating the numerator keeps every canonical property of num/den
        return Scalar(tuple((sig, -c) for sig, c in self.num), self.den, _raw=True)

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return self._coerce(other) + (-self)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = self._coerce(other)
        if not self.num or not o.num:
            return _ZERO_SCALAR
        if self.den is _ONE_SUM and self.num == _ONE_SUM:
            return o
        if o.den is _ONE_SUM and o.num == _ONE_SUM:
            return self
        den = _ONE_SUM if self.den is o.den is _ONE_SUM else _sum_mul(self.den, o.den)
        return Scalar._make(_sum_mul(self.num, o.num), den)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        o = self._coerce(other)
        if o.is_zero():
            raise ScalarError("division by a symbolically zero scalar")
        return Scalar._make(_sum_mul(self.num, o.den), _sum_mul(self.den, o.num))

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return self._coerce(other) / self

    def __pow__(self, exp) -> "Scalar":
        e = Fraction(exp)
        if e.denominator == 1:
            n = int(e)
            if n == 0:
                return Scalar.one()
            base = self if n > 0 else Scalar.one() / self
            n = abs(n)
            acc = Scalar.one()
            while n:
                if n & 1:
                    acc = acc * base
                base = base * base if n > 1 else base
                n >>= 1
            return acc
        if len(self.num) == 1 and len(self.den) == 1:
            nsig, nc = _mono_pow(*self.num[0], e)
            dsig, dc = _mono_pow(*self.den[0], e)
            return Scalar._make({nsig: nc}, {dsig: dc})
        if self.is_zero() and e > 0:
            return Scalar.zero()
        raise ScalarError(
            f"fractional power {e} of a non-monomial scalar is outside the class"
        )

    def sqrt(self) -> "Scalar":
        return self ** Fraction(1, 2)

    # -- structural identity ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_fraction(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # agree with __eq__, which accepts int and Fraction: a constant
        # hashes like its coefficient, and an int like the equal Fraction
        num = self.num
        if self.den == _ONE_SUM:
            if not num:
                return 0
            if len(num) == 1 and not num[0][0]:
                return hash(num[0][1])
        return hash((num, self.den))

    # -- numerics ----------------------------------------------------------------

    def eval(self, params: Mapping[str, float] | None = None) -> float:
        params = params or {}
        try:
            nv = _eval_sum(self.num, params)
            dv = _eval_sum(self.den, params)
        except OverflowError as exc:
            raise EvalError(f"overflow evaluating scalar {self}") from exc
        if dv == 0.0:
            raise EvalError(f"denominator of {self} evaluates to zero")
        return nv / dv

    # -- printing ------------------------------------------------------------------

    def to_source(self) -> str:
        if self._src is None:
            if self.den == _ONE_SUM:
                src = _sum_source(self.num)
            else:
                src = f"({_sum_source(self.num)})/({_sum_source(self.den)})"
            self._src = src
        return self._src

    def sort_key(self) -> str:
        return self.to_source()

    def __str__(self) -> str:
        return self.to_source()

    def __repr__(self) -> str:
        return f"Scalar({self.to_source()!r})"


def _eval_atom(atom: Atom, e: Fraction, params: Mapping[str, float]) -> float:
    kind = atom[0]
    if kind == "p":
        name = atom[1]
        if name not in params:
            raise EvalError(f"unbound parameter '{name}'")
        base = float(params[name])
        if base < 0.0 and e.denominator != 1:
            raise EvalError(f"parameter '{name}' = {base} under fractional power")
        if base == 0.0 and e < 0:
            raise EvalError(f"parameter '{name}' = 0 under negative power")
        return base ** float(e)
    if kind == "g":
        return gamma_real(float(atom[1])) ** float(e)
    return float(atom[1]) ** float(e)


def _eval_sum(monos: Iterable, params: Mapping[str, float]) -> float:
    total = 0.0
    for sig, c in monos:
        v = float(c)
        for atom, e in sig:
            v *= _eval_atom(atom, e, params)
        total += v
    return total


def _exp_source(e: Fraction) -> str:
    if e == 1:
        return ""
    if e.denominator == 1 and e > 0:
        return f"^{e}"
    return f"^({e})"


def _atom_source(atom: Atom) -> str:
    kind = atom[0]
    if kind == "p":
        return atom[1]
    if kind == "g":
        return f"gamma({atom[1]})"
    return str(atom[1])


def _mono_source(sig: Sig, coeff: Fraction) -> tuple[bool, str]:
    neg = coeff < 0
    c = -coeff if neg else coeff
    if not sig:
        return neg, str(c)
    parts = [] if c == 1 else [str(c)]
    for atom, e in sig:
        if atom[0] == "r":
            parts.append(f"{atom[1]}^({e})")
        else:
            parts.append(_atom_source(atom) + _exp_source(e))
    return neg, "*".join(parts)


def _sum_source(monos) -> str:
    if not monos:
        return "0"
    chunks = []
    for i, (sig, c) in enumerate(monos):
        neg, txt = _mono_source(sig, c)
        if i == 0:
            chunks.append(("-" if neg else "") + txt)
        else:
            chunks.append((" - " if neg else " + ") + txt)
    return "".join(chunks)


def _rebuild(num, den) -> Scalar:
    return Scalar(num, _ONE_SUM if den == _ONE_SUM else den, _raw=True)


_ZERO_SCALAR = Scalar((), _ONE_SUM, _raw=True)
_ONE_SCALAR = Scalar(_ONE_SUM, _ONE_SUM, _raw=True)
