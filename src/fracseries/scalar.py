"""Exact symbolic constants.

A Scalar is a quotient num/den of two finite sums of monomials. A monomial
is a rational coefficient times a product of atoms raised to rational
exponents. Three atom kinds exist:

* named parameters (``nu``, ``omega``, ...), assumed positive wherever a
  fractional exponent touches them;
* gamma-function values at rational arguments in (0, 1): construction
  folds an integer argument n to (n-1)! and reduces gamma(f + n), f in
  (0, 1), to the rational (f)_n = f(f+1)...(f+n-1) times gamma(f), by
  the recurrence Gamma(z+1) = z*Gamma(z) (DLMF 5.5.1), and gamma(f) to
  its canonical form over a basis of Gamma atoms (below);
* prime bases carrying the fractional part of a rational-base power, so
  2^(-1/2) normalizes to the monomial (1/2) * 2^(1/2).

The representation is canonical: coefficients in lowest terms, zero terms
absent, prime-atom exponents in (0, 1), denominators normalized to leading
coefficient one with common monomial content cancelled. The zero Scalar is
the unique empty numerator. Every division goes through Fraction, so no
coefficient is ever a float.

Stored form. The product of atom powers of a monomial (its signature) is
interned in a process-wide table and named by a small int id, 0 for the
empty signature. Each of num and den is a tuple of (signature id, int
numerator) pairs sorted by id, over one positive int denominator (nd, dd)
whose gcd with the numerators is 1; a denominator equal to 1 is the shared
unit sum over 1. A product of two monomial sums is then a loop of int
products and lookups in a bounded LRU cache of signature products, which
carries the prime atoms' integer parts out as an int factor; a sum adds
ints after one lcm rescale; hashing, equality and sorting compare ints.
Sums and products of Scalars with denominator 1 skip the quotient
normalization, and adding zero, multiplying by zero and multiplying by one
return an operand (or the zero Scalar) without arithmetic. Each id is
decoded once, on first use: its atoms are sorted once into their canonical
order, and from that order come its decoded signature, its sort key, its
printed text (gamma(1/7)^2*2^(3/7)) and the factors eval multiplies by (a
Gamma or prime atom's power as one float, a parameter as (name, n, d), bound
at each call); an atom's float value is formed once, on its first eval.
Interning computes none of these, so exact arithmetic never evaluates. A
Scalar keeps its numerator's pairs in the canonical order, sorted on first
eval or print, and its printed text.

Ids depend on the order in which a process first met its signatures, so
nothing that must not depend on it reads them. The canonical order of
monomials sorts their decoded signatures, tuples of (atom, exponent) pairs
with an integral exponent an int and any other a Fraction: it sets the
printed order, the order of float operations in eval, the sign
leading_coeff_negative reports, and which denominator monomial is scaled
to 1. What is kept per id depends only on the signature, and what a Scalar
keeps only on its sums, so neither depends on the ids. A Scalar pickles as
its decoded sums, without what it keeps, so a pickle is independent of the
process that wrote it.

Gamma atoms follow Gauss's multiplication formula (DLMF 5.5.6),
prod_{j<n} Gamma(z + j/n) = (2pi)^((n-1)/2) n^(1/2 - n z) Gamma(n z), which
stays in the ring because pi = gamma(1/2)^2. For each reduced denominator
q (a level) with a proper divisor n, the formulas at z = a/q are solved
for some of the level's atoms in terms of the others, so gamma(f) is one
monomial over basis atoms with integral Gamma exponents, and the form
depends on f alone. Levels above 32 are left as they are, since the cost
of building a level grows faster than q^1.5. gamma(3/4) is 2^(1/2)*gamma(1/2)^2/gamma(1/4), so
gamma(1/4)*gamma(3/4) - 2^(1/2)*gamma(1/2)^2 is structurally zero, and
gamma(1/6) and gamma(5/6) are written over gamma(1/2), gamma(1/3) and
gamma(2/3). A prime level is left out: its one relation, the
distribution formula n = q, merged no monomials where measured and made
the solver slower. So gamma(1/3)*gamma(2/3) and 2*3^(-1/2)*gamma(1/2)^2
(both 2pi/sqrt(3)) stay distinct, and a residual check reports such a
value-equal pair as nonzero. Sums are not factored, so quotients reduce
only up to monomial content.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from fractions import Fraction
from typing import Mapping, Union

from .errors import EvalError, ScalarError
from .gammafn import gamma_real

# An atom is a small tuple so that atoms order naturally by kind then value:
#   ('g', Fraction arg)   gamma(arg)
#   ('p', str name)       named parameter
#   ('r', int prime)      prime base with fractional exponent
Atom = tuple
# A decoded signature is a tuple of (atom, exponent) pairs sorted by atom,
# with exponents != 0, an integral one an int and any other a Fraction.
Sig = tuple
# A monomial coefficient outside the stored sums: an int when integral, else
# a Fraction (see _demote).
Coeff = Union[int, Fraction]

_ZERO = Fraction(0)

_FACTOR_LIMIT = 10**9

ScalarLike = Union["Scalar", int, Fraction]


def _shown(value, bits: int, noun: str = "") -> str:
    """value as printed while its largest integer has at most 128 bits (about 39
    digits), else noun and that size: past str()'s limit the digits fail to format.
    A print past 100 characters is cut there and ends in "..."."""
    if bits > 128:
        return f"{noun}with a {bits}-bit integer"
    s = str(value)
    return s if len(s) <= 100 else s[:100] + "..."


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    if n <= 0:
        raise ScalarError(f"cannot factor non-positive integer {n}")
    if n > _FACTOR_LIMIT:
        raise ScalarError(f"rational base {_shown(n, n.bit_length())} too large to factor")
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


def power_by_squaring(base, n: int, one, mul=operator.mul):
    """base**n for an int n >= 0 in any ring, one its unit and mul its product."""
    acc = one
    while n:
        if n & 1:
            acc = mul(acc, base)
        base = mul(base, base) if n > 1 else base
        n >>= 1
    return acc


def _demote(q: Coeff) -> Coeff:
    """An integral Fraction as its int numerator; anything else unchanged."""
    return q.numerator if q.denominator == 1 else q


# Atoms by index, with the prime of each prime atom (0 for the other kinds)
# and a sort key (see _sort_key). Process-wide and never pruned, as stored
# signatures name atoms by index.
_ATOMS: list[Atom] = []
_ATOM_IDS: dict[Atom, int] = {}
_PRIMES: list[int] = []
_ATOM_KEYS: list[tuple] = []
# Held to add an atom or a signature; lookups need none, as an index enters its dict last.
_INTERN_LOCK = threading.Lock()


def _atom_id(atom: Atom) -> int:
    i = _ATOM_IDS.get(atom)
    if i is None:
        with _INTERN_LOCK:
            i = _ATOM_IDS.get(atom)
            if i is None:
                _ATOMS.append(atom)
                _PRIMES.append(atom[1] if atom[0] == "r" else 0)
                _ATOM_KEYS.append(("g", float(atom[1]), atom[1]) if atom[0] == "g" else atom)
                i = _ATOM_IDS[atom] = len(_ATOMS) - 1
    return i


# A signature's key is a tuple of (atom index, exponent numerator, exponent
# denominator) triples sorted by atom index: exponents nonzero and in lowest
# terms, prime-atom exponents in (0, 1). Its id is its index in _SIG_KEYS.
# Process-wide and never pruned, as a stored Scalar may name any id: one
# entry per distinct signature formed, 3,805 after the Tier-1 suite, 190 in a
# delay-sweep benchmark process, 4,809 after burgers-delay at alpha 2/7,
# K = 14 (solve and residual check) and 10,911 at K = 16.
_SIG_KEYS: list[tuple] = [()]
_SIG_IDS: dict[tuple, int] = {(): 0}


def _intern_sig(exps: dict[int, tuple[int, int]]) -> tuple[int, Coeff]:
    """The id of the signature with these exponents (atom index -> (numerator,
    denominator) in lowest terms, zeros allowed) and the rational it carries
    out of prime atoms whose exponents leave (0, 1)."""
    mult = 1
    key = []
    for a in sorted(exps):
        n, d = exps[a]
        p = _PRIMES[a]
        if p and not 0 <= n < d:
            whole = n // d
            n -= whole * d
            mult *= p**whole if whole > 0 else Fraction(1, p**-whole)
        if n:
            key.append((a, n, d))
    key = tuple(key)
    k = _SIG_IDS.get(key)
    if k is None:
        with _INTERN_LOCK:
            k = _SIG_IDS.get(key)
            if k is None:
                _SIG_KEYS.append(key)
                k = _SIG_IDS[key] = len(_SIG_KEYS) - 1
    return k, mult


def _encode(exps: Mapping[Atom, int | Fraction]) -> tuple[int, Coeff]:
    """The id of the signature prod atom^e and its carried rational."""
    return _intern_sig({_atom_id(atom): (e.numerator, e.denominator) for atom, e in exps.items()})


@functools.cache
def _rational(n: int, d: int) -> Fraction:
    """The one Fraction n/d (in lowest terms) that decoded signatures share."""
    return Fraction(n, d)


# The caches below hold one entry per id (or, for _atom_float, per atom) they
# have seen, so they grow with _SIG_KEYS and _ATOMS and no faster. The atom
# order is sorted once per id, and the decoded signature, the sort key, the
# float factors and the printed text are each formed from it once. Nothing
# here runs when an id is interned, so exact arithmetic never evaluates.

@functools.cache
def _atom_order(k: int) -> tuple[tuple[int, int, int], ...]:
    """The key triples of signature k in the order of their atoms."""
    return tuple(sorted(_SIG_KEYS[k], key=lambda t: _ATOM_KEYS[t[0]]))


@functools.cache
def _decoded(k: int) -> Sig:
    """The signature of id k as sorted (atom, exponent) pairs."""
    return tuple((_ATOMS[a], n if d == 1 else _rational(n, d)) for a, n, d in _atom_order(k))


@functools.cache
def _sort_key(k: int) -> tuple:
    """A key that orders ids as their decoded signatures do, in C comparisons.

    Each rational r (an exponent, a Gamma argument) is written (float(r), r).
    Rounding is monotone, so unequal floats order as their rationals do and
    only equal floats fall through to r; equal atoms and equal exponents are
    shared objects, which compare by identity.
    """
    return tuple((_ATOM_KEYS[a], n / d, n if d == 1 else _rational(n, d))
                 for a, n, d in _atom_order(k))


def _canonical(item: tuple[int, int]) -> tuple:
    """Sort key of a stored (id, numerator) pair in the canonical order."""
    return _sort_key(item[0])


@functools.cache
def _atom_float(a: int) -> float:
    """The float value of Gamma or prime atom a. A Gamma argument below the
    float range, or whose Gamma value is past it, is an EvalError."""
    kind, v = _ATOMS[a]
    x = float(v)
    if kind == "r":
        return x
    try:
        if x != 0.0:
            return gamma_real(x)
    except OverflowError:
        pass
    bits = max(v.numerator.bit_length(), v.denominator.bit_length())
    raise EvalError(f"overflow: gamma of {_shown(v, bits, 'an argument ')} is past the float range")


@functools.cache
def _factors(k: int) -> tuple:
    """What eval multiplies a monomial of signature k by, in the order of its
    atoms: a Gamma or prime atom's power as a float, a parameter as (name, n, d),
    bound at each evaluation. n / d rounds once, as float(Fraction(n, d)) does."""
    return tuple((_ATOMS[a][1], n, d) if _ATOMS[a][0] == "p" else _atom_float(a) ** (n / d)
                 for a, n, d in _atom_order(k))


@functools.cache
def _sig_source(k: int) -> str:
    """Signature k as printed, its atom powers joined by '*' ('' for id 0)."""
    parts = []
    for a, n, d in _atom_order(k):
        kind, v = _ATOMS[a]
        parts.append((f"gamma({v})" if kind == "g" else str(v)) + _exp_source(n, d))
    return "*".join(parts)


# The product is symmetric, so _sum_mul passes each pair in order and one entry serves
# both. Distinct pairs multiplied in one process: 564 by a delay-sweep benchmark run, 175 by
# wave-params, none by dense-grid (no atoms), 2,778 by the whole Tier-1 suite, and by
# burgers-delay at alpha 2/7 (solve plus residual check) 11,319 at K = 12, 36,622 at K = 14
# and 127,434 at K = 16. An entry costs about 115 bytes; a table of 65,536, cleared whole
# when full, took that solve at K = 16 from 1.6-1.9 + 1.0-1.1 s to 2.4 + 2.2-2.3 s.
@functools.lru_cache(maxsize=1 << 17)
def _sig_mul(ka: int, kb: int) -> tuple[int, int]:
    """The signature of a product of two monomials and its integer factor.

    The factor is always an int, which _sum_mul's integer arithmetic relies
    on: normalized prime-atom exponents lie in (0, 1), so a sum of two lies
    in (0, 2) and carries p^0 or p^1 out of the atom; Gamma and parameter
    atoms carry nothing.
    """
    exps = {a: (n, d) for a, n, d in _SIG_KEYS[ka]}
    for a, n, d in _SIG_KEYS[kb]:
        old = exps.get(a)
        if old is not None:
            n0, d0 = old
            if d0 == d:
                n += n0
            else:
                n, d = n0 * d + n * d0, d0 * d
            g = math.gcd(n, d)
            n, d = n // g, d // g
        exps[a] = (n, d)
    return _intern_sig(exps)


# Sum helpers take stored sums as iterables of (id, int) pairs with their
# denominators and return {id: int} dicts, zero entries not yet dropped, with
# their denominators; _reduce puts such a result in the stored form.

def _sum_add(a, da: int, b, db: int) -> tuple[dict[int, int], int]:
    d = da if da == db else math.lcm(da, db)
    sa, sb = d // da, d // db
    out = dict(a) if sa == 1 else {k: c * sa for k, c in a}
    get = out.get
    for k, c in b:
        out[k] = get(k, 0) + c * sb
    return out, d


def _sum_mul(a, da: int, b, db: int, acc: dict[int, int] | None = None) -> tuple[dict[int, int], int]:
    """a*b, added into acc when one is given."""
    if acc is None:
        acc = {}
    get = acc.get
    for ka, ca in a:
        if not ka:  # a constant times each monomial of b
            for kb, cb in b:
                acc[kb] = get(kb, 0) + ca * cb
            continue
        for kb, cb in b:
            if kb:
                k, mult = _sig_mul(ka, kb) if ka <= kb else _sig_mul(kb, ka)
                acc[k] = get(k, 0) + ca * cb * mult
            else:
                acc[ka] = get(ka, 0) + ca * cb
    return acc, da * db


def _reduce(acc: dict[int, int], d: int) -> tuple[tuple, int]:
    """acc/d as a stored sum: nonzero pairs sorted by id over the least
    positive denominator."""
    monos = [item for item in acc.items() if item[1]]
    if not monos:
        return (), 1
    if d != 1:
        g = math.gcd(d, *[c for _, c in monos])
        if g != 1:
            d //= g
            monos = [(k, c // g) for k, c in monos]
    monos.sort()
    return tuple(monos), d


def _mono_inv(k: int, c: Coeff) -> tuple[int, Coeff]:
    inv, mult = _intern_sig({a: (-n, d) for a, n, d in _SIG_KEYS[k]})
    return inv, _demote(Fraction(mult) / c)  # int / int would be a float


def _mono_pow(k: int, c: Coeff, e: Fraction) -> tuple[int, Coeff]:
    k2, mult = _encode({atom: ae * e for atom, ae in _decoded(k)})
    ck, cv = _rational_power(c, e)
    k3, mult3 = _sig_mul(k2, ck)
    return k3, _demote(mult * cv * mult3)


def _rational_power(q: Coeff, e: Fraction) -> tuple[int, Coeff]:
    """q**e as a monomial; q must be nonzero, and positive unless e is integral."""
    if q == 0:
        raise ScalarError("zero base in rational power")
    if e.denominator == 1:
        return 0, _demote(Fraction(q) ** int(e))  # an int to a negative power is a float
    if q < 0:
        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
        raise ScalarError(f"fractional power of negative rational {_shown(q, bits)}")
    exps: dict[Atom, Fraction] = {}
    for base, sign in ((q.numerator, 1), (q.denominator, -1)):
        for p, mult in _factorize(base).items():
            atom = ("r", p)
            exps[atom] = exps.get(atom, 0) + sign * mult * e
    return _encode(exps)


def _substitute(k: int, c: Coeff, forms: Mapping) -> tuple[int, Coeff]:
    """The monomial c*sig(k) with each Gamma atom whose argument forms maps
    replaced by that form."""
    exps: dict[Atom, int | Fraction] = {}
    for atom, e in _decoded(k):
        form = forms.get(atom[1]) if atom[0] == "g" else None
        if form is None:
            exps[atom] = exps.get(atom, 0) + e
            continue
        fk, fc = form
        c = c * Fraction(fc) ** e  # Gamma exponents are ints
        for fatom, fe in _decoded(fk):
            exps[fatom] = exps.get(fatom, 0) + fe * e
    new_k, mult = _encode(exps)
    return new_k, _demote(c * mult)


def _multiplication_relation(z: Fraction, n: int) -> tuple[int, Coeff]:
    """Gauss's multiplication formula (DLMF 5.5.6) as a monomial equal to 1:
    prod_{j<n} Gamma(z + j/n) / ((2pi)^((n-1)/2) n^(1/2 - n z) Gamma(n z)),
    with pi = gamma(1/2)^2, for z in (0, 1/n] so every argument is in (0, 1]."""
    exps: dict[Atom, int | Fraction] = {}

    def gamma_power(arg: Fraction, e: int) -> None:
        if arg != 1:  # Gamma(1) = 1
            atom = ("g", arg)
            exps[atom] = exps.get(atom, 0) + e

    for j in range(n):
        gamma_power(z + Fraction(j, n), 1)
    gamma_power(n * z, -1)
    gamma_power(Fraction(1, 2), 1 - n)
    exps[("r", 2)] = Fraction(1 - n, 2)
    for p, mult in _factorize(n).items():
        exps[("r", p)] = exps.get(("r", p), 0) + mult * (n * z - Fraction(1, 2))
    return _encode(exps)


# Levels above this keep their Gamma atoms as they are. Building one level
# takes time growing faster than q^1.5, divisor levels included: up to 10 ms
# for any q <= 32, 75 ms at q = 96 and 5 s at q = 5000 (alpha 0.1234) on one
# core of a shared Xeon. On burgers-delay at K = 12 the relations merged
# monomials up to q = 20 and none from 21 to 36.
_GAMMA_LEVEL_LIMIT = 32


def _gamma_form(f: Fraction) -> tuple[int, Coeff]:
    """The canonical monomial of gamma(f), f in (0, 1): the atom itself unless
    its level eliminates it."""
    q = f.denominator
    form = _gamma_level(q).get(f) if q <= _GAMMA_LEVEL_LIMIT else None
    return form or (_encode({("g", f): 1})[0], 1)


@functools.cache
def _gamma_level(q: int) -> dict[Fraction, tuple[int, Coeff]]:
    """The forms of the atoms gamma(a/q) that level q eliminates, as monomials
    (id, coeff) over basis atoms; the level's other atoms form its basis.

    The relations are the multiplication formulas for the proper divisors n
    of q (1 < n < q) at z = a/q in (0, 1/n]; a prime level has none. Each
    relation has the forms of the lower levels substituted, then the forms
    of this level's earlier pivots, until none is left. It is solved for its
    largest atom of exact denominator q with exponent +-1 (the pivot). A
    relation with no such atom is dropped: it is implied by the earlier
    ones, relates lower levels only (such as the distribution relation of a
    prime level d | q), or could be solved only with a non-integral Gamma
    exponent. A pivot's form may hold later pivots, never earlier ones, so
    substituting into the forms latest first leaves every form over basis
    atoms only; it depends on a/q alone.
    """
    divisors = [n for n in range(2, q) if q % n == 0]
    lower: dict[Fraction, tuple[int, Coeff]] = {}
    for d in divisors:
        lower.update(_gamma_level(d))
    pivots: dict[Fraction, tuple[int, Coeff]] = {}
    for n in divisors:
        for a in range(1, q // n + 1):
            k, c = _substitute(*_multiplication_relation(Fraction(a, q), n), lower)
            while any(atom[0] == "g" and atom[1] in pivots for atom, _ in _decoded(k)):
                k, c = _substitute(k, c, pivots)
            sig = _decoded(k)
            pivot = max(
                (atom for atom, e in sig
                 if atom[0] == "g" and atom[1].denominator == q and e in (1, -1)),
                default=None,
            )
            if pivot is None:
                continue
            # a part of a normalized signature carries nothing
            rest = _encode({atom: e for atom, e in sig if atom != pivot})[0]
            # c * gamma(pivot)^e * rest = 1 with e = +-1
            pivots[pivot[1]] = (rest, c) if dict(sig)[pivot] == -1 else _mono_inv(rest, c)
    for f in reversed(list(pivots)):
        pivots[f] = _substitute(*pivots[f], pivots)
    return pivots


_ONE_SUM: tuple = ((0, 1),)


class Scalar:
    """Exact constant: quotient of monomial sums. Immutable.

    num/nd over den/dd in the stored form of the module docstring; the
    canonical order of num and the printed text are kept on first use.
    """

    __slots__ = ("num", "nd", "den", "dd", "_src", "_order")

    def __init__(self, num, nd, den, dd, _raw: bool = False):
        if not _raw:
            raise ScalarError("use Scalar.from_fraction/param/gamma or arithmetic")
        self.num = num
        self.nd = nd
        self.den = den
        self.dd = dd
        self._src = None
        self._order = None

    def _num_order(self):
        """num's pairs in the canonical order."""
        if self._order is None:
            self._order = sorted(self.num, key=_canonical) if len(self.num) > 1 else self.num
        return self._order

    def __reduce__(self):  # decoded, so a pickle does not depend on this process's ids
        return _rebuild, (_decode_sum(self.num, self.nd), _decode_sum(self.den, self.dd))

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(num: dict[int, int], nd: int, den=_ONE_SUM, dd: int = 1) -> "Scalar":
        if den is _ONE_SUM:
            num, nd = _reduce(num, nd)
            if not num:
                return _ZERO_SCALAR
            return Scalar(num, nd, _ONE_SUM, 1, _raw=True)
        den, dd = _reduce(den, dd)
        if not den:
            raise ScalarError("division by a symbolically zero scalar")
        num, nd = _reduce(num, nd)
        if not num:
            return _ZERO_SCALAR
        if len(den) == 1:
            (k, c), = den
            inv_k, inv_c = _mono_inv(k, Fraction(c, dd))
            return Scalar._make(*_sum_mul(num, nd, ((inv_k, inv_c.numerator),), inv_c.denominator))
        # multi-monomial denominator: cancel common atom content, then scale
        # so the canonically first denominator monomial has coefficient 1.
        common: dict[int, Fraction] | None = None
        for k, _ in num + den:
            exps = {a: Fraction(n, d) for a, n, d in _SIG_KEYS[k]}
            if common is None:
                common = exps
            else:
                common = {a: min(e, exps[a]) for a, e in common.items() if a in exps}
            if not common:
                break
        if common:
            inv_k, mult = _intern_sig({a: (-e.numerator, e.denominator) for a, e in common.items()})
            inv = ((inv_k, mult.numerator),), mult.denominator
            num, nd = _reduce(*_sum_mul(num, nd, *inv))
            den, dd = _reduce(*_sum_mul(den, dd, *inv))
        first = min(den, key=_canonical)[1]
        sign = 1 if first > 0 else -1
        num, nd = _reduce({k: c * dd * sign for k, c in num}, nd * abs(first))
        den, dd = _reduce({k: c * sign for k, c in den}, abs(first))
        # proportional num/den collapse to their constant ratio
        if [k for k, _ in num] == [k for k, _ in den]:
            (_, n0), (_, d0) = num[0], den[0]
            if all(n * d0 == n0 * d for (_, n), (_, d) in zip(num, den)):
                return Scalar.from_fraction(Fraction(n0 * dd, nd * d0))
        return Scalar(num, nd, den, dd, _raw=True)

    @classmethod
    def from_fraction(cls, q) -> "Scalar":
        return _monomial(0, q if type(q) is int else Fraction(q))

    @classmethod
    def zero(cls) -> "Scalar":
        return _ZERO_SCALAR

    @classmethod
    def one(cls) -> "Scalar":
        return _ONE_SCALAR

    @classmethod
    def param(cls, name: str) -> "Scalar":
        return _monomial(_encode({("p", name): 1})[0], 1)

    @classmethod
    def gamma(cls, arg) -> "Scalar":
        arg = Fraction(arg)
        if arg <= 0:
            raise ScalarError(f"gamma argument must be positive, got {arg}")
        if arg.denominator == 1:
            return cls.from_fraction(math.factorial(int(arg) - 1))
        n = arg.numerator // arg.denominator
        f = arg - n
        poch = math.prod((f + i for i in range(n)), start=Fraction(1))
        k, c = _gamma_form(f)
        return _monomial(k, poch * c)

    @classmethod
    def rational_power(cls, base, exp) -> "Scalar":
        base = Fraction(base)
        exp = Fraction(exp)
        if base == 0:
            if exp > 0:
                return cls.zero()
            raise ScalarError("0 raised to a non-positive power")
        return _monomial(*_rational_power(base, exp))

    # -- shape predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.nd == 1 and self.num == _ONE_SUM and self.den == _ONE_SUM

    def as_fraction(self) -> Fraction | None:
        """The exact rational value, or None if atoms remain."""
        if self.den != _ONE_SUM:
            return None
        if not self.num:
            return _ZERO
        if len(self.num) == 1 and not self.num[0][0]:
            return Fraction(self.num[0][1], self.nd)
        return None

    def free_params(self) -> frozenset[str]:
        return frozenset(
            atom[1] for part in (self.num, self.den) for k, _ in part
            for atom, _e in _decoded(k) if atom[0] == "p"
        )

    def bit_size(self) -> int:
        """Bits of the largest integer held: a coefficient, denominator or exponent part."""
        ints = [self.nd, self.dd]
        for k, c in self.num + self.den:
            ints += c, *(i for _, n, d in _SIG_KEYS[k] for i in (n, d))
        return max(abs(i).bit_length() for i in ints)

    def leading_coeff_negative(self) -> bool:
        return bool(self.num) and min(self.num, key=_canonical)[1] < 0

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
        if self.dd == o.dd and self.den == o.den:
            den = self.den if self.den is _ONE_SUM else dict(self.den)  # _make reduces a dict
            return Scalar._make(*_sum_add(self.num, self.nd, o.num, o.nd), den, self.dd)
        na, da = _sum_mul(self.num, self.nd, o.den, o.dd)
        nb, db = _sum_mul(o.num, o.nd, self.den, self.dd)
        return Scalar._make(*_sum_add(na.items(), da, nb.items(), db),
                            *_sum_mul(self.den, self.dd, o.den, o.dd))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        # negating the numerator keeps every canonical property of num/den
        return Scalar(tuple((k, -c) for k, c in self.num), self.nd, self.den, self.dd, _raw=True)

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return self._coerce(other) + (-self)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = self._coerce(other)
        if not self.num or not o.num:
            return _ZERO_SCALAR
        if self.den is _ONE_SUM and self.nd == 1 and self.num == _ONE_SUM:
            return o
        if o.den is _ONE_SUM and o.nd == 1 and o.num == _ONE_SUM:
            return self
        num = _sum_mul(self.num, self.nd, o.num, o.nd)
        if self.den is o.den is _ONE_SUM:
            return Scalar._make(*num)
        return Scalar._make(*num, *_sum_mul(self.den, self.dd, o.den, o.dd))

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        o = self._coerce(other)
        if o.is_zero():
            raise ScalarError("division by a symbolically zero scalar")
        return Scalar._make(*_sum_mul(self.num, self.nd, o.den, o.dd),
                            *_sum_mul(self.den, self.dd, o.num, o.nd))

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return self._coerce(other) / self

    def __pow__(self, exp) -> "Scalar":
        e = Fraction(exp)
        if e.denominator == 1:
            n = int(e)
            base = self if n >= 0 else Scalar.one() / self
            return power_by_squaring(base, abs(n), Scalar.one())
        # a one-monomial denominator is always folded into the numerator
        if len(self.num) == 1 and self.den is _ONE_SUM:
            (k, c), = self.num
            return _monomial(*_mono_pow(k, Fraction(c, self.nd), e))
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
        return (self.num == other.num and self.nd == other.nd
                and self.den == other.den and self.dd == other.dd)

    def __hash__(self):
        # agree with __eq__, which accepts int and Fraction: a constant
        # hashes like its value
        num = self.num
        if self.den == _ONE_SUM:
            if not num:
                return 0
            if len(num) == 1 and not num[0][0]:
                c = num[0][1]
                return hash(c) if self.nd == 1 else hash(Fraction(c, self.nd))
        return hash((num, self.nd, self.den, self.dd))

    # -- numerics ----------------------------------------------------------------

    def eval(self, params: Mapping[str, float] | None = None) -> float:
        params = params or {}
        try:
            nv = _eval_sum(self._num_order(), self.nd, params)
            if self.den is _ONE_SUM:
                return nv
            dv = _eval_sum(sorted(self.den, key=_canonical), self.dd, params)
        except OverflowError as exc:
            raise EvalError(f"overflow evaluating a scalar with a {self.bit_size()}-bit integer") from exc
        exact = _exact_sum(self.den, self.dd, params)
        if dv == 0.0 and exact:
            dv = float(exact)  # the float terms cancelled where the exact ones do not
            if dv == 0.0:
                raise EvalError(f"denominator of {_shown(self, self.bit_size(), 'a scalar ')} "
                                "underflows to zero")
        if dv == 0.0 or exact == 0:
            raise EvalError(
                f"denominator of {_shown(self, self.bit_size(), 'a scalar ')} evaluates to zero")
        return nv / dv

    # -- printing ------------------------------------------------------------------

    def to_source(self) -> str:
        if self._src is None:
            try:
                src = _sum_source(self._num_order(), self.nd)
                if self.den != _ONE_SUM:
                    src = f"({src})/({_sum_source(sorted(self.den, key=_canonical), self.dd)})"
            except ValueError:  # an integer past sys.get_int_max_str_digits()
                raise ScalarError(f"a {self.bit_size()}-bit integer is too large to print") from None
            self._src = src
        return self._src

    def __str__(self) -> str:
        return self.to_source()

    def __repr__(self) -> str:
        return f"Scalar({self.to_source()!r})"


def _monomial(k: int, c: Coeff) -> Scalar:
    """The Scalar c * sig(k) for a normalized signature id k."""
    if not c:
        return _ZERO_SCALAR
    return Scalar(((k, c.numerator),), c.denominator, _ONE_SUM, 1, _raw=True)


class ProductSum:
    """A sum of products of Scalars. Products of unit-denominator factors go into
    int accumulators, one per denominator, that value() scales to their lcm and
    reduces once; any other product is added as a Scalar, in the order it came."""

    __slots__ = ("_sums", "_rest")

    def __init__(self):
        self._sums: dict[int, dict[int, int]] = {}
        self._rest = _ZERO_SCALAR

    def add(self, a: Scalar, b: Scalar) -> None:
        """self += a*b"""
        if a.den is _ONE_SUM and b.den is _ONE_SUM:
            _sum_mul(a.num, a.nd, b.num, b.nd, self._sums.setdefault(a.nd * b.nd, {}))
        else:
            self._rest += a * b

    def add_scaled(self, part: "ProductSum", w: Scalar) -> None:
        """self += part*w"""
        if w.den is not _ONE_SUM:
            self._rest += part.value() * w
            return
        for d, acc in part._sums.items():
            _sum_mul(w.num, w.nd, acc.items(), d, self._sums.setdefault(d * w.nd, {}))
        self._rest += part._rest * w

    def value(self) -> Scalar:
        d = math.lcm(*self._sums)
        acc: dict[int, int] = {}
        for dk, part in self._sums.items():
            _sum_mul(((0, d // dk),), 1, part.items(), 1, acc)
        return Scalar._make(acc, d) + self._rest


def _decode_sum(monos, d: int) -> tuple:
    """A stored sum as (decoded signature, Coeff) pairs in the canonical order."""
    return tuple((_decoded(k), _demote(Fraction(c, d))) for k, c in sorted(monos, key=_canonical))


def _encode_sum(monos) -> tuple[tuple, int]:
    """The stored sum of canonical (decoded signature, Coeff) pairs."""
    d = math.lcm(*[c.denominator for _, c in monos])
    return tuple(sorted(
        (_encode(dict(sig))[0], c.numerator * (d // c.denominator)) for sig, c in monos
    )), d


def _rebuild(num, den) -> Scalar:
    num, nd = _encode_sum(num)
    den, dd = _encode_sum(den)
    return Scalar(num, nd, _ONE_SUM if den == _ONE_SUM else den, dd, _raw=True)


def _param_power(params: Mapping[str, float], name: str, n: int, d: int) -> float:
    """The bound value of parameter name to the power n/d."""
    if name not in params:
        raise EvalError(f"unbound parameter '{name}'")
    base = float(params[name])
    if base < 0.0 and d != 1:
        raise EvalError(f"parameter '{name}' = {base} under fractional power")
    if base == 0.0 and n < 0:
        raise EvalError(f"parameter '{name}' = 0 under negative power")
    try:
        return base ** (n / d)
    except OverflowError:
        raise EvalError(f"overflow: parameter '{name}' = {base} "
                        f"to the power {Fraction(n, d)} is past the float range") from None


def _eval_sum(monos, d: int, params: Mapping[str, float]) -> float:
    """The float value of a stored sum whose pairs are in the canonical order;
    c / d rounds once, as float of the reduced Fraction does."""
    if len(monos) == 1 and not monos[0][0]:
        return monos[0][1] / d  # a constant, as the loop gives it: 0.0 + v is v
    total = 0.0
    for k, c in monos:
        v = c / d
        for f in _factors(k):
            v *= f if f.__class__ is float else _param_power(params, *f)
        total += v
    return total


def _exact_sum(monos, d: int, params: Mapping[str, float]) -> Fraction | None:
    """The exact value at the binding of a stored sum of rationals times integer
    powers of parameters, each bound float read as the rational it is; None for
    a sum with any other atom or exponent. Every parameter is bound once eval's
    float sum is taken."""
    total = Fraction(0)
    for k, c in monos:
        v = Fraction(c)
        for atom, e in _decoded(k):
            if atom[0] != "p" or e.denominator != 1:
                return None
            v *= Fraction(float(params[atom[1]])) ** e
        total += v
    return total / d


def _exp_source(n: int, d: int) -> str:
    """The printed exponent n/d of an atom, '' for 1."""
    if d != 1:
        return f"^({n}/{d})"
    return "" if n == 1 else f"^{n}" if n > 0 else f"^({n})"


def _sum_source(monos, d: int) -> str:
    """The text of a stored sum whose pairs are in the canonical order."""
    if not monos:
        return "0"
    chunks = []
    for i, (k, c) in enumerate(monos):
        g = math.gcd(c, d)
        text = f"{abs(c) // g}" if g == d else f"{abs(c) // g}/{d // g}"
        if k:
            text = _sig_source(k) if text == "1" else text + "*" + _sig_source(k)
        if i == 0:
            chunks.append(("-" if c < 0 else "") + text)
        else:
            chunks.append((" - " if c < 0 else " + ") + text)
    return "".join(chunks)


_ZERO_SCALAR = Scalar((), 1, _ONE_SUM, 1, _raw=True)
_ONE_SCALAR = Scalar(_ONE_SUM, 1, _ONE_SUM, 1, _raw=True)
