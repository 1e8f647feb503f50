"""Gamma-normalized series: convolution weights, Caputo action, scalings.

The representation stores phi_k with the coefficient of t^(k*alpha) being
phi_k / Gamma(1 + k*alpha).  The two oracles below check the consequences
of that weighting against independent float computations with the stdlib
gamma: the product rule picks up Gamma(1+k*a)/(Gamma(1+i*a)*Gamma(1+j*a)),
and the Caputo derivative of order n*alpha is a pure index shift.
"""

import math
import random
from fractions import Fraction

import pytest

from fracseries.errors import AlphaMismatch
from fracseries.expr import Expr, sum_products
from fracseries.scalar import Scalar, _decode_sum
from fracseries.series import (
    FracSeries,
    _gamma_pair,
    _mul_weight,
    _square_weight,
    _weight,
    gamma_factor,
)
from fracseries.solver import solve


def _raw_eval(series, x, t):
    """Direct float evaluation of the normalized sum."""
    a = float(series.alpha)
    total = 0.0
    for k, e in series.coeffs:
        total += e.eval(x) * t ** (k * a) / math.gamma(1.0 + k * a)
    return total


def _random_series(rng, alpha, trunc):
    coeffs = {}
    for k in range(trunc + 1):
        if rng.random() < 0.25:
            continue
        poly = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)) for _ in range(rng.randrange(1, 3))]
        coeffs[k] = Expr.poly(poly)
    return FracSeries(alpha, trunc, coeffs)


_ALPHAS = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))


def test_mul_weights_against_float_gamma():
    # product coefficient k: sum over i+j=k with the Gamma weight ratio
    rng = random.Random(301)
    for _ in range(60):
        alpha = rng.choice(_ALPHAS)
        a = _random_series(rng, alpha, 4)
        b = _random_series(rng, alpha, 4)
        prod = a.mul(b, 8)
        af = float(alpha)
        xv = rng.uniform(-1.0, 1.0)
        for k in range(9):
            want = 0.0
            for i in range(k + 1):
                j = k - i
                want += (
                    a.coeff(i).eval(xv)
                    * b.coeff(j).eval(xv)
                    * math.gamma(1.0 + k * af)
                    / (math.gamma(1.0 + i * af) * math.gamma(1.0 + j * af))
                )
            got = prod.coeff(k).eval(xv)
            assert abs(got - want) <= 1e-12 * (abs(want) + 1.0), (alpha, k)


def test_mul_weight_scalars_are_exact():
    # the weight for i=j=1 at alpha=1/2 is Gamma(2)/Gamma(3/2)^2 = 4/pi...
    # no pi in the scalar class, so it stays a gamma quotient; check numerics
    w = gamma_factor(Fraction(1, 2), 2) / (
        gamma_factor(Fraction(1, 2), 1) * gamma_factor(Fraction(1, 2), 1)
    )
    assert abs(w.eval() - math.gamma(2.0) / math.gamma(1.5) ** 2) < 1e-14
    # at alpha=1 the weights are binomials
    w2 = gamma_factor(Fraction(1), 4) / (
        gamma_factor(Fraction(1), 1) * gamma_factor(Fraction(1), 3)
    )
    assert w2.as_fraction() == 4  # C(4,1)
    # the weight is symmetric in (i, j), so both orders share one cached Scalar
    for a in _ALPHAS:
        for i, j in ((0, 3), (1, 2), (2, 5)):
            assert _mul_weight(a, i, j) is _mul_weight(a, j, i)
    # a weight is G(i+j) * (1/G(i) * 1/G(j)) from the (alpha, k) table; it
    # must be the quotient of fresh Gamma factors structurally, at every
    # alpha in turn (prime and composite denominators), and a square's
    # off-diagonal pair twice it
    _weight.cache_clear()
    _gamma_pair.cache_clear()
    for a in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(3, 5)):
        for i in range(13):
            for j in range(13):
                want = gamma_factor(a, i + j) / (gamma_factor(a, i) * gamma_factor(a, j))
                assert _mul_weight(a, i, j) == want, (a, i, j)
                assert _square_weight(a, i, j) == (want if i == j else want * 2), (a, i, j)


def test_mul_commutative_and_associative():
    rng = random.Random(302)
    for _ in range(40):
        alpha = rng.choice(_ALPHAS)
        a = _random_series(rng, alpha, 3)
        b = _random_series(rng, alpha, 3)
        c = _random_series(rng, alpha, 3)
        assert a.mul(b, 6) == b.mul(a, 6)
        assert a.mul(b, 9).mul(c, 9) == a.mul(b.mul(c, 9), 9)


def test_mul_distributes_over_add():
    rng = random.Random(303)
    for _ in range(40):
        alpha = rng.choice(_ALPHAS)
        a = _random_series(rng, alpha, 3)
        b = _random_series(rng, alpha, 3)
        c = _random_series(rng, alpha, 3)
        assert a.mul(b.add(c), 6) == a.mul(b, 6).add(a.mul(c, 6))


def test_caputo_shift_is_the_analytic_derivative():
    # 100 random shifts: the analytic Caputo action on each raw monomial
    # t^(k*a)/Gamma(1+k*a) maps it to t^((k-n)*a)/Gamma(1+(k-n)*a) for
    # k >= n and kills k < n; evaluate both routes in floats.
    rng = random.Random(304)
    for _ in range(100):
        alpha = rng.choice(_ALPHAS)
        af = float(alpha)
        trunc = rng.randrange(2, 7)
        n = rng.randrange(1, trunc + 1)
        s = _random_series(rng, alpha, trunc)
        sh = s.caputo_shift(n)
        xv = rng.uniform(-1.0, 1.0)
        tv = rng.uniform(0.05, 1.4)
        want = 0.0
        for k, e in s.coeffs:
            if k < n:
                continue  # low-order terms are annihilated
            ratio = math.gamma(1.0 + k * af) / math.gamma(1.0 + (k - n) * af)
            want += (
                e.eval(xv)
                * ratio
                * tv ** ((k - n) * af)
                / math.gamma(1.0 + k * af)
            )
        got = _raw_eval(sh, xv, tv)
        assert abs(got - want) <= 1e-12 * (abs(want) + 1.0), (alpha, n)


def test_caputo_shift_structure():
    rng = random.Random(305)
    for _ in range(50):
        alpha = rng.choice(_ALPHAS)
        s = _random_series(rng, alpha, 6)
        u = _random_series(rng, alpha, 6)
        n = rng.randrange(1, 4)
        p = rng.randrange(1, 3)
        # linearity
        assert s.add(u).caputo_shift(n) == s.caputo_shift(n).add(u.caputo_shift(n))
        # composition law
        if n + p <= 6:
            assert s.caputo_shift(n).caputo_shift(p) == s.caputo_shift(n + p)
        # shift then value at zero reads coefficient n
        assert s.caputo_shift(n).coeff(0) == s.coeff(n)


def test_caputo_shift_annihilates_short_series():
    s = FracSeries(Fraction(1, 2), 1, {0: Expr.x(), 1: Expr.one()})
    assert s.caputo_shift(2).is_zero()


def test_scale_args_matches_substitution():
    rng = random.Random(306)
    for _ in range(50):
        alpha = rng.choice(_ALPHAS)
        s = _random_series(rng, alpha, 4)
        xs = rng.choice([Fraction(1, 2), Fraction(2), Fraction(3, 4)])
        ts = rng.choice([Fraction(1, 2), Fraction(1, 4), Fraction(2)])
        scaled = s.scale_args(xs, ts)
        xv = rng.uniform(-1.0, 1.0)
        tv = rng.uniform(0.05, 1.2)
        want = _raw_eval(s, float(xs) * xv, float(ts) * tv)
        got = _raw_eval(scaled, xv, tv)
        assert abs(got - want) <= 1e-11 * (abs(want) + 1.0)


def test_dx_is_coefficientwise():
    rng = random.Random(307)
    for _ in range(30):
        s = _random_series(rng, Fraction(1, 2), 4)
        d = s.dx(2)
        for k in range(5):
            assert (d.coeff(k) - s.coeff(k).diff_x(2)).is_zero()


def test_pow_matches_repeated_mul():
    rng = random.Random(308)
    for _ in range(30):
        alpha = rng.choice(_ALPHAS)
        s = _random_series(rng, alpha, 3)
        assert s.pow(2, 6) == s.mul(s, 6)
        assert s.pow(3, 6) == s.mul(s, 6).mul(s, 6)


def test_square_equals_mul_by_itself(wave_problem):
    # structural equality: the pairs i < j taken once at twice their weight
    # give the Exprs that both orders of each pair give, at alphas whose
    # weights hold Gamma atoms and on coefficients with Gamma and parameter
    # atoms (klein-gordon's), zeros inside the series and kmax below its top
    rng = random.Random(312)
    atoms = [Scalar.one(), Scalar.gamma(Fraction(2, 7)), Scalar.gamma(Fraction(3, 4)),
             Scalar.param("nu") / 3]
    wave = solve(wave_problem, 5).coeffs
    for _ in range(40):
        alpha = rng.choice((Fraction(2, 7), Fraction(3, 4)))
        trunc = rng.randrange(0, 6)
        coeffs = {}
        for k in range(trunc + 1):
            if rng.random() < 0.3:
                continue
            poly = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)) for _ in range(rng.randrange(1, 3))]
            coeffs[k] = (Expr.poly(poly) + rng.choice(wave)).scalar_mul(rng.choice(atoms))
        s = FracSeries(alpha, trunc, coeffs)
        kmax = rng.randrange(0, 2 * trunc + 2)
        assert s.square(kmax) == s.mul(s, kmax), (alpha, trunc, kmax)
    s = FracSeries(Fraction(2, 7), 3, {0: wave[0], 2: wave[1], 3: Expr.x()})
    assert s.square(4) == s.mul(s, 4) and [k for k, _ in s.square(4).coeffs] == [0, 2, 3, 4]


def _one_by_one(triples):
    """The sum sum_products replaces: one Expr product, scaling and addition per triple."""
    out = Expr.zero()
    for a, b, w in triples:
        out = out + (a * b).scalar_mul(w)
    return out


def _at_nu(s, nu):
    """s with the parameter nu bound to the rational nu, built with Scalar
    arithmetic: exact, and canonical once no sum is left in the denominator."""
    def part(monos, d):
        total = Scalar.zero()
        for sig, c in _decode_sum(monos, d):
            term = Scalar.from_fraction(c)
            for (kind, arg), e in sig:
                if (kind, arg) == ("p", "nu"):
                    term = term * Scalar.rational_power(nu, e)
                elif kind == "p":
                    term = term * Scalar.param(arg) ** e
                elif kind == "g":
                    term = term * Scalar.gamma(arg) ** e
                else:
                    term = term * Scalar.rational_power(arg, e)
            total = total + term
        return total
    return part(s.num, s.nd) / part(s.den, s.dd)


def test_sum_products_equals_the_one_by_one_sum():
    # seeded triples: Gamma weights at alpha 2/7 and 3/4, prime atoms and
    # parameters with fractional exponents, zeros inside the polynomials,
    # frequencies shared and distinct, and coefficients and weights over 1 + nu
    rng = random.Random(313)
    nu = Scalar.param("nu")
    over = Scalar.one() / (1 + nu)
    atoms = [Scalar.one(), Scalar.rational_power(2, Fraction(1, 2)),
             Scalar.rational_power(3, Fraction(2, 3)), nu ** Fraction(1, 2),
             nu ** Fraction(-1, 3), Scalar.param("omega") ** Fraction(3, 2), over]
    freqs = [Scalar.zero(), Scalar.one(), Scalar.from_fraction(-1), nu, Scalar.from_fraction(Fraction(1, 2))]

    def coeff():
        if rng.random() < 0.2:
            return Scalar.zero()
        return sum((rng.choice(atoms) * Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                    for _ in range(rng.randrange(1, 3))), Scalar.zero())

    def expr():
        return sum((Expr.poly([coeff() for _ in range(rng.randrange(1, 4))])
                    * Expr.exponential(rng.choice(freqs)) for _ in range(rng.randrange(1, 3))),
                   Expr.zero())

    structural = by_value = 0
    for _ in range(60):
        triples = []
        for _ in range(rng.randrange(1, 5)):
            alpha = rng.choice((Fraction(2, 7), Fraction(3, 4)))
            weight = rng.choice((_mul_weight, _square_weight))
            w = weight(alpha, rng.randrange(0, 7), rng.randrange(0, 7))
            triples.append((expr(), expr(), w * over if rng.random() < 0.15 else w))
        got, want = sum_products(triples), _one_by_one(triples)
        assert [mu for mu, _ in got.terms] == [mu for mu, _ in want.terms]
        for (_, pg), (_, pw) in zip(got.terms, want.terms):
            assert len(pg) == len(pw)
            for g, w in zip(pg, pw):
                if len(g.den) == 1 and len(w.den) == 1:
                    assert g == w
                    structural += 1
                else:
                    # a quotient of sums: its form may depend on the order of the sum
                    for value in (Fraction(1, 3), Fraction(2), Fraction(5, 7)):
                        assert _at_nu(g, value) == _at_nu(w, value)
                    by_value += 1
    assert structural > 250 and by_value > 200, (structural, by_value)


def test_add_requires_matching_alpha():
    a = FracSeries(Fraction(1, 2), 1, {0: Expr.one()})
    b = FracSeries(Fraction(1, 3), 1, {0: Expr.one()})
    with pytest.raises(AlphaMismatch):
        a.add(b)
    with pytest.raises(AlphaMismatch):
        a.mul(b, 2)


def test_zero_pruning_and_truncate():
    s = FracSeries(Fraction(1), 3, {0: Expr.zero(), 1: Expr.x(), 3: Expr.one()})
    assert [k for k, _ in s.coeffs] == [1, 3]
    t = s.truncate(2)
    assert t.trunc == 2 and [k for k, _ in t.coeffs] == [1]
    assert s.coeff(2).is_zero()


def test_delay_style_self_product():
    # [x, x] squared at alpha=1/2: order-1 coefficient is
    # 2 * x^2 * Gamma(1+a)/Gamma(1+a) = 2x^2... with the weight
    # Gamma(1+a)/(Gamma(1)Gamma(1+a)) = 1 applied to each of the two terms
    a = Fraction(1, 2)
    s = FracSeries(a, 1, {0: Expr.x(), 1: Expr.x()})
    p = s.mul(s, 2)
    assert (p.coeff(0) - Expr.x() * Expr.x()).is_zero()
    assert (p.coeff(1) - (Expr.x() * Expr.x()).scalar_mul(2)).is_zero()
    # order 2: weight Gamma(2)/Gamma(3/2)^2 times x^2
    w = gamma_factor(a, 2) / (gamma_factor(a, 1) ** 2)
    assert (p.coeff(2) - (Expr.x() * Expr.x()).scalar_mul(w)).is_zero()
