"""Exact scalar ring: axioms, canonical forms, numeric agreement."""

import copy
import dataclasses
import functools
import math
import os
import pathlib
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import fracseries
from fracseries.expr import Expr
from fracseries.errors import EvalError, ScalarError
from fracseries import scalar
from fracseries.gammafn import gamma_real
from fracseries.scalar import (
    _GAMMA_LEVEL_LIMIT,
    _ONE_SUM,
    Scalar,
    _atom_float,
    _atom_order,
    _canonical,
    _decode_sum,
    _decoded,
    _encode,
    _encode_sum,
    _factorize,
    _factors,
    _gamma_level,
    _rebuild,
    _reduce,
    _sig_mul,
    _sig_source,
    _sort_key,
    _sum_add,
    _sum_mul,
)
from fracseries.series import _time_power, _weight, gamma_factor
from fracseries.solver import _drop_engine, apply_rhs, residual_series, solve


def _random_scalar(rng, depth=2):
    """Small random element built from rationals, params, gammas, surds."""
    choice = rng.randrange(6 if depth > 0 else 3)
    if choice == 0:
        return Scalar.from_fraction(Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)))
    if choice == 1:
        return Scalar.param(rng.choice("abc"))
    if choice == 2:
        return Scalar.gamma(Fraction(rng.randrange(1, 8), 2))
    if choice == 3:
        return _random_scalar(rng, depth - 1) + _random_scalar(rng, depth - 1)
    if choice == 4:
        return _random_scalar(rng, depth - 1) * _random_scalar(rng, depth - 1)
    return Scalar.rational_power(2, Fraction(rng.choice([1, -1]), 2))


def _decoded_sums(s):
    """num and den of s as canonical (atom-tuple signature, coefficient) pairs."""
    return _decode_sum(s.num, s.nd), _decode_sum(s.den, s.dd)


def _assert_stored_sum(monos, d):
    """Int numerators, nonzero, sorted by signature id, over a positive int
    denominator whose gcd with them is 1; decoded, every coefficient is an int
    when integral, else a Fraction."""
    ids = [k for k, _ in monos]
    assert ids == sorted(set(ids)), monos
    assert all(type(k) is int and type(c) is int and c for k, c in monos), monos
    assert type(d) is int and d >= 1 and math.gcd(d, *[c for _, c in monos]) == 1, (monos, d)
    for sig, c in _decode_sum(monos, d):
        if type(c) is not int:
            assert type(c) is Fraction and c.denominator != 1, (sig, c)


def _assert_coeff_types(*scalars):
    for s in scalars:
        _assert_stored_sum(s.num, s.nd)
        _assert_stored_sum(s.den, s.dd)
        assert s.den is _ONE_SUM or len(s.den) > 1, s


def _expr_scalars(exprs):
    return [s for e in exprs for mu, poly in e.terms for s in (mu, *poly)]


def _assert_unit_ratio(q):
    """q is a non-integral Fraction in (0, 1)."""
    assert type(q) is Fraction and q.denominator != 1 and 0 < q < 1, q


def test_ring_axioms_random():
    rng = random.Random(101)
    a_param = Scalar.param("a")
    two_mono = (a_param + 1) / (a_param - 1)
    assert len(two_mono.den) == 2
    _assert_coeff_types(two_mono, two_mono * two_mono, two_mono ** -2, 1 / two_mono)
    for _ in range(120):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        c = _random_scalar(rng)
        _assert_coeff_types(a, b, c, a + b, a * b, a - b, -a, a * 0, a * 1)
        assert (((a + b) + c) - (a + (b + c))).is_zero()
        assert (((a * b) * c) - (a * (b * c))).is_zero()
        assert ((a * (b + c)) - (a * b + a * c)).is_zero()
        assert ((a + b) - (b + a)).is_zero()
        assert ((a * b) - (b * a)).is_zero()
        assert (a - a).is_zero()
        assert (a * 0).is_zero()
        assert ((a * 1) - a).is_zero()
        if not b.is_zero():
            _assert_coeff_types(a / b, b ** -1, b ** -3, a / (b + two_mono))
            assert (((a / b) * b) - a).is_zero()


def test_field_ops():
    rng = random.Random(102)
    for _ in range(60):
        a = _random_scalar(rng)
        if a.is_zero():
            continue
        assert (a / a).is_one()
        assert ((1 / a) * a).is_one()
    with pytest.raises(ScalarError):
        Scalar.one() / Scalar.zero()


def test_sums_over_one_multi_monomial_denominator():
    # operands over one equal multi-monomial denominator add their numerators
    # and keep that denominator
    nu = Scalar.param("nu")
    a, b = 1 / (1 + nu), nu / (1 + nu)
    assert a + a == 2 / (1 + nu)
    assert (a + b).is_one()
    assert (a - a).is_zero()
    assert (a + a).eval({"nu": 2.0}) == pytest.approx(2 / 3)


def test_gamma_atoms_resolve_small_integers():
    # every integer argument collapses to an exact factorial
    assert Scalar.gamma(1) == Scalar.one()
    assert Scalar.gamma(5).as_fraction() == 24
    assert Scalar.gamma(20).as_fraction() == math.factorial(19)
    assert Scalar.gamma(25).as_fraction() == math.factorial(24)
    # half-integer arguments stay symbolic but evaluate correctly
    g = Scalar.gamma(Fraction(3, 2))
    assert g.as_fraction() is None
    assert abs(g.eval() - math.gamma(1.5)) < 1e-14


def _gamma_args(s):
    return [atom[1] for part in _decoded_sums(s) for sig, _ in part
            for atom, _e in sig if atom[0] == "g"]


def test_gamma_reduces_to_pochhammer_times_base_atom():
    # gamma(f + n) is built as (f)_n * gamma(f) with f in (0, 1)
    rng = random.Random(105)
    for _ in range(200):
        q = rng.randrange(2, 8)
        f = Fraction(rng.randrange(1, q), q)
        n = rng.randrange(0, 13)
        poch = math.prod((f + i for i in range(n)), start=Fraction(1))
        g = Scalar.gamma(f + n)
        assert g == poch * Scalar.gamma(f), (f, n)
        assert all(0 < arg < 1 for arg in _gamma_args(g)), (f, n)


def test_gamma_atoms_stay_in_unit_interval_through_weights():
    # the series weight Gamma(1+k*a) / (Gamma(1+i*a)*Gamma(1+j*a)) is one monomial
    for a in (Fraction(1, 2), Fraction(3, 5), Fraction(2, 7)):
        for i in range(6):
            for j in range(6):
                w = Scalar.gamma(1 + (i + j) * a) / (
                    Scalar.gamma(1 + i * a) * Scalar.gamma(1 + j * a))
                assert len(w.num) == 1 and w.den == Scalar.one().den, (a, i, j)
                assert all(0 < arg < 1 for arg in _gamma_args(w)), (a, i, j)


def test_gamma_functional_relation_structural():
    # gamma(3/2) - gamma(1/2)/2 is zero in value and now also in form
    half = Fraction(1, 2)
    assert (Scalar.gamma(3 * half) - Scalar.gamma(half) * half).is_zero()
    for a in (Fraction(5, 3), Fraction(1, 7), Fraction(22, 5)):
        assert Scalar.gamma(a + 1) == a * Scalar.gamma(a), a


def _unit_fractions(q):
    return [Fraction(a, q) for a in range(1, q) if math.gcd(a, q) == 1]


def _gamma_monomial(f):
    """The canonical gamma(f) as its one monomial (sig, coeff)."""
    g = Scalar.gamma(f)
    assert len(g.num) == 1 and g.den == _ONE_SUM, f
    return _decoded_sums(g)[0][0]


def _is_basis(f):
    return _gamma_monomial(f) == (((("g", f), 1),), 1)


GAMMA_LEVELS = range(2, 13)


def test_gamma_basis_matches_gamma_function():
    for q in GAMMA_LEVELS:
        for f in _unit_fractions(q):
            v = Scalar.gamma(f).eval()
            assert math.isclose(v, math.gamma(f), rel_tol=1e-13), f


def test_gamma_basis_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for q in GAMMA_LEVELS:
            for f in _unit_fractions(q):
                sig, c = _gamma_monomial(f)
                v = mpmath.mpf(c.numerator) / c.denominator
                for (kind, arg), e in sig:
                    base = mpmath.gamma(mpmath.mpf(arg.numerator) / arg.denominator) \
                        if kind == "g" else mpmath.mpf(arg)
                    v *= base ** (mpmath.mpf(e.numerator) / e.denominator)
                want = mpmath.gamma(mpmath.mpf(f.numerator) / f.denominator)
                assert abs(v / want - 1) < mpmath.mpf(10) ** -50, f


def test_gamma_forms_use_basis_atoms_with_int_exponents():
    for q in GAMMA_LEVELS:
        for f in _unit_fractions(q):
            sig, _ = _gamma_monomial(f)
            for atom, e in sig:
                if atom[0] == "g":
                    assert type(e) is int, (f, atom, e)
                    assert _is_basis(atom[1]), (f, atom)
    bases = {q: [f for f in _unit_fractions(q) if _is_basis(f)] for q in GAMMA_LEVELS}
    assert bases[4] == [Fraction(1, 4)]
    assert bases[6] == []
    assert bases[8] == [Fraction(1, 8), Fraction(3, 8)]
    # a prime level has no relation: every atom stays
    for q in (2, 3, 5, 7, 11):
        assert bases[q] == _unit_fractions(q), q


def _child_env():
    """The environment of a child interpreter that imports this package."""
    src = str(pathlib.Path(fracseries.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def test_gamma_forms_do_not_depend_on_build_order():
    levels = ", ".join(map(str, GAMMA_LEVELS))
    dump = (
        "from fractions import Fraction\n"
        "from math import gcd\n"
        "from fracseries.scalar import Scalar, _decode_sum\n"
        "{first}"
        f"for q in ({levels}):\n"
        "    for a in range(1, q):\n"
        "        if gcd(a, q) == 1:\n"
        "            g = Scalar.gamma(Fraction(a, q))\n"
        "            print(a, q, repr(_decode_sum(g.num, g.nd)))\n"
    )
    outs = []
    for first in ("Scalar.gamma(Fraction(1, 12))\n", ""):
        r = subprocess.run(
            [sys.executable, "-c", dump.format(first=first)],
            capture_output=True, text=True, env=_child_env(),
        )
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == sum(len(_unit_fractions(q)) for q in GAMMA_LEVELS)


def test_gamma_levels_past_the_limit_keep_their_atoms():
    # alpha = 0.1234 = 617/5000: building level 5000 would take seconds
    built = _gamma_level.cache_info().currsize
    f = Fraction(617, 5000)
    assert f.denominator > _GAMMA_LEVEL_LIMIT
    assert _is_basis(f)
    assert Scalar.gamma(1 + f) == f * Scalar.gamma(f)
    assert _gamma_level.cache_info().currsize == built


def test_multiplication_formula_identities_are_structural():
    g = Scalar.gamma
    pi = g(Fraction(1, 2)) ** 2
    sqrt2 = Scalar.rational_power(2, Fraction(1, 2))
    # reflection at q = 4, zero only by the multiplication formula
    assert (g(Fraction(1, 4)) * g(Fraction(3, 4)) - sqrt2 * pi).is_zero()
    # reflection at q = 6: Gamma(1/6)*Gamma(5/6) = pi/sin(pi/6)
    assert (g(Fraction(1, 6)) * g(Fraction(5, 6)) - 2 * pi).is_zero()
    # n = 4 at z = 1/8: Gamma(1/8)Gamma(3/8)Gamma(5/8)Gamma(7/8) = (2pi)^(3/2) Gamma(1/2)
    eighths = g(Fraction(1, 8)) * g(Fraction(3, 8)) * g(Fraction(5, 8)) * g(Fraction(7, 8))
    assert (eighths - 2 * sqrt2 * pi ** 2).is_zero()
    # a prime level is left alone: Gamma(1/3)*Gamma(2/3) = 2pi/sqrt(3) in value only
    thirds = g(Fraction(1, 3)) * g(Fraction(2, 3)) - 2 * Scalar.rational_power(
        3, Fraction(-1, 2)) * pi
    assert abs(thirds.eval()) < 1e-14 and not thirds.is_zero()


def test_surd_normalization():
    # 2^(-1/2) is stored as (1/2)*2^(1/2): exponents kept inside (0, 1)
    s = Scalar.rational_power(2, Fraction(-1, 2))
    assert s.to_source() == "1/2*2^(1/2)"
    assert abs(s.eval() - 2 ** -0.5) < 1e-16
    t = Scalar.rational_power(8, Fraction(1, 2))
    assert abs(t.eval() - 8 ** 0.5) < 1e-15
    # perfect powers collapse to rationals
    assert Scalar.rational_power(4, Fraction(1, 2)).as_fraction() == 2
    assert Scalar.rational_power(27, Fraction(2, 3)).as_fraction() == 9


def test_surd_products_cancel():
    r = Scalar.rational_power(2, Fraction(1, 2))
    assert (r * r).as_fraction() == 2
    assert (r * r * r * r).as_fraction() == 4
    inv = Scalar.rational_power(2, Fraction(-1, 2))
    assert (r * inv).is_one()


def _random_exps(rng):
    """Exponents of a signature: prime atoms at several exponent denominators,
    Gamma atoms with int exponents, parameters with int or fractional ones."""
    exps = {}
    for p in rng.sample((2, 3, 5, 7), rng.randrange(3)):
        exps[("r", p)] = Fraction(rng.randrange(1, 13), rng.choice((2, 3, 4, 5, 6, 12)))
    for _ in range(rng.randrange(2)):
        exps[("g", Fraction(rng.randrange(1, 5), 5))] = rng.choice((-2, -1, 1, 2))
    for name in rng.sample("ab", rng.randrange(3)):
        exps[("p", name)] = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 3)))
    return exps


def test_signature_product_factor_is_an_int():
    # prime-atom exponents lie in (0, 1), so the product of two signatures
    # carries p^0 or p^1 out of each prime atom and nothing out of the others
    rng = random.Random(106)
    sigs = [_encode(_random_exps(rng))[0] for _ in range(80)]
    carried = 0
    for sig_a in sigs:
        for sig_b in sigs:
            if sig_a and sig_b:
                _, mult = _sig_mul(sig_a, sig_b)
                assert type(mult) is int, (_decoded(sig_a), _decoded(sig_b), mult)
                carried += mult != 1
    assert carried > 300


def _ref_sum_add(a, b):
    out = {}
    for sig, c in (*a, *b):
        out[sig] = out.get(sig, 0) + Fraction(c)
    return {sig: c for sig, c in out.items() if c}


def _ref_sum_mul(a, b):
    """Monomial-sum product in plain Fraction arithmetic, normalizing each
    product signature itself."""
    out = {}
    for sig_a, ca in a:
        for sig_b, cb in b:
            exps = dict(sig_a)
            for atom, e in sig_b:
                exps[atom] = exps.get(atom, 0) + e
            c = Fraction(ca) * Fraction(cb)
            items = []
            for atom, e in exps.items():
                if atom[0] == "r":
                    whole = math.floor(e)
                    c *= Fraction(atom[1]) ** whole
                    e -= whole
                if e:
                    items.append((atom, e))
            sig = tuple(sorted(items))
            out[sig] = out.get(sig, 0) + c
    return {sig: c for sig, c in out.items() if c}


def _stored(op, a, b):
    """op (_sum_mul or _sum_add) on sums given as (signature, coefficient)
    pairs, in the stored form, checked and decoded back to a dict."""
    monos, d = _reduce(*op(*_encode_sum(a), *_encode_sum(b)))
    _assert_stored_sum(monos, d)
    return dict(_decode_sum(monos, d))


def _random_sum(rng, pool):
    """Canonical monomial-sum items: nonzero coefficients, int when integral."""
    out = {}
    for sig in rng.sample(pool, rng.choice((0, 1, 1, 2, 3, 5, 8))):
        c = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 40), rng.choice((1, 1, 2, 3, 4, 9, 10)))
        out[sig] = c.numerator if c.denominator == 1 else c
    return tuple(out.items())


def _random_shared_den_sum(rng, pool):
    """Sums over one denominator, with numerators that often share its factors."""
    den = rng.choice((1, 6, 12, 35, 49, 2**40))
    out = {}
    for sig in rng.sample(pool, rng.choice((1, 2, 4, 7))):
        c = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10**6) * rng.choice((1, 2, 3, 5, 7)), den)
        out[sig] = c.numerator if c.denominator == 1 else c
    return tuple(out.items())


def _sevenths_pool(rng):
    """Signatures as at alpha 2/7: prime atoms at exponent denominator 7, so
    products carry, Gamma atoms with negative exponents, rational parameter
    exponents."""
    pool = [()]
    for _ in range(16):
        exps = {("r", p): Fraction(rng.randrange(1, 7), 7)
                for p in rng.sample((2, 3, 7), rng.randrange(1, 3))}
        exps[("g", Fraction(rng.randrange(1, 7), 7))] = rng.choice((-3, -2, -1, 1, 2))
        if rng.random() < 0.5:
            exps[("p", "nu")] = Fraction(rng.choice((-5, -1, 1, 2, 4)), rng.choice((1, 3, 7)))
        pool.append(_decoded(_encode(exps)[0]))
    ids = [_encode(dict(sig))[0] for sig in pool[1:]]
    assert sum(_sig_mul(ka, kb)[1] != 1 for ka in ids for kb in ids) > 100
    return pool


def test_sum_products_match_fraction_reference():
    rng = random.Random(107)
    pool = [()] + [_decoded(_encode(_random_exps(rng))[0]) for _ in range(12)]
    two_1_2 = ((("r", 2), Fraction(1, 2)),)
    two_1_4 = ((("r", 2), Fraction(1, 4)),)
    fixed = [
        ((two_1_2, 1), ((), Fraction(1, 3))),  # (2^(1/2) + 1/3)(2^(1/2) - 1/3) = 2 - 1/9
        ((two_1_2, 1), ((), Fraction(-1, 3))),
        ((two_1_4, Fraction(3, 2)),),  # one monomial
        ((two_1_4, 6), (two_1_2, 5)),  # squared, 2^(1/2) * 2^(1/2) carries a 2
    ]
    cases = [(fixed[0], fixed[1]), (fixed[2], fixed[2]), (fixed[2], fixed[3]), (fixed[3], fixed[3])]
    cases += [(_random_sum(rng, pool), _random_sum(rng, pool)) for _ in range(400)]
    rng = random.Random(108)
    sevenths = _sevenths_pool(rng)
    cases += [(_random_shared_den_sum(rng, sevenths), _random_shared_den_sum(rng, sevenths))
              for _ in range(150)]
    unit = (((), 1),)
    nonempty = 0
    for a, b in cases:
        product = _ref_sum_mul(a, b)
        assert _stored(_sum_mul, a, b) == product, (a, b)
        assert _stored(_sum_add, a, b) == _ref_sum_add(a, b), (a, b)
        # a product minus itself, formed from the negated operand, cancels
        neg_a = tuple((sig, -c) for sig, c in a)
        (pa, da), (pb, db) = (_sum_mul(*_encode_sum(x), *_encode_sum(b)) for x in (a, neg_a))
        assert _reduce(*_sum_add(pa.items(), da, pb.items(), db)) == ((), 1)
        assert _ref_sum_add(product.items(), _ref_sum_mul(neg_a, b).items()) == {}
        # the same through Scalar arithmetic
        got = _rebuild(a, unit) * _rebuild(b, unit) + _rebuild(b, unit)
        _assert_coeff_types(got)
        assert dict(_decoded_sums(got)[0]) == _ref_sum_add(product.items(), b)
        nonempty += bool(product)
    assert _stored(_sum_mul, *cases[0]) == {(): Fraction(17, 9)}
    assert _stored(_sum_mul, *cases[1]) == {two_1_2: Fraction(9, 4)}
    two_3_4 = ((("r", 2), Fraction(3, 4)),)
    assert _stored(_sum_mul, *cases[2]) == {two_1_2: 9, two_3_4: Fraction(15, 2)}
    assert _stored(_sum_mul, *cases[3]) == {(): 50, two_1_2: 36, two_3_4: 60}
    assert nonempty > 350


def test_canonical_order_does_not_follow_ids():
    # b's signature is interned first, so it has the smaller id, while a
    # comes first in the canonical order
    b = Scalar.param("order_b")
    a = Scalar.param("order_a")
    assert b.num[0][0] < a.num[0][0]
    assert (b + a).to_source() == "order_a + order_b"
    assert not (a - b).leading_coeff_negative() and (b - a).leading_coeff_negative()
    # the canonically first denominator monomial is scaled to 1
    assert (1 / (b - a)).to_source() == "(-1)/(order_a - order_b)"
    assert Expr.cosh_of(b - a).pretty() == "1*cosh((order_a - order_b)*x)"


def test_zero_detection_requires_cancellation():
    a = Scalar.param("a")
    b = Scalar.param("b")
    e = (a + b) * (a - b) - (a * a - b * b)
    assert e.is_zero()
    g = Scalar.gamma(Fraction(3, 2))
    assert (g / g - 1).is_zero()
    assert not (a - b).is_zero()


def test_eval_matches_float_composition():
    rng = random.Random(103)
    for _ in range(100):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        params = {"a": rng.uniform(0.2, 3.0), "b": rng.uniform(0.2, 3.0),
                  "c": rng.uniform(0.2, 3.0)}
        try:
            va, vb = a.eval(params), b.eval(params)
            vsum = (a + b).eval(params)
            vmul = (a * b).eval(params)
        except EvalError:
            continue
        scale = abs(va) + abs(vb) + 1.0
        assert abs(vsum - (va + vb)) < 1e-9 * scale
        assert abs(vmul - va * vb) < 1e-9 * (abs(va * vb) + 1.0)


def test_fractional_power_domain():
    a = Scalar.param("a")
    # monomials admit fractional powers
    assert (((a * a) ** Fraction(1, 2)) - a).is_zero()
    with pytest.raises(ScalarError):
        (a + 1) ** Fraction(1, 2)
    # integer powers always fine
    assert (((a + 1) ** 2) - (a * a + 2 * a + 1)).is_zero()


def test_denominator_zero_at_the_binding_is_an_error():
    # the 61 float terms of 1 - nu/60 - ... - nu^60/60 leave about 8e-14 at
    # nu = 1; the exact sum at the bound rational is 0
    nu = Scalar.param("nu")
    den = sum((nu ** k for k in range(2, 61)), nu) - 60
    value = Scalar.one() / den
    with pytest.raises(EvalError, match=r"^denominator of .{100}\.\.\. evaluates to zero$"):
        value.eval({"nu": 1.0})
    assert value.eval({"nu": 1.5}) == pytest.approx(1 / float(sum(1.5 ** k for k in range(1, 61)) - 60))
    with pytest.raises(EvalError, match=r"^denominator of \(-1\)/\(1 - nu\) evaluates to zero$"):
        (Scalar.one() / (nu - 1)).eval({"nu": 1.0})


def test_denominator_cancelling_in_floats_divides_by_its_exact_value():
    # at nu = 1 + 2^-52 the float terms of 1 - 2*nu + nu^2 cancel to 0.0;
    # the denominator is 2^-104 and the value, about 2.0e31, fits in a double
    nu, omega = Scalar.param("nu"), Scalar.param("omega")
    value = Scalar.one() / (nu * nu - 2 * nu + 1)
    b = 1.0000000000000002
    q = Fraction(b)
    assert b * b - 2 * b + 1 == 0.0
    assert value.eval({"nu": b}) == pytest.approx(float(1 / (q * q - 2 * q + 1)), rel=1e-15, abs=0)
    # a nonzero exact denominator whose float is 0.0 too is still an error
    with pytest.raises(EvalError, match=r"^denominator of \(1\)/\(nu\^2 \+ omega\^2\) underflows to zero$"):
        (Scalar.one() / (nu * nu + omega * omega)).eval({"nu": 1e-200, "omega": 1e-200})


def test_denominator_with_a_root_or_gamma_atom_is_checked_in_floats_only():
    # a parameter under a fractional power or a Gamma atom has no exact value
    # at the binding, so only a float sum of exactly 0.0 is caught; float terms
    # cancelling to a tiny nonzero value are not (ROADMAP item 14)
    nu, g = Scalar.param("nu"), Scalar.gamma(Fraction(1, 3))
    for den, at_zero, bind, want in ((nu ** Fraction(1, 2) - 1, 1.0, 4.0, 1.0),
                                     (g * nu - g, 1.0, 2.0, 1 / math.gamma(1 / 3))):
        value = Scalar.one() / den
        with pytest.raises(EvalError, match="evaluates to zero$"):
            value.eval({"nu": at_zero})
        assert value.eval({"nu": bind}) == want


def test_unbound_parameter_is_an_error():
    with pytest.raises(EvalError):
        Scalar.param("zeta").eval({})


# The per-atom loops of eval and printing, each monomial decoded from its
# signature at every call: what the per-id factors and text must reproduce
# byte for byte.

def _ref_eval_atom(atom, e, params):
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


def _ref_eval_sum(monos, d, params):
    if len(monos) == 1 and not monos[0][0]:
        return monos[0][1] / d
    total = 0.0
    for k, c in sorted(monos, key=_canonical):
        v = c / d
        for atom, e in _decoded(k):
            v *= _ref_eval_atom(atom, e, params)
        total += v
    return total


def _ref_eval(s, params):
    """s.eval(params) where the denominator is far from zero."""
    dv = 1.0 if s.den is _ONE_SUM else _ref_eval_sum(s.den, s.dd, params)
    return _ref_eval_sum(s.num, s.nd, params) / dv


def _ref_exp_source(e):
    if e == 1:
        return ""
    if e.denominator == 1 and e > 0:
        return f"^{e}"
    return f"^({e})"


def _ref_atom_source(atom):
    kind = atom[0]
    if kind == "p":
        return atom[1]
    if kind == "g":
        return f"gamma({atom[1]})"
    return str(atom[1])


def _ref_sum_source(monos, d):
    if not monos:
        return "0"
    chunks = []
    for i, (k, c) in enumerate(sorted(monos, key=_canonical)):
        g = math.gcd(c, d)
        coeff = f"{abs(c) // g}" if g == d else f"{abs(c) // g}/{d // g}"
        parts = [coeff] if coeff != "1" or not k else []
        parts += (_ref_atom_source(atom) + _ref_exp_source(e) for atom, e in _decoded(k))
        if i == 0:
            chunks.append(("-" if c < 0 else "") + "*".join(parts))
        else:
            chunks.append((" - " if c < 0 else " + ") + "*".join(parts))
    return "".join(chunks)


def _ref_source(s):
    src = _ref_sum_source(s.num, s.nd)
    return src if s.den == _ONE_SUM else f"({src})/({_ref_sum_source(s.den, s.dd)})"


BINDINGS = ({"nu": 0.7, "omega": 1.9, "lambda": 1.3},
            {"nu": 2.25, "omega": 0.3, "lambda": -0.8})


def _per_id_scalars(delay_problem, wave_problem):
    """Seeded Scalars over Gamma atoms of the weights at alpha 2/7 and 3/4, prime
    atoms of the time powers (1/2)^(k*alpha), parameters under fractional and
    negative exponents and quotients over 1 + nu, and every coefficient of
    burgers-delay at alpha 2/7 (K = 10) and of klein-gordon (K = 8)."""
    nu, omega = Scalar.param("nu"), Scalar.param("omega")
    pieces = [(nu / omega).sqrt(), nu ** -2, omega ** Fraction(-3, 2), 1 / (1 + nu),
              (nu - omega) / (1 + nu), Scalar.param("lambda")]
    for alpha in (Fraction(2, 7), Fraction(3, 4)):
        pieces += [_weight(alpha, i, j) for i in range(1, 6) for j in range(i, 6)]
        pieces += [_time_power(Fraction(1, 2), k * alpha) for k in range(1, 8)]
        pieces += [gamma_factor(alpha, k) for k in range(1, 8)]
    rng = random.Random(3011)
    out = list(pieces)
    for _ in range(300):
        a, b, c = rng.sample(pieces, 3)
        out.append(a * b + c if rng.random() < 0.7 else (a - c) * b * Fraction(rng.randrange(-9, 10), 7))
    for problem, alpha, order in ((delay_problem, Fraction(2, 7), 10),
                                  (wave_problem, wave_problem.alpha, 8)):
        sol = solve(dataclasses.replace(problem, alpha=alpha), order)
        out += _expr_scalars(sol.coeffs)
    return out


def test_eval_and_print_match_the_per_atom_loops(delay_problem, wave_problem):
    scalars = _per_id_scalars(delay_problem, wave_problem)
    kinds = {atom[0] for s in scalars for part in _decoded_sums(s) for sig, _ in part
             for atom, _e in sig}
    assert kinds == {"g", "p", "r"}
    assert sum(s.den is not _ONE_SUM for s in scalars) > 20
    for s in scalars:
        for _ in range(2):  # the order and text kept by the first call serve the second
            assert s.to_source() == _ref_source(s)
            for bind in BINDINGS:
                assert s.eval(bind).hex() == _ref_eval(s, bind).hex(), s


def test_eval_does_not_depend_on_bindings_or_copies(delay_problem, wave_problem):
    # a Scalar evaluated under A, B, A gives what fresh ones give, and a copy
    # or unpickled Scalar, with no order kept yet, prints and evaluates the same
    a, b = BINDINGS
    for s in _per_id_scalars(delay_problem, wave_problem)[:400]:
        values = [s.eval(bind).hex() for bind in (a, b, a)]
        assert values == [_ref_eval(s, bind).hex() for bind in (a, b, a)]
        for c in (copy.copy(s), pickle.loads(pickle.dumps(s))):
            assert c._order is None and c._src is None
            assert [c.eval(bind).hex() for bind in (b, a, b)] == [values[1], values[0], values[1]]
            assert c.to_source() == s.to_source()


def test_parameter_errors_are_raised_on_every_call():
    nu = Scalar.param("nu")
    cases = [
        (Scalar.param("zeta") + nu, {"nu": 1.0}, "unbound parameter 'zeta'"),
        (nu ** Fraction(1, 2) + Scalar.gamma(Fraction(2, 7)), {"nu": -1.5},
         "parameter 'nu' = -1.5 under fractional power"),
        (nu ** -2 * Scalar.rational_power(3, Fraction(1, 7)), {"nu": 0.0},
         "parameter 'nu' = 0 under negative power"),
    ]
    for s, bad, message in cases:
        for _ in range(3):
            with pytest.raises(EvalError, match=f"^{message}$"):
                s.eval(bad)
            assert s.eval({"nu": 2.0, "zeta": 1.0}) == _ref_eval(s, {"nu": 2.0, "zeta": 1.0})


def test_structural_identity_is_canonical(delay_problem, diffusion_problem):
    # equal values built along different routes compare equal structurally
    a = Scalar.param("a")
    x = (a + 1) * (a + 1)
    y = a * a + 2 * a + 1
    assert x == y
    assert hash(x) == hash(y)
    # proportional quotients collapse to constants
    assert ((a + 1) / (a + 1)).is_one()
    assert ((2 * a + 2) / (a + 1)).as_fraction() == 2
    # polynomial quotients with a genuine common root do not reduce (no
    # polynomial gcd in the class); value equality still decides
    q = (a * a - 1) / (a - 1)
    assert (q - (a + 1)).is_zero()
    # a rational Scalar equals its int or Fraction value, so it hashes like it
    three = Scalar.from_fraction(3)
    assert three == 3 and hash(three) == hash(3)
    assert {3: "x"}.get(three) == "x"
    assert len({three, 3}) == 1
    assert hash(Scalar.from_fraction(Fraction(2, 7))) == hash(Fraction(2, 7))
    # the coefficient of a rational Scalar decodes to an int when integral,
    # but the exact value is always handed out as a Fraction
    assert type(_decoded_sums(three)[0][0][1]) is int
    assert type(three.as_fraction()) is Fraction
    assert type(Scalar.zero().as_fraction()) is Fraction
    # integral exponents decode to int; prime-atom exponents and Gamma
    # arguments to the Fraction of a value in (0, 1), and any other
    # non-integral exponent to a Fraction, in every Scalar a solve and its
    # residual check build; each stored signature id is the one interned id
    # of its decoded signature
    p = dataclasses.replace(delay_problem, alpha=Fraction(3, 5))
    sol = solve(p, 6)
    exprs = list(sol.coeffs)
    for series in (residual_series(p, sol), apply_rhs(p.rhs, sol.series(), 5)):
        exprs += [e for _, e in series.coeffs]
    scalars = _expr_scalars(exprs)
    exps = [(atom, e) for s in scalars for part in _decoded_sums(s)
            for sig, _ in part for atom, e in sig]
    for s in scalars:
        for k, _ in s.num + s.den:
            assert _encode(dict(_decoded(k))) == (k, 1), k
    assert any(atom[0] == "g" for atom, _ in exps)
    assert any(atom[0] == "r" for atom, _ in exps)
    for atom, e in exps:
        if atom[0] == "g":
            _assert_unit_ratio(atom[1])
        if atom[0] == "r":
            _assert_unit_ratio(e)
        elif e.denominator == 1:
            assert type(e) is int, (atom, e)
        else:
            assert type(e) is Fraction, (atom, e)
    # monomial coefficients in the stored form, decoding to an int when
    # integral and a Fraction otherwise, here and in kolmogorov at K = 20
    # (integers only, binomial weights)
    _assert_coeff_types(*scalars)
    kol = solve(diffusion_problem, 20)
    kol_scalars = _expr_scalars(kol.coeffs)
    assert any(c == 1 for s in kol_scalars for _, c in _decoded_sums(s)[0])
    _assert_coeff_types(*kol_scalars)


def _signature_rationals(scalars):
    """Gamma arguments and non-integral exponents of the given Scalars."""
    out = []
    for s in scalars:
        for part in _decoded_sums(s):
            for sig, _ in part:
                for atom, e in sig:
                    if atom[0] == "g":
                        out.append(atom[1])
                    if e.denominator != 1:
                        out.append(e)
    return out


def test_pickle_and_copies_keep_structure_and_interning(delay_problem):
    # a solution with its Exprs and Scalars, and a Scalar with Gamma and prime
    # atoms, come back equal, hash alike and name the same signature ids
    p = dataclasses.replace(delay_problem, alpha=Fraction(3, 5))
    sol = solve(p, 6)
    surd = Scalar.gamma(Fraction(2, 5)) * Scalar.rational_power(2, Fraction(-3, 5))
    assert len(_signature_rationals(_expr_scalars(sol.coeffs))) > 100
    for c_sol, c_surd in (pickle.loads(pickle.dumps((sol, surd))),
                          (copy.copy(sol), copy.copy(surd)),
                          copy.deepcopy((sol, surd))):
        assert c_sol == sol and c_sol.coeffs == sol.coeffs and c_surd == surd
        # the problem's compiled exact line comes back too
        assert c_sol.problem.exact.eval(0.5, 0.25, {}) == sol.problem.exact.eval(0.5, 0.25, {})
        assert hash(c_sol.coeffs) == hash(sol.coeffs) and hash(c_surd) == hash(surd)
        stored = [(s.num, s.nd, s.den, s.dd) for s in _expr_scalars(c_sol.coeffs) + [c_surd]]
        assert stored == [(s.num, s.nd, s.den, s.dd) for s in _expr_scalars(sol.coeffs) + [surd]]
    # a unit denominator comes back as the shared tuple, so the copy's sums
    # and products keep the fast path of _make
    assert pickle.loads(pickle.dumps(Scalar.param("a") + 1)).den is _ONE_SUM


# Run first, these number atoms and signatures in another order than a fresh
# process does.
OTHER_ATOMS_FIRST = (
    "from fractions import Fraction\n"
    "from fracseries.scalar import Scalar\n"
    "Scalar.param('zeta') ** Fraction(1, 3)\n"
    "Scalar.gamma(Fraction(3, 7))\n"
)


def test_pickles_do_not_depend_on_signature_ids(delay_problem):
    # a Scalar and a solution pickled by a process that met other atoms first
    # come back equal here, with equal hashes, though it stored other ids; the
    # coefficients print and evaluate alike in both processes and here
    problems = pathlib.Path(__file__).resolve().parents[1] / "problems"
    child = (
        "import dataclasses, pickle, sys\n"
        "from fractions import Fraction\n"
        "from fracseries import parse_problem_file, solve\n"
        "from fracseries.scalar import Scalar\n"
        f"p = dataclasses.replace(parse_problem_file({str(problems / 'burgers_delay.frac')!r}),\n"
        "                        alpha=Fraction(2, 7))\n"
        "surd = (Scalar.gamma(Fraction(2, 7)) * Scalar.rational_power(3, Fraction(-3, 7))\n"
        "        + Scalar.param('nu'))\n"
        "sol = solve(p, 8)\n"
        "texts = [s.to_source() for s in sol.coeffs]\n"
        "values = [s.eval(x).hex() for s in sol.coeffs for x in (0.5, 1.0)]\n"
        "sys.stdout.buffer.write(pickle.dumps((sol, surd, surd.num, texts, values)))\n"
    )
    # klein-gordon's parameter atoms and the Gamma and prime atoms of alpha
    # 3/5, interned, evaluated and printed before burgers-delay's
    others_first = OTHER_ATOMS_FIRST + (
        "import dataclasses\n"
        "from fracseries import parse_problem_file, solve\n"
        f"kg = solve(parse_problem_file({str(problems / 'klein_gordon.frac')!r}), 6)\n"
        f"bd = parse_problem_file({str(problems / 'burgers_delay.frac')!r})\n"
        "bd = solve(dataclasses.replace(bd, alpha=Fraction(3, 5)), 6)\n"
        "[(s.to_source(), s.eval(0.5, {'nu': 1.5, 'omega': 0.5, 'lambda': 2.0}))\n"
        " for s in kg.coeffs + bd.coeffs]\n"
    )
    sol = solve(dataclasses.replace(delay_problem, alpha=Fraction(2, 7)), 8)
    surd = Scalar.gamma(Fraction(2, 7)) * Scalar.rational_power(3, Fraction(-3, 7)) + Scalar.param("nu")
    stored, printed = [], []
    for first in ("", others_first):
        r = subprocess.run([sys.executable, "-c", first + child],
                           capture_output=True, env=_child_env())
        assert r.returncode == 0, r.stderr
        c_sol, c_surd, c_num, texts, values = pickle.loads(r.stdout)
        assert c_sol == sol and c_sol.coeffs == sol.coeffs and c_surd == surd
        assert hash(c_sol.coeffs) == hash(sol.coeffs) and hash(c_surd) == hash(surd)
        assert c_surd.to_source() == surd.to_source()
        stored.append(c_num)
        printed.append((texts, values))
    assert stored[0] != stored[1]
    assert printed[0] == printed[1] == ([s.to_source() for s in sol.coeffs],
                                        [s.eval(x).hex() for s in sol.coeffs for x in (0.5, 1.0)])


def test_each_signature_is_decoded_once(delay_problem, wave_problem):
    # a copy keeps no order or text, so copying, printing and evaluating the
    # same Scalars a second time reads every id's decoding from the caches
    # and forms none anew
    scalars = _per_id_scalars(delay_problem, wave_problem)
    caches = (_atom_order, _decoded, _sort_key, _factors, _sig_source, _atom_float)
    seen = []
    for bind in BINDINGS:
        for s in scalars:
            c = copy.copy(s)
            c.eval(bind)
            c.to_source()
        seen.append([(cache.cache_info().currsize, cache.cache_info().misses) for cache in caches])
    assert seen[1] == seen[0]
    assert all(size <= len(scalar._SIG_KEYS) for size, _ in seen[0][:-1])
    assert seen[0][-1][0] <= len(scalar._ATOMS)


@pytest.mark.parametrize("exponent", [309, 400])
def test_a_gamma_argument_past_the_float_range_is_exact_until_evaluated(delay_problem, exponent):
    # Gamma(1/10^309) overflows a float and 1/10^400 is 0.0 as a float: the
    # coefficients still form and print, evaluating such an atom is an
    # EvalError on every call, and atoms met afterwards evaluate correctly
    alpha = Fraction(1, 10**exponent)
    sol = solve(dataclasses.replace(delay_problem, alpha=alpha), 3)
    assert any(f"gamma({alpha})" in s.to_source() for s in sol.coeffs)
    tiny = Scalar.gamma(alpha) * Scalar.gamma(Fraction(3, 37 + exponent))
    for _ in range(2):
        with pytest.raises(EvalError, match="overflow"):
            tiny.eval()
    later = Scalar.gamma(Fraction(5, 41 + exponent)) * Scalar.rational_power(
        10007 + exponent, Fraction(1, 3))
    assert later.eval() == _ref_eval(later, {})
    later = later * Scalar.param("nu")
    assert later.eval({"nu": 1.5}) == _ref_eval(later, {"nu": 1.5})


def test_overflow_names_the_gamma_atom_or_the_parameter():
    with pytest.raises(EvalError, match=r"^overflow: gamma of an argument with a 1329-bit "
                                        r"integer is past the float range$"):
        Scalar.gamma(Fraction(1, 10**400)).eval()
    with pytest.raises(EvalError, match=r"^overflow: parameter 'nu' = 1e\+308 to the power 2 "
                                        r"is past the float range$"):
        (Scalar.param("nu") ** 2).eval({"nu": 1e308})


def test_signature_product_cache_is_bounded(delay_problem, monkeypatch):
    assert 0 < _sig_mul.cache_info().maxsize < 10**6
    p = dataclasses.replace(delay_problem, alpha=Fraction(3, 5))
    warm = solve(p, 6).coeffs
    _sig_mul.cache_clear()
    assert _sig_mul.cache_info().currsize == 0
    _drop_engine()  # each solve below multiplies its signatures again
    assert solve(p, 6).coeffs == warm
    # a cache that fills up evicts, and the products stay the same
    small = functools.lru_cache(maxsize=40)(_sig_mul.__wrapped__)
    monkeypatch.setattr(scalar, "_sig_mul", small)
    _drop_engine()
    assert solve(p, 6).coeffs == warm
    info = small.cache_info()
    assert info.currsize == 40 and info.misses > 40


def test_reverse_signature_products_are_copied():
    g = Scalar.gamma
    a = g(Fraction(1, 7)) + g(Fraction(2, 7))
    b = g(Fraction(3, 7)) * Scalar.rational_power(2, Fraction(1, 7)) + g(Fraction(5, 7))
    _sig_mul.cache_clear()
    ab = a * b
    assert _sig_mul.cache_info().misses == 4
    assert b * a == ab
    assert _sig_mul.cache_info().misses == 4  # each (b, a) pair is the reverse of a cached (a, b)


def test_interning_from_two_threads_gives_distinct_ids():
    # the atom and signature lists stall after reading their length, so an
    # unlocked check-then-append hands one index to both threads
    child = (
        "import threading, time\n"
        "from fracseries import scalar\n"
        "from fracseries.scalar import Scalar\n"
        "class SlowLen(list):\n"
        "    def __len__(self):\n"
        "        n = super().__len__()\n"
        "        time.sleep(0.001)\n"
        "        return n\n"
        "scalar._SIG_KEYS = SlowLen(scalar._SIG_KEYS)\n"
        "scalar._ATOMS = SlowLen(scalar._ATOMS)\n"
        "def intern(tag):\n"
        "    for i in range(20):\n"
        "        Scalar.param(f'{tag}{i}')\n"
        "threads = [threading.Thread(target=intern, args=(tag,)) for tag in 'ab']\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "print(sum(scalar._SIG_IDS[key] != k for k, key in enumerate(scalar._SIG_KEYS)),\n"
        "      sum(scalar._ATOM_IDS[atom] != i for i, atom in enumerate(scalar._ATOMS)),\n"
        "      ' '.join(str(Scalar.param(f'{tag}{i}')) for tag in 'ab' for i in range(20)))\n"
    )
    r = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                       env=_child_env(), timeout=120)
    assert r.returncode == 0, r.stderr
    bad_sigs, bad_atoms, *names = r.stdout.split()
    assert (bad_sigs, bad_atoms) == ("0", "0")
    assert names == [f"{tag}{i}" for tag in "ab" for i in range(20)]


def test_sources_are_stable():
    rng = random.Random(104)
    for _ in range(50):
        s = _random_scalar(rng)
        assert s.to_source() == s.to_source()


def test_factorize_past_three():
    # trial division over 6k +- 1 after the primes 2 and 3
    assert _factorize(2 * 3 * 5**2 * 7 * 11 * 13 * 97) == {
        2: 1, 3: 1, 5: 2, 7: 1, 11: 1, 13: 1, 97: 1}
    assert _factorize(49) == {7: 2}
    sqrt2 = Scalar.rational_power(2, Fraction(1, 2))
    assert Scalar.rational_power(Fraction(50, 49), Fraction(1, 2)) == Fraction(5, 7) * sqrt2
