"""Exact scalar ring: axioms, canonical forms, numeric agreement."""

import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest

from fracseries.errors import EvalError, ScalarError
from fracseries.scalar import _ONE_SUM, _SIG_MUL_CACHE_SIZE, Scalar, _intern, _sig_mul
from fracseries.solver import apply_rhs, residual_series, solve


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


def _assert_coeff_types(*scalars):
    """Every monomial coefficient is an int when integral, else a Fraction."""
    for s in scalars:
        for sig, c in s.num + s.den:
            if type(c) is not int:
                assert type(c) is Fraction and c.denominator != 1, (s, sig, c)


def _expr_scalars(exprs):
    return [s for e in exprs for mu, poly in e.terms for s in (mu, *poly)]


def _assert_interned_unit_ratio(q):
    """q is a non-integral rational in (0, 1) and the shared instance of it."""
    assert isinstance(q, Fraction) and q.denominator != 1 and 0 < q < 1, q
    assert q is _intern(Fraction(q)), q


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
    return [atom[1] for part in (s.num, s.den) for sig, _ in part
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


def test_unbound_parameter_is_an_error():
    with pytest.raises(EvalError):
        Scalar.param("zeta").eval({})


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
    # the coefficient of a rational Scalar is an int when integral, but the
    # exact value is always handed out as a Fraction
    assert type(three.num[0][1]) is int
    assert type(three.as_fraction()) is Fraction
    assert type(Scalar.zero().as_fraction()) is Fraction
    # integral exponents are stored as int; prime-atom exponents and Gamma
    # arguments are the interned Fraction of a value in (0, 1), and any other
    # non-integral exponent is interned too, in every Scalar a solve and its
    # residual check build
    p = dataclasses.replace(delay_problem, alpha=Fraction(3, 5))
    sol = solve(p, 6)
    exprs = list(sol.coeffs)
    for series in (residual_series(p, sol), apply_rhs(p.rhs, sol.series(), 5)):
        exprs += [e for _, e in series.coeffs]
    scalars = _expr_scalars(exprs)
    exps = [(atom, e) for s in scalars for part in (s.num, s.den)
            for sig, _ in part for atom, e in sig]
    assert any(atom[0] == "g" for atom, _ in exps)
    assert any(atom[0] == "r" for atom, _ in exps)
    for atom, e in exps:
        if atom[0] == "g":
            _assert_interned_unit_ratio(atom[1])
        if atom[0] == "r":
            _assert_interned_unit_ratio(e)
        elif e.denominator == 1:
            assert type(e) is int, (atom, e)
        else:
            assert e is _intern(Fraction(e)), (atom, e)
    # monomial coefficients likewise: int when integral, Fraction otherwise,
    # here and in kolmogorov at K = 20 (integers only, binomial weights)
    _assert_coeff_types(*scalars)
    kol = solve(diffusion_problem, 20)
    kol_scalars = _expr_scalars(kol.coeffs)
    assert any(c == 1 for s in kol_scalars for _, c in s.num)
    _assert_coeff_types(*kol_scalars)


def _signature_rationals(scalars):
    """Gamma arguments and non-integral exponents of the given Scalars."""
    out = []
    for s in scalars:
        for part in (s.num, s.den):
            for sig, _ in part:
                for atom, e in sig:
                    if atom[0] == "g":
                        out.append(atom[1])
                    if e.denominator != 1:
                        out.append(e)
    return out


def test_pickle_and_copies_keep_structure_and_interning(delay_problem):
    # a solution with its Exprs and Scalars, and a Scalar with Gamma and prime
    # atoms, come back equal, hash alike and hold the shared rationals
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
        rationals = _signature_rationals(_expr_scalars(c_sol.coeffs) + [c_surd])
        for q in rationals:
            assert q is _intern(Fraction(q)), q
    # a unit denominator comes back as the shared tuple, so the copy's sums
    # and products keep the fast path of _make
    assert pickle.loads(pickle.dumps(Scalar.param("a") + 1)).den is _ONE_SUM


def test_signature_product_cache_is_bounded(delay_problem):
    maxsize = _sig_mul.cache_info().maxsize
    assert maxsize is not None and maxsize == _SIG_MUL_CACHE_SIZE
    p = dataclasses.replace(delay_problem, alpha=Fraction(3, 5))
    warm = solve(p, 6).coeffs
    _sig_mul.cache_clear()
    assert solve(p, 6).coeffs == warm


def test_sources_are_stable():
    rng = random.Random(104)
    for _ in range(50):
        s = _random_scalar(rng)
        assert s.to_source() == s.to_source()
