"""Exponential-polynomial expressions: algebra, calculus, normal form."""

import math
import random
from fractions import Fraction

from fracseries.evaluate import _Compiled
from fracseries.expr import Expr, eval_float_terms, probe_equal, probe_zero
from fracseries.scalar import Scalar
from fracseries.solver import SeriesSolution


def _random_expr(rng, allow_params=True):
    terms = Expr.zero()
    for _ in range(rng.randrange(1, 4)):
        deg = rng.randrange(0, 3)
        poly = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(deg + 1)]
        mu = rng.choice([0, 1, -1, Fraction(1, 2), Fraction(-3, 2)])
        if allow_params and rng.random() < 0.3:
            amp = Scalar.param(rng.choice("ab"))
            terms = terms + Expr.poly(poly) * Expr.exponential(mu, amp)
        else:
            terms = terms + Expr.poly(poly) * Expr.exponential(mu)
    return terms


def _envelope(e, x):
    """Sum of absolute term magnitudes of e at x, a scale for float tolerances."""
    total = 0.0
    for mu, poly in e.terms:
        pv = 0.0
        for c in reversed(poly):
            pv = pv * abs(x) + abs(c.eval())
        total += pv * math.exp(abs(mu.eval()) * abs(x))
    return total


def _reference_eval(e, x, params):
    """Expr.eval as a direct Horner/exp loop over the exact terms."""
    total = 0.0
    for mu, poly in e.terms:
        pv = 0.0
        for c in reversed(poly):
            pv = pv * x + c.eval(params)
        mv = mu.eval(params)
        total += pv * math.exp(mv * x) if mv != 0.0 else pv
    return total


def test_ring_axioms_random():
    rng = random.Random(201)
    for _ in range(120):
        a = _random_expr(rng)
        b = _random_expr(rng)
        c = _random_expr(rng)
        assert ((a + b) + c) == (a + (b + c))
        assert ((a * b) * c) == (a * (b * c))
        assert (a * (b + c)) == (a * b + a * c)
        assert (a + b) == (b + a)
        assert (a * b) == (b * a)
        assert (a - a).is_zero()
        assert (a * Expr.one()) == a


def test_normal_form_idempotent():
    rng = random.Random(202)
    for _ in range(100):
        a = _random_expr(rng)
        again = Expr(a.terms, _raw=True)
        assert again == a
        assert (a + Expr.zero()) == a


def test_structural_equality_detects_reassociation():
    x = Expr.x()
    e = Expr.exponential(Fraction(1, 2))
    lhs = (x + 1) * (x - 1) * e
    rhs = (x * x - 1) * e
    assert lhs == rhs
    assert (lhs - rhs).is_zero()
    # a constant Expr equals its Scalar, int or Fraction value and hashes like it
    nu = Scalar.param("nu")
    assert Expr.const(nu) == nu and hash(Expr.const(nu)) == hash(nu)
    assert Expr.const(3) == 3 and hash(Expr.const(3)) == hash(3)
    assert len({Expr.const(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert hash(Expr.zero()) == hash(0)


def test_product_rule():
    rng = random.Random(203)
    for _ in range(60):
        a = _random_expr(rng)
        b = _random_expr(rng)
        lhs = (a * b).diff_x()
        rhs = a.diff_x() * b + a * b.diff_x()
        assert (lhs - rhs).is_zero()


def test_derivative_matches_finite_differences():
    rng = random.Random(204)
    h = 1e-5
    for _ in range(40):
        a = _random_expr(rng, allow_params=False)
        xv = rng.uniform(-1.2, 1.2)
        want = (a.eval(xv + h) - a.eval(xv - h)) / (2 * h)
        got = a.diff_x().eval(xv)
        scale = abs(want) + _envelope(a, xv) + 1.0
        assert abs(got - want) <= 1e-6 * scale


def test_higher_derivatives_compose():
    rng = random.Random(205)
    for _ in range(40):
        a = _random_expr(rng)
        assert a.diff_x(3) == a.diff_x().diff_x().diff_x()
        assert a.diff_x(0) == a


def test_exponential_derivative():
    # d/dx [x^2 exp(2x)] = (2x + 2x^2) exp(2x)
    e = Expr.poly([0, 0, 1]) * Expr.exponential(2)
    want = Expr.poly([0, 2, 2]) * Expr.exponential(2)
    assert (e.diff_x() - want).is_zero()


def test_scale_x():
    rng = random.Random(206)
    for _ in range(40):
        a = _random_expr(rng, allow_params=False)
        s = rng.choice([Fraction(1, 2), Fraction(2), Fraction(3, 4)])
        xv = rng.uniform(-1.0, 1.0)
        want = a.eval(float(s) * xv)
        got = a.scale_x(s).eval(xv)
        assert abs(got - want) <= 1e-12 * (abs(want) + _envelope(a, float(s) * xv) + 1)
        # chain rule: (f(sx))' = s f'(sx)
        assert (a.scale_x(s).diff_x() - a.diff_x().scale_x(s).scalar_mul(s)).is_zero()


def test_hyperbolic_identities():
    mu = Fraction(1, 2)
    c = Expr.cosh_of(mu)
    s = Expr.sinh_of(mu)
    assert (c * c - s * s - Expr.one()).is_zero()
    assert (c.diff_x() - s.scalar_mul(mu)).is_zero()
    assert (s.diff_x() - c.scalar_mul(mu)).is_zero()


def test_pretty_refolds_hyperbolics():
    c = Expr.cosh_of(Fraction(1, 2)).scalar_mul(3)
    assert "cosh" in c.pretty()
    s = Expr.sinh_of(2)
    assert "sinh" in s.pretty()
    # plain exponentials print as exp
    assert "exp" in Expr.exponential(1).pretty()


def test_power_operator():
    x = Expr.x()
    assert ((x + 1) ** 2 - (x * x + 2 * x + 1)).is_zero()
    assert ((x + 1) ** 0) == Expr.one()


def test_power_by_squaring_matches_repeated_products():
    # two exponential terms, one with a polynomial and a parameter frequency
    e = Expr.exponential(Fraction(1, 2), 3) + (Expr.x() - 1) * Expr.exponential(Scalar.param("nu"))
    want = Expr.one()
    for n in range(13):
        got = e ** n
        assert got == want and got.to_source() == want.to_source(), n
        want = want * e


def test_probe_equal_and_zero():
    x = Expr.x()
    e = Expr.exponential(1)
    assert probe_equal((x + 1) * e, x * e + e)
    assert not probe_equal(x, x + 1)
    assert probe_zero((x + 1) * (x - 1) - (x * x - 1))
    assert not probe_zero(x * x)


def test_probe_equal_with_free_params():
    a = Scalar.param("a")
    x = Expr.x()
    lhs = x.scalar_mul(a) + x.scalar_mul(a)
    rhs = x.scalar_mul(2 * a)
    assert probe_equal(lhs, rhs)
    assert not probe_equal(lhs, x.scalar_mul(a))


def test_eval_composition():
    rng = random.Random(207)
    for _ in range(50):
        a = _random_expr(rng, allow_params=False)
        b = _random_expr(rng, allow_params=False)
        xv = rng.uniform(-1.0, 1.0)
        scale = _envelope(a, xv) * _envelope(b, xv) + _envelope(a, xv) + _envelope(b, xv) + 1
        assert abs((a + b).eval(xv) - (a.eval(xv) + b.eval(xv))) <= 1e-12 * scale
        assert abs((a * b).eval(xv) - a.eval(xv) * b.eval(xv)) <= 1e-12 * scale


def test_eval_and_compiled_tables_match_the_reference_loop(diffusion_problem):
    rng = random.Random(209)
    params = {"a": 1.3, "b": -0.7}
    exprs = [_random_expr(rng) for _ in range(40)]
    exprs.append(Expr.exponential(Scalar.gamma(Fraction(1, 3)), Scalar.param("a")))
    compiled = _Compiled(SeriesSolution(diffusion_problem, len(exprs) - 1, tuple(exprs)),
                         params)
    for xv in (-1.25, 0.0, 0.3, 2.0):
        want = [_reference_eval(e, xv, params) for e in exprs]
        assert [e.eval(xv, params) for e in exprs] == want
        assert [eval_float_terms(e.float_terms(params), xv) for e in exprs] == want
        assert compiled.values(xv) == [(k, v) for k, v in enumerate(want) if v != 0.0]


def test_zero_test_cancels_across_frequencies():
    # cosh expansion against its exponential halves, exact cancellation
    mu = Fraction(3, 2)
    lhs = Expr.exponential(mu) + Expr.exponential(-mu)
    rhs = Expr.cosh_of(mu).scalar_mul(2)
    assert (lhs - rhs).is_zero()
    assert not (lhs - Expr.cosh_of(mu)).is_zero()


def test_to_source_round_trips_through_parser():
    from fracseries.dsl import parse_expr

    rng = random.Random(208)
    for _ in range(60):
        a = _random_expr(rng)
        back = parse_expr(a.to_source())
        assert (back - a).is_zero(), a.to_source()
