"""Problem containers: validation rules and reference-solution evaluation."""

import math
from fractions import Fraction

import pytest

from fracseries.errors import AlphaOutOfRange, EvalError, ProblemError
from fracseries.expr import Expr, ExpTime
from fracseries.problems import (
    ExactSolution,
    Problem,
    RhsFactor,
    RhsOperator,
    RhsTerm,
)
from fracseries.scalar import Scalar
from fracseries.series import FracSeries


def _identity_rhs():
    return RhsOperator(terms=(RhsTerm(coeff=Expr.one(), factors=(RhsFactor(),)),))


def test_alpha_range():
    rhs = _identity_rhs()
    for bad in (Fraction(0), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(AlphaOutOfRange):
            Problem(name="p", m=1, alpha=bad, rhs=rhs, ics=(Expr.x(),))
    # alpha = 1 inclusive
    Problem(name="p", m=1, alpha=Fraction(1), rhs=rhs, ics=(Expr.x(),))


def test_ic_count_must_match_m():
    rhs = _identity_rhs()
    with pytest.raises(ProblemError):
        Problem(name="p", m=2, alpha=Fraction(1, 2), rhs=rhs, ics=(Expr.x(),))
    with pytest.raises(ProblemError):
        Problem(name="p", m=1, alpha=Fraction(1, 2), rhs=rhs, ics=(Expr.x(), Expr.one()))


def test_factor_validation():
    with pytest.raises(ProblemError):
        RhsFactor(n=-1)
    with pytest.raises(ProblemError):
        RhsFactor(xscale=Fraction(0))
    with pytest.raises(ProblemError):
        RhsFactor(tscale=Fraction(-1, 2))
    with pytest.raises(ProblemError):
        RhsFactor(power=0)
    f = RhsFactor(n=2, xscale=Fraction(1, 2), tscale=Fraction(1, 2), power=1)
    assert f.scaled


def test_reserved_parameter_names():
    rhs = _identity_rhs()
    for bad in ("x", "t", "psi"):
        with pytest.raises(ProblemError):
            Problem(
                name="p", m=1, alpha=Fraction(1), rhs=rhs, ics=(Expr.x(),),
                params={bad: None},
            )


def test_forcing_alpha_must_match():
    forcing = FracSeries(Fraction(1, 3), 1, {0: Expr.one()})
    rhs = RhsOperator(terms=(), forcing=forcing)
    with pytest.raises(ProblemError):
        Problem(name="p", m=1, alpha=Fraction(1, 2), rhs=rhs, ics=(Expr.x(),))


def test_is_linear():
    lin = _identity_rhs()
    assert lin.is_linear()
    sq = RhsOperator(terms=(RhsTerm(coeff=Expr.one(), factors=(RhsFactor(power=2),)),))
    assert not sq.is_linear()
    two = RhsOperator(
        terms=(RhsTerm(coeff=Expr.one(), factors=(RhsFactor(), RhsFactor(n=1))),)
    )
    assert not two.is_linear()
    # factorless source terms also disqualify: the fast path takes sources
    # only through the forcing series
    src = RhsOperator(
        terms=(
            RhsTerm(coeff=Expr.one(), factors=(RhsFactor(),)),
            RhsTerm(coeff=Expr.x(), factors=()),
        )
    )
    assert not src.is_linear()
    forced = RhsOperator(
        terms=(RhsTerm(coeff=Expr.one(), factors=(RhsFactor(),)),),
        forcing=FracSeries(Fraction(1, 2), 0, {0: Expr.x()}),
    )
    assert forced.is_linear()


def test_free_params_collects_all_sites():
    nu = Scalar.param("nu")
    term = RhsTerm(
        coeff=Expr.const(nu),
        tcoef=ExpTime(Scalar.param("r")),
        factors=(RhsFactor(n=1),),
    )
    rhs = RhsOperator(terms=(term,))
    assert rhs.free_params() == {"nu", "r"}


def test_param_floats_defaults_and_overrides():
    rhs = _identity_rhs()
    p = Problem(
        name="p", m=1, alpha=Fraction(1), rhs=rhs, ics=(Expr.x(),),
        params={"nu": Scalar.from_fraction(Fraction(3, 2)), "omega": None},
    )
    assert p.param_floats() == {"nu": 1.5}
    assert p.param_floats({"omega": 2.0}) == {"nu": 1.5, "omega": 2.0}
    assert p.param_floats({"nu": 7.0})["nu"] == 7.0


def test_exact_solution_eval():
    src = "(x + 1)*exp(t)"
    from fracseries.dsl import parse_exact

    ex = parse_exact(src)
    for xv, tv in ((0.0, 0.0), (0.5, 1.0), (-0.25, 0.75)):
        assert abs(ex.eval(xv, tv, {}) - (xv + 1) * math.exp(tv)) < 1e-14


def test_exact_solution_domain_errors():
    from fracseries.dsl import parse_exact

    ex = parse_exact("sqrt(x - 10)")
    with pytest.raises(EvalError):
        ex.eval(0.0, 0.0, {})
    exp_big = parse_exact("exp(x)")
    with pytest.raises(EvalError):
        exp_big.eval(1e9, 0.0, {})


def test_exact_solution_params_and_source():
    from fracseries.dsl import parse_exact

    ex = parse_exact("a*x + b*t")
    assert ex.free_params() == {"a", "b"}
    assert ex.eval(2.0, 3.0, {"a": 10.0, "b": 1.0}) == 23.0
    # round trip through the stored source
    again = parse_exact(ex.to_source())
    assert again == ex
