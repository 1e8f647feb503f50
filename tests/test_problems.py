"""Problem containers: validation rules and reference-solution evaluation."""

import math
from fractions import Fraction

import pytest

from fracseries.dsl import parse_rhs
from fracseries.errors import AlphaOutOfRange, EvalError, ProblemError
from fracseries.expr import Expr
from fracseries.problems import (
    ExactSolution,
    Problem,
    RhsFactor,
    RhsOperator,
    RhsTerm,
)
from fracseries.scalar import Scalar


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
    with pytest.raises(ProblemError):
        RhsFactor(n=0, inner=_identity_rhs())
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


def test_forcing_indices_checked_and_canonical():
    for bad in (((-1, Expr.one()),), ((2, Expr.one()), (2, Expr.x()))):
        with pytest.raises(ProblemError):
            RhsOperator(forcing=bad)
    rhs = RhsOperator(forcing=((3, Expr.x()), (1, Expr.zero()), (0, Expr.one())))
    assert rhs.forcing == ((0, Expr.one()), (3, Expr.x()))


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
        forcing=((0, Expr.x()),),
    )
    assert forced.is_linear()
    # a nested right-hand side is linear when its own terms are
    assert parse_rhs("Dx(x*psi)").is_linear()
    assert not parse_rhs("Dx(psi^2)").is_linear()


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
    assert ex.eval(2.0, 3.0, {"a": 10.0, "b": 1.0}) == 23.0
    # round trip through the stored source
    again = parse_exact(ex.to_source())
    assert again == ex


_WALK_FUNCS = {"exp": math.exp, "sinh": math.sinh, "cosh": math.cosh, "sqrt": math.sqrt}


def _tree_walk(node, x, t, params):
    """Reference: evaluate an exact-solution node tree by plain recursion."""
    tag = node[0]
    if tag == "num":
        return float(node[1])
    if tag == "x":
        return x
    if tag == "t":
        return t
    if tag == "param":
        return params[node[1]]
    if tag == "neg":
        return -_tree_walk(node[1], x, t, params)
    if tag == "call":
        return _WALK_FUNCS[node[1]](_tree_walk(node[2], x, t, params))
    a = _tree_walk(node[1], x, t, params)
    b = _tree_walk(node[2], x, t, params)
    return {"add": lambda: a + b, "sub": lambda: a - b, "mul": lambda: a * b,
            "div": lambda: a / b, "pow": lambda: a ** b}[tag]()


def test_compiled_reference_matches_tree_walk(problems_dir):
    from fracseries.dsl import parse_exact, parse_problem_file

    refs = []
    for path in sorted(problems_dir.glob("*.frac")):
        prob = parse_problem_file(str(path))
        if prob.exact is not None:
            refs.append((prob.exact, prob.param_floats()))
    assert len(refs) == 2  # kolmogorov and burgers-delay
    # every node kind, with parameters and a rational literal
    refs.append((parse_exact("-a*sinh(x)/cosh(t/3) - sqrt(x + 2)^b + exp(-t)*(x - 7/5)"),
                 {"a": 1.25, "b": 0.5}))
    for ex, params in refs:
        for xv in (-1.0, 0.0, 0.3, 1.0, 2.5):
            for tv in (0.0, 0.125, 1.0, 7.5):
                want = _tree_walk(ex.node, xv, tv, params)
                assert ex.eval(xv, tv, params).hex() == want.hex()
    # an overflowing point of a shipped reference fails both ways
    for ex, params in refs[:2]:
        with pytest.raises(OverflowError):
            _tree_walk(ex.node, 0.5, 1000.0, params)
        with pytest.raises(EvalError, match="reference evaluation failed at x=0.5, t=1000.0"):
            ex.eval(0.5, 1000.0, params)
    # an unbound parameter keeps its message; a non-finite value is an error
    with pytest.raises(EvalError, match="parameter 'b' has no value"):
        refs[-1][0].eval(0.5, 1.0, {"a": 1.0})
    with pytest.raises(EvalError, match="produced inf"):
        parse_exact("exp(700)*exp(700)*x").eval(1.0, 0.0, {})
    # a literal outside the double range fails at evaluation, not at parse
    huge = parse_exact("1" + "0" * 400 + "*x")
    with pytest.raises(EvalError, match="reference evaluation failed"):
        huge.eval(1.0, 0.0, {})
