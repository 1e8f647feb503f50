"""Problem-file grammar: round trips, precedence, diagnostics, fuzz."""

import random
from fractions import Fraction

import pytest

from fracseries.dsl import (
    _Env,
    _Parser,
    _lower_expr,
    _tokenize,
    parse_expr,
    parse_problem,
    parse_problem_file,
    parse_rhs,
    problem_to_source,
    rhs_to_source,
)
from fracseries.errors import ParseError
from fracseries.expr import Expr
from fracseries.problems import Problem, RhsFactor, RhsOperator, RhsTerm
from fracseries.scalar import Scalar


# -- golden round trips -------------------------------------------------------------

def test_round_trip_fixture_files(problems_dir):
    for name in ("kolmogorov.frac", "klein_gordon.frac", "burgers_delay.frac"):
        prob = parse_problem_file(problems_dir / name)
        text = problem_to_source(prob)
        again = parse_problem(text)
        assert again == prob, name
        # serializer output is a fixed point
        assert problem_to_source(again) == text


def test_round_trip_preserves_semantics(problems_dir):
    # the reparsed problem solves to identical coefficients
    from fracseries.solver import solve

    prob = parse_problem_file(problems_dir / "burgers_delay.frac")
    again = parse_problem(problem_to_source(prob))
    a = solve(prob, 3)
    b = solve(again, 3)
    for k in range(4):
        assert (a.coeff(k) - b.coeff(k)).is_zero()


def test_rhs_round_trip_spot_checks():
    cases = [
        "Dx(psi, 2)",
        "(x + 1)*Dx(psi) + x^2*Dx(psi, 2)",
        "Dx(psi)@(x, t/2)*psi@(x/2, t/2) + 1/2*psi",
        "exptime(2)*Dx(psi, 2)",
        "polytime(1, 0, 3/2)*psi",
        "nu*Dx(psi^2, 2) - omega*Dx(psi^2, 4)",
        "Dx(psi@(x/2, t)*x*psi^2, 2)@(3*x, t)",
        "Dx(x*exptime(1)*exp(x)) + Dx(x*exptime(1)*exp(x)*psi)",
    ]
    for src in cases:
        rhs = parse_rhs(src, params=["nu", "omega"])
        text = rhs_to_source(rhs)
        again = parse_rhs(text, params=["nu", "omega"])
        assert again == rhs, src


# -- expression grammar ---------------------------------------------------------------

def test_precedence_power_binds_tightest():
    assert (parse_expr("2*x^2") - Expr.poly([0, 0, 2])).is_zero()
    assert (parse_expr("-x^2") - Expr.poly([0, 0, -1])).is_zero()
    assert (parse_expr("2^3") - Expr.const(8)).is_zero()


def test_power_right_associative():
    assert (parse_expr("2^3^2") - Expr.const(512)).is_zero()


def test_unary_minus_and_subtraction():
    assert (parse_expr("-x + x") - Expr.zero()).is_zero()
    assert (parse_expr("1 - -x") - (Expr.x() + 1)).is_zero()
    assert (parse_expr("2 - 1 - 1")).is_zero()  # left assoc


def test_division_is_exact():
    e = parse_expr("x/4 + 1/4")
    assert (e.scalar_mul(4) - (Expr.x() + 1)).is_zero()
    assert (parse_expr("0.125*x") - Expr.x().scalar_mul(Fraction(1, 8))).is_zero()


def test_decimals_are_exact_fractions():
    assert (parse_expr("0.1") - Expr.const(Fraction(1, 10))).is_zero()
    assert (parse_expr("2.5*x") - Expr.x().scalar_mul(Fraction(5, 2))).is_zero()


def test_functions_of_scaled_x():
    e = parse_expr("cosh(x/2)")
    assert (e - Expr.cosh_of(Fraction(1, 2))).is_zero()
    e2 = parse_expr("exp(2*x)")
    assert (e2 - Expr.exponential(2)).is_zero()
    e3 = parse_expr("sinh(nu*x)", params=["nu"])
    assert (e3 - Expr.sinh_of(Scalar.param("nu"))).is_zero()


def test_sqrt_of_parameters():
    e = parse_expr("sqrt(nu/omega)*x", params=["nu", "omega"])
    mu = (Scalar.param("nu") / Scalar.param("omega")) ** Fraction(1, 2)
    assert (e - Expr.x().scalar_mul(mu)).is_zero()


def test_rhs_structure_delay_scaling():
    rhs = parse_rhs("psi@(x/2, t/2)")
    (term,) = rhs.terms
    (f,) = term.factors
    assert f.xscale == Fraction(1, 2) and f.tscale == Fraction(1, 2)
    assert f.n == 0 and f.power == 1


def test_rhs_scale_binds_to_nearest_factor():
    rhs = parse_rhs("Dx(psi)@(x, t/2)*psi")
    (term,) = rhs.terms
    scales = sorted((f.n, f.tscale) for f in term.factors)
    assert scales == [(0, Fraction(1)), (1, Fraction(1, 2))]


def test_rhs_dx_of_product_is_one_factor(problems_dir):
    # Dx(psi^2, 2) is not expanded: one factor holds psi^2 and the order
    rhs = parse_rhs("Dx(psi^2, 2)")
    (term,) = rhs.terms
    (f,) = term.factors
    assert f.n == 2 and f.power == 1 and f.inner == parse_rhs("psi^2")
    assert rhs_to_source(rhs) == "Dx(psi^2,2)"
    kg = parse_rhs("nu*Dx(psi^2,2) - omega*Dx(psi^2,4)", params=["nu", "omega"])
    assert len(kg.terms) == 2
    text = problem_to_source(parse_problem_file(problems_dir / "klein_gordon.frac"))
    assert "Dx(psi^2,2)" in text and "Dx(psi^2,4)" in text
    assert problem_to_source(parse_problem(text)) == text


def test_rhs_time_coefficients():
    # a time coefficient is an Expr read in t
    rhs = parse_rhs("exptime(3)*Dx(psi)")
    (term,) = rhs.terms
    assert term.tcoef == Expr.exponential(3)
    rhs2 = parse_rhs("polytime(1, 2)*psi")
    (term2,) = rhs2.terms
    assert term2.tcoef == Expr.poly([1, 2])
    # exptime(0) is the unit coefficient
    rhs3 = parse_rhs("exptime(0)*psi")
    assert rhs3.terms[0].tcoef == Expr.one()
    # a one-entry polytime folds into the scalar coefficient
    rhs4 = parse_rhs("polytime(5)*psi")
    (term4,) = rhs4.terms
    assert term4.tcoef == Expr.one()
    assert (term4.coeff - Expr.const(5)).is_zero()
    # polynomial and exponential factors multiply: t*exp(t)
    (term5,) = parse_rhs("polytime(0,1)*exptime(1)*psi").terms
    assert term5.tcoef == Expr.x() * Expr.exponential(1)
    assert rhs_to_source(RhsOperator(terms=(term5,))) == "polytime(0,1)*exptime(1)*psi"


def test_rhs_merges_exptime_rates():
    rhs = parse_rhs("exptime(1)*exptime(2)*psi")
    (term,) = rhs.terms
    assert term.tcoef == Expr.exponential(3)
    # rates that cancel leave no time coefficient
    assert parse_rhs("exptime(1)*exptime(-1)*psi").terms[0].tcoef == Expr.one()


def test_rhs_time_coefficient_sum_prints_parenthesized():
    # only the library builds a sum of exponentials in t; it prints as a
    # parenthesized sum, and the reparsed problem (two terms) solves alike
    from fracseries.solver import solve

    tc = Expr.exponential(1) + Expr.exponential(2)
    term = RhsTerm(coeff=Expr.one(), tcoef=tc, factors=(RhsFactor(),))
    p = Problem(name="p", m=1, alpha=Fraction(1), rhs=RhsOperator(terms=(term,)),
                ics=(Expr.x() + 1,))
    assert rhs_to_source(p.rhs) == "(exptime(1) + exptime(2))*psi"
    again = parse_problem(problem_to_source(p))
    assert len(again.rhs.terms) == 2
    assert solve(again, 8).coeffs == solve(p, 8).coeffs


def test_rhs_constant_moves_out_of_a_dx_product():
    # Dx commutes with constants, so both spellings are one term and one
    # product stream
    rhs = parse_rhs("Dx(2*x*psi) + 2*Dx(x*psi)")
    assert rhs == parse_rhs("4*Dx(x*psi)")
    assert rhs_to_source(rhs) == "4*Dx(x*psi)"
    assert rhs_to_source(parse_rhs("Dx(nu*psi^2)")) == "nu*Dx(psi^2)"
    # a lone first-power factor left inside is no nested operator
    assert parse_rhs("Dx(2*psi)") == parse_rhs("2*Dx(psi)")


def test_forcing_lines_build_series():
    text = """
name = forced
alpha = 1/2
order = 1
ic0 = x
rhs = Dx(psi, 2)
forcing 0 = x + 1
forcing 2 = x^2
"""
    # plain grid coefficients: the order alpha lives on the problem alone
    prob = parse_problem(text)
    assert prob.rhs.forcing == ((0, Expr.x() + 1), (2, Expr.poly([0, 0, 1])))


def test_pure_x_rhs_terms_become_sources():
    rhs = parse_rhs("x^2 + Dx(psi)")
    kinds = sorted(len(t.factors) for t in rhs.terms)
    assert kinds == [0, 1]
    src = [t for t in rhs.terms if not t.factors][0]
    assert (src.coeff - Expr.poly([0, 0, 1])).is_zero()


@pytest.mark.parametrize("a, b, alpha", [
    ("(x*psi)@(2*x, t)", "2*x*psi@(2*x,t)", "1/2"),
    ("(exp(x)*psi)@(2*x,t)", "exp(2*x)*psi@(2*x,t)", "1/2"),
    ("psi@(3*x/2, t)", "psi@(3/2*x, t)", "1/2"),
    ("exptime(1)@(x,2*t)*psi", "exptime(2)*psi", "1"),
    ("polytime(0,1)@(x,t/2)*psi", "polytime(0,1/2)*psi", "1"),
    ("psi/nu", "(1/nu)*psi", "1/2"),
    ("Dx(x*psi)", "psi + x*Dx(psi)", "1/2"),
    ("Dx(exp(2*x)*psi)", "2*exp(2*x)*psi + exp(2*x)*Dx(psi)", "1/2"),
    ("polytime(1,1)*polytime(0,1)*psi", "polytime(0,1,1)*psi", "1"),
    ("(polytime(0,1)*exptime(1))@(x,2*t)*psi", "polytime(0,2)*exptime(2)*psi", "1"),
    ("Dx(2*x*psi) + 2*Dx(x*psi)", "4*Dx(x*psi)", "1/2"),
    ("polytime(0,0)*psi", "0", "1"),
    ("-psi", "(-1)*psi", "1/2"),
    ("Dx(psi,0)", "psi", "1/2"),
    ("psi^0", "1", "1/2"),
    # Dx of a product against its chain rule and its Leibniz expansion
    ("Dx(psi@(x/2,t)*psi)", "(1/2)*Dx(psi)@(x/2,t)*psi + psi@(x/2,t)*Dx(psi)", "1/2"),
    ("Dx(psi@(x/2,t)*psi)", "Dx(psi*psi@(x/2,t))", "1/2"),
    ("Dx(psi^2,2)", "2*psi*Dx(psi,2) + 2*Dx(psi)^2", "1/2"),
    ("Dx(psi^2,4)", "2*psi*Dx(psi,4) + 8*Dx(psi)*Dx(psi,3) + 6*Dx(psi,2)^2", "1/2"),
])
def test_lowering_forms_solve_alike(a, b, alpha):
    # each left side takes a lowering path (a scaled coefficient, a scaled
    # time coefficient, division, Dx of a product, polytime products, a zero
    # polytime, negation, a zero-order Dx or power) that the right side spells out
    from fracseries.solver import solve

    def problem(rhs):
        return parse_problem(f"param nu\nalpha = {alpha}\norder = 1\nic0 = x + 1\nrhs = {rhs}\n")

    assert solve(problem(a), 5).coeffs == solve(problem(b), 5).coeffs


def _rhs_at_t0(node: tuple, psi: Expr) -> Expr:
    """The rhs syntax tree applied to psi(x, 0), walked directly.

    At t = 0 a time scaling acts as the identity, exptime as 1 and polytime
    as its first coefficient. Only psi-free calls like exp(x/3) go through
    the x-expression lowering; the rhs lowering is not used.
    """
    tag = node[0]

    def walk(n):
        return _rhs_at_t0(n, psi)

    def const(n):
        return walk(n).as_scalar().as_fraction()

    if tag == "num":
        return Expr.const(node[2])
    if tag == "name":
        name = node[2]
        if name in ("psi", "x"):
            return psi if name == "psi" else Expr.x()
        return Expr.const(Scalar.param(name))
    if tag == "neg":
        return -walk(node[2])
    if tag == "add":
        return walk(node[2]) + walk(node[3])
    if tag == "sub":
        return walk(node[2]) - walk(node[3])
    if tag == "mul":
        return walk(node[2]) * walk(node[3])
    if tag == "div":
        return walk(node[2]).scalar_mul(1 / const(node[3]))
    if tag == "pow":
        out = Expr.one()
        for _ in range(int(const(node[3]))):
            out = out * walk(node[2])
        return out
    if tag == "at":
        return walk(node[2]).scale_x(walk(node[3]).diff_x(1).as_scalar().as_fraction())
    fname, args = node[2], node[3]
    if fname == "Dx":
        return walk(args[0]).diff_x(int(const(args[1])) if len(args) == 2 else 1)
    if fname == "exptime":
        return Expr.one()
    if fname == "polytime":
        return walk(args[0])
    return _lower_expr(node, _Env(None), "a function of x")


@pytest.mark.parametrize("rhs", [
    "Dx(psi@(x/2,t)*psi)",
    "Dx(psi*psi@(x/2,t))",
    "Dx(x*psi@(x/3,t/2)^2, 3)",
    "Dx((psi^2)@(x/2,t))",
    "Dx(psi^2)@(x/2,t)",
    "Dx(psi^3,2)@(x/2,t)",
    "Dx(Dx(psi^2)*psi@(2*x,t))",
    "Dx(psi@(x/2,t/2)*Dx(psi)@(3*x,t),2)",
    "(Dx(psi)*psi)@(x/2,t) - Dx(psi)^2",
    "Dx(exp(x)*psi*Dx(psi),2)/3",
    "Dx(exptime(2)*x*psi@(x/2,t)^2)",
    "Dx(polytime(1,2)*psi*psi@(x/2,t))",
    "nu*Dx(psi^2,2) - omega*Dx(psi^2,4)",
    "-Dx(nu*psi^2)^2",
])
def test_lowering_matches_a_direct_walk_of_the_syntax_tree(rhs):
    # residual_orders reads the same lowered operator as solve, so it cannot
    # see a lowering error; this oracle reads the syntax tree instead
    from fracseries.solver import solve

    prob = parse_problem(
        f"param nu\nparam omega\nalpha = 1\norder = 1\nic0 = x^4 + x + exp(x/3)\nrhs = {rhs}\n"
    )
    walked = _rhs_at_t0(_Parser(_tokenize(rhs)).parse_full(), prob.ics[0])
    assert solve(prob, 1).coeff(1) == walked


def test_grouping_collects_repeated_shapes():
    rhs = parse_rhs("x*Dx(psi) + Dx(psi)*x + psi")
    assert len(rhs.terms) == 2
    first = rhs.terms[0]
    assert (first.coeff - Expr.x().scalar_mul(2)).is_zero()


def test_default_problem_name_is_file_stem(tmp_path):
    p = tmp_path / "heat_flow.frac"
    p.write_text("alpha = 1\norder = 1\nic0 = x\nrhs = Dx(psi, 2)\n")
    prob = parse_problem_file(p)
    assert prob.name == "heat_flow"


# -- diagnostics ----------------------------------------------------------------------

# (filename, expected line, expected col, message fragment); positions frozen
# after checking by eye that each points at the offending token
_MALFORMED = [
    ("bad_arity.frac", 5, 7, "takes 1 to 2 argument"),
    ("bad_token.frac", 5, 11, "unexpected character"),
    ("div_by_psi.frac", 5, 11, "divisor"),
    ("dup_key.frac", 3, 1, "duplicate 'alpha'"),
    ("exp_nonlinear.frac", 4, 12, "linear in x"),
    ("ic_count.frac", None, None, "missing initial condition 'ic1'"),
    ("missing_alpha.frac", None, None, "missing required line 'alpha"),
    ("nonconst_alpha.frac", 2, 11, "alpha must not depend on x"),
    ("psi_in_ic.frac", 4, 7, "not allowed in an initial condition"),
    ("unclosed_paren.frac", 5, 23, "expected ')'"),
    ("undeclared_param.frac", 4, 7, "unknown name 'nu'"),
    ("unknown_key.frac", 6, 1, "unknown key 'stepsize'"),
]


@pytest.mark.parametrize("name,line,col,fragment", _MALFORMED)
def test_malformed_inputs_report_positions(malformed_dir, name, line, col, fragment):
    with pytest.raises(ParseError) as err:
        parse_problem_file(malformed_dir / name)
    e = err.value
    assert e.line == line and e.col == col, str(e)
    assert fragment in e.message, str(e)


def test_error_message_includes_position_text():
    with pytest.raises(ParseError) as err:
        parse_problem("name = p\nalpha = 1\norder = 1\nic0 = x\nrhs = Dx(psi")
    assert "line 5" in str(err.value)


# -- fuzzing --------------------------------------------------------------------------

_FUZZ_TOKENS = [
    "x", "psi", "Dx", "exp", "sinh", "cosh", "sqrt", "exptime", "polytime",
    "(", ")", ",", "+", "-", "*", "/", "^", "@", "=", "1", "2", "0.5",
    "1/2", "nu", " ", "alpha", "order", "ic0", "rhs", "name", "#", "\n",
]


def _fuzz_text(rng):
    n = rng.randrange(1, 40)
    return "".join(rng.choice(_FUZZ_TOKENS) for _ in range(n))


def test_fuzz_expressions_never_crash():
    # every input either parses or raises a positioned ParseError
    rng = random.Random(20260819)
    parsed = 0
    for _ in range(6000):
        text = _fuzz_text(rng)
        try:
            parse_expr(text, params=["nu"])
            parsed += 1
        except ParseError:
            pass
    assert parsed > 0  # the grammar accepts some of them


def test_fuzz_rhs_never_crashes():
    rng = random.Random(77)
    parsed = 0
    for _ in range(6000):
        text = _fuzz_text(rng)
        try:
            parse_rhs(text, params=["nu"])
            parsed += 1
        except ParseError:
            pass
    assert parsed > 0


def test_fuzz_problem_files_never_crash():
    rng = random.Random(3)
    lines_pool = [
        "name = fuzz", "alpha = 1/2", "alpha = 2", "order = 1", "order = x",
        "ic0 = x", "ic0 = psi", "ic1 = 1", "rhs = Dx(psi)", "rhs = ",
        "param nu", "param nu = 3", "forcing 0 = x", "forcing -1 = x",
        "junk line", "= =", "#c", "", "exact = x*exp(t)", "exact = t/0",
    ]
    parsed = 0
    for _ in range(4000):
        text = "\n".join(rng.choice(lines_pool) for _ in range(rng.randrange(1, 9)))
        try:
            parse_problem(text)
            parsed += 1
        except ParseError:
            pass
    assert parsed >= 0


def test_fuzz_mutated_fixture(problems_dir):
    # single-character mutations of a valid file: parse or positioned error
    base = (problems_dir / "klein_gordon.frac").read_text()
    rng = random.Random(9)
    for _ in range(2000):
        i = rng.randrange(len(base))
        c = rng.choice("xt()+-*/^@=123 #\n")
        text = base[:i] + c + base[i + 1:]
        try:
            parse_problem(text)
        except ParseError as e:
            assert e.message  # never empty
