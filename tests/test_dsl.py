"""Problem-file grammar: round trips, precedence, diagnostics, fuzz."""

import random
import re
import string
import time
from fractions import Fraction

import pytest

from fracseries.dsl import (
    _MAX_DIGITS,
    _Env,
    _Parser,
    _Tok,
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


def test_round_trip_param_values_forcing_and_zero_rhs():
    text = ("name = p\nalpha = 1/2\norder = 1\nparam nu = 3/2\nic0 = nu*x\nrhs = 0\n"
            "forcing 0 = x\nforcing 2 = nu*x^2\n")
    prob = parse_problem(text)
    assert problem_to_source(prob) == text
    assert parse_problem(problem_to_source(prob)) == prob


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


@pytest.mark.parametrize("xarg, targ, want", [
    ("x/2", "t", (Fraction(1, 2), 1)),
    ("3*x/2", "t", (Fraction(3, 2), 1)),
    ("x*3/2", "t", (Fraction(3, 2), 1)),
    ("0.5*x", "t", (Fraction(1, 2), 1)),
    ("x", "2*t", (1, 2)),
    ("x", "t/2/2", (1, Fraction(1, 4))),
    # any constant rational multiple, as lowering reads it
    ("(1+1)*x", "t", (2, 1)),
    ("x^1", "t", (1, 1)),
    # rejected: the slot whose argument holds the error
    ("-x", "t", "x"),
    ("x", "0*t", "t"),
    ("x*x", "t", "x"),
    ("x/x", "t", "x"),
    ("x/0", "t", "x"),
    ("nu*x", "t", "x"),
    ("2^(1/2)*x", "t", "x"),
    ("exp(x)", "t", "x"),
    ("t", "t", "x"),
    ("x", "x", "t"),
])
def test_scaling_arguments(xarg, targ, want):
    text = f"psi@({xarg}, {targ})"
    if isinstance(want, tuple):
        (term,) = parse_rhs(text).terms
        (f,) = term.factors
        assert (f.xscale, f.tscale) == want
        return
    with pytest.raises(ParseError) as err:
        parse_rhs(text)
    arg, start = (xarg, len("psi@(")) if want == "x" else (targ, text.index(", ") + 2)
    assert err.value.line == 1 and start < err.value.col <= start + len(arg), str(err.value)


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
    # a factor constant in t joins the x-coefficient beside a real time factor
    rhs6 = parse_rhs("polytime(5)*exptime(1)*psi")
    assert rhs6 == parse_rhs("5*exptime(1)*psi")
    assert rhs_to_source(rhs6) == "5*exptime(1)*psi"
    assert rhs_to_source(parse_rhs("Dx(polytime(5)*exptime(1)*x*psi)")) == (
        "5*exptime(1)*Dx(x*psi)"
    )
    assert rhs_to_source(parse_rhs("exptime(0)*polytime(0,1)*psi")) == "polytime(0,1)*psi"


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


def test_a_byte_order_mark_is_ignored(tmp_path, problems_dir):
    # the shipped files start with a comment line, heat.frac with a key
    heat = tmp_path / "heat.frac"
    heat.write_text("name = heat\nalpha = 1\norder = 1\nic0 = x\nrhs = Dx(psi, 2)\n")
    shipped = ("kolmogorov.frac", "klein_gordon.frac", "burgers_delay.frac")
    for plain in (*(problems_dir / name for name in shipped), heat):
        marked = tmp_path / f"marked_{plain.name}"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_problem_file(marked) == parse_problem_file(plain)


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


@pytest.mark.parametrize("text, col, fragment", [
    ("ic0 = 2*\u00b2", 9, "unexpected character '\u00b2'"),  # superscript two
    ("ic0 = \u0663*x", 7, "unexpected character '\u0663'"),  # Arabic-Indic three
    ("ic\u00b2 = x", 1, "unknown key 'ic\u00b2'"),
    ("ic\u0663 = x", 1, "unknown key 'ic\u0663'"),
])
def test_only_ascii_digits_are_numbers(text, col, fragment):
    # str.isdigit() holds for these; they must not become numbers or indices
    with pytest.raises(ParseError) as err:
        parse_problem(f"name = p\nalpha = 1\norder = 1\n{text}\nrhs = psi\n")
    e = err.value
    assert (e.line, e.col) == (4, col) and e.message == fragment, str(e)


_REF_OP_CHARS = frozenset("+-*/^(),@")
_REF_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?")


def _ref_tokenize(text, line=1, col=1):
    """A character-by-character scanner, the reference for the regex tokenizer."""
    toks = []
    i, n = 0, len(text)
    ln, cl = line, col
    while i < n:
        ch = text[i]
        if ch == "\n":
            ln += 1
            cl = 1
            i += 1
            continue
        if ch in " \t\r":
            cl += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        num = _REF_NUMBER.match(text, i)
        if num:
            lit = num.group()
            if len(lit) > _MAX_DIGITS:
                raise ParseError(f"number of {len(lit)} characters out of supported range", ln, cl)
            toks.append(_Tok("num", lit, ln, cl, Fraction(lit)))
            cl += len(lit)
            i = num.end()
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], ln, cl))
            cl += j - i
            i = j
            continue
        if ch in _REF_OP_CHARS:
            toks.append(_Tok("op", ch, ln, cl))
            cl += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", ln, cl)
    toks.append(_Tok("end", "", ln, cl))
    return toks


# character classes drawn with equal weight, then a character of the class: white space,
# comments, decimals, ASCII words and operators, and characters whose str predicates differ
# (superscript two, Arabic-Indic three, e acute, one half, omega, vertical tab, form feed)
_TOKEN_CLASSES = ["\t", "\r", "\n", " ", "#", ".", "_", string.ascii_letters, string.digits,
                  "+-*/^(),@=", "\u00b2\u0663\u00e9\u00bd\u03a9\x0b\x0c"]


def _token_dump(tokenize, text, line, col):
    try:
        return [(t.kind, t.text, t.line, t.col, t.frac) for t in tokenize(text, line, col)]
    except ParseError as e:
        return str(e)


def test_tokens_match_the_reference_scanner():
    rng = random.Random(20261022)
    for _ in range(20000):
        text = "".join(rng.choice(rng.choice(_TOKEN_CLASSES)) for _ in range(rng.randrange(30)))
        if rng.random() < 0.01:
            text += "9" * rng.choice((_MAX_DIGITS, _MAX_DIGITS + 1))
        line, col = rng.randrange(1, 9), rng.randrange(1, 40)
        want = _token_dump(_ref_tokenize, text, line, col)
        assert _token_dump(_tokenize, text, line, col) == want, (text, line, col)
    # a trailing comment leaves the end token where the comment starts
    assert _tokenize("x # c")[-1] == _Tok("end", "", 1, 3)
    assert _tokenize("x # c\n", 4, 9)[-1] == _Tok("end", "", 5, 1)


@pytest.mark.parametrize("power", ["((((cosh(2*x))^3)^13)^3)^13", "((cosh(x))^40)^40"])
@pytest.mark.parametrize("line", [
    "ic0 = {}", "param k = {}", "forcing 1 = {}", "rhs = Dx(psi) + {}*psi",
])
def test_nested_powers_are_bounded_before_expanding(power, line):
    # each squaring step is checked before it is formed, so these fail on a
    # step's pairs of scalar monomials long before the full powers (of
    # exponent 1521 and 1600) would be expanded
    lines = {"ic0": "x", "rhs": "Dx(psi)"}
    key, _, value = line.format(power).partition(" = ")
    lines[key] = value
    text = "name = p\nalpha = 1/2\norder = 1\n" + "".join(
        f"{k} = {v}\n" for k, v in lines.items())
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert time.perf_counter() - start < 1.0
    e = err.value
    assert e.line == list(lines).index(key) + 4 and e.col is not None, str(e)
    assert "monomial pairs" in e.message and "out of supported range" in e.message


def test_nested_powers_within_the_bound_expand():
    assert parse_expr("(x^9)^11") == parse_expr("x^99")
    assert parse_expr("((cosh(x))^3)^0") == Expr.one()
    assert len(parse_expr("(cosh(x)^9)^11").terms) == 100
    with pytest.raises(ParseError, match=r"degree 100 out of supported range"):
        parse_expr("(x^10)^10")
    with pytest.raises(ParseError, match=r"degree 108 out of supported range"):
        parse_rhs("(x^9*psi)^12")
    assert parse_rhs("(x^9*psi)^11") == parse_rhs("x^99*psi^11")


@pytest.mark.parametrize("expr", [
    "cosh(x)^99*cosh(x)^99*cosh(x)^99*cosh(x)^99", "(x+cosh(x))^99",
    "(1+nu+omega)^99", "(1+nu+omega)^-99", "3^10000000",
    "(((3^99)^99)^99)^99", "(3^99)^99", pytest.param("7" * 4401, id="4401 digits"),
])
@pytest.mark.parametrize("line", [
    "ic0 = {}", "param k = {}", "forcing 1 = {}", "rhs = Dx(psi) + {}*psi",
])
def test_swelling_products_fail_fast(expr, line):
    # every exponent is at most 99, each product, a squaring step of a power
    # too, is checked before it is formed, and so is the length of a number
    lines = {"param nu": "", "param omega": "", "ic0": "x", "rhs": "Dx(psi)"}
    key, _, value = line.format(expr).partition(" = ")
    lines[key] = value
    text = "name = p\nalpha = 1/2\norder = 1\n" + "".join(
        f"{k} = {v}\n" for k, v in lines.items())
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert time.perf_counter() - start < 1.0
    e = err.value
    assert e.line == list(lines).index(key) + 4 and e.col is not None, str(e)
    assert "out of supported range" in e.message, str(e)


def test_products_within_the_bounds_expand():
    assert len(parse_expr("cosh(x)^99*cosh(x)^99").terms) == 199
    assert len(parse_expr("(x+cosh(x))^20").terms) == 41
    assert len(parse_expr("(cosh(x)^10)^10").terms) == 101
    # the degree of each product is bounded like that of a power, in t too
    for text in ("x^50*x^50", "(x+1)^99*(x+1)^99"):
        with pytest.raises(ParseError, match=r"degree \d+ out of supported range"):
            parse_expr(text)
    t50 = "polytime(" + "0," * 50 + "1)"
    with pytest.raises(ParseError, match=r"degree 100 out of supported range"):
        parse_rhs(f"{t50}*{t50}*psi")


_COSH_PAIR = "cosh({0}*x)^99*cosh({0}*x)^99"  # 17,956 monomial pairs, within one product's bound


@pytest.mark.parametrize("key, value, col, pairs", [
    ("ic0", " + ".join(_COSH_PAIR.format(k) for k in range(1, 17)), 47, 35912),
    ("rhs", f"Dx(psi) + {_COSH_PAIR.format(1)}*psi + {_COSH_PAIR.format(2)}*psi", 61, 36112),
    # an @ argument is lowered on its line's count too
    ("rhs", f"{_COSH_PAIR.format(1)}*psi + psi@(x*({_COSH_PAIR.format(2)})^0, t)", 59, 36112),
], ids=["sum", "rhs", "scaling"])
def test_line_work_is_bounded(key, value, col, pairs):
    # each product is within its bounds, but a line's products together stop
    # in their second cosh pair, before its last product is formed
    lines = {"ic0": "x", "rhs": "Dx(psi)", key: value}
    text = "alpha = 1/2\norder = 1\n" + "".join(f"{k} = {v}\n" for k, v in lines.items())
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert time.perf_counter() - start < 1.0
    e = err.value
    assert (e.line, e.col) == (list(lines).index(key) + 3, col), str(e)
    assert e.message == f"products of {pairs} monomial pairs on one line out of supported range"


def test_line_work_is_counted_per_line():
    pair = _COSH_PAIR.format(1)
    prob = parse_problem(f"alpha = 1/2\norder = 1\nic0 = {pair}\nforcing 1 = {pair}\nrhs = Dx(psi)\n")
    assert prob.ics[0] == prob.rhs.forcing[0][1] == parse_expr(pair)


def test_file_work_is_bounded():
    # each line is within its bound, but a file's lines together stop in
    # the third of eight, before its last product is formed
    text = "alpha = 1/2\norder = 1\nic0 = x\nrhs = Dx(psi)\n" + "".join(
        f"forcing {k} = {_COSH_PAIR.format(k)}\n" for k in range(1, 9))
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert time.perf_counter() - start < 2.0
    e = err.value
    assert (e.line, e.col) == (7, 25), str(e)
    assert e.message == "products of 53868 monomial pairs in one file out of supported range"


def test_integer_sizes_are_bounded():
    # the integers of a product's two factors, exponents and frequencies
    # included, may have 4,096 bits between them; a number 1,000 characters
    assert parse_expr("(3^99)^26") == Expr.const(3**2574)  # 4,080 bits
    for text in ("(3^99)^26*3^99", "2^(1/(3^99)^13)*2^(1/(5^99)^13)",
                 "exp(x/(3^99)^13)*exp(x/(5^99)^13)"):
        with pytest.raises(ParseError, match=r"product of \d+-bit integers out of supported range"):
            parse_expr(text)
    assert parse_expr("1" + "0" * 999) == Expr.const(10**999)
    with pytest.raises(ParseError) as err:
        parse_expr("x + 1" + "0" * 1000)
    e = err.value
    assert (e.line, e.col) == (1, 5) and e.message == "number of 1001 characters out of supported range"


@pytest.mark.parametrize("text, col, fragment", [
    ("(psi/0)^0 + psi", 6, "division by zero"),
    ("(psi@(x/x, t))^0", 9, "cannot divide by an expression containing x"),
    ("(Dx(psi, 1/2))^0", 11, "derivative order must be a nonnegative integer"),
])
def test_a_malformed_base_under_power_zero_is_an_error(text, col, fragment):
    # the base is lowered before the power folds to 1
    with pytest.raises(ParseError) as err:
        parse_rhs(text)
    e = err.value
    assert (e.line, e.col) == (1, col) and e.message == fragment, str(e)


@pytest.mark.parametrize("text", ["psi^13 + psi^14", "psi^13 - psi^14"])
def test_a_sum_or_difference_reports_its_left_fault_first(text):
    # both operands are lowered left to right, so the power 13 is met first
    with pytest.raises(ParseError) as err:
        parse_rhs(text)
    e = err.value
    assert (e.line, e.col, e.message) == (1, 4, "unknown-function power 13 out of range"), str(e)


_HEAD = "alpha = 1/2\norder = 1\nic0 = x\n"
_TOO_MANY_TERMS = "(" + "+".join(["psi"] + [f"Dx(psi,{n})" for n in range(1, 10)]) + ")^5"


# (file bytes or text, expected line, col and message): error branches of the
# reader and of lowering that no other test reaches
@pytest.mark.parametrize("text, line, col, message", [
    ("param psi\n" + _HEAD + "rhs = Dx(psi)\n", 1, 1, "'psi' cannot be declared as a parameter"),
    ("name =\n" + _HEAD + "rhs = Dx(psi)\n", 1, 7, "empty problem name"),
    ("alpha = 1/2\norder = 1/2\nrhs = Dx(psi)\n", 2, 8, "order must be a positive integer"),
    ("alpha = 1/2\norder = 0\nrhs = Dx(psi)\n", 2, 8, "order must be a positive integer"),
    ("param nu omega\n" + _HEAD + "rhs = Dx(psi)\n", 1, 1, "expected 'param <name>'"),
    ("param\n" + _HEAD + "rhs = Dx(psi)\n", 1, 1, "expected 'param <name>'"),
    ("param nu\nparam nu\n" + _HEAD + "rhs = Dx(psi)\n", 2, 1, "duplicate 'param nu' line"),
    ("param nu = 3\nparam omega = 2*nu\n" + _HEAD + "rhs = Dx(psi)\n", 2, 16,
     "value of parameter 'omega' must not depend on parameter 'nu'"),
    ("alpha = 1/2\norder = 1\nic0 = x\nic1 = x\nrhs = Dx(psi)\n", 4, 1,
     "unexpected 'ic1': order = 1 needs ic0..ic0"),
    (b"alpha = 1/2\norder = 1\nic0 = x\xff\nrhs = Dx(psi)\n", None, None, "p.frac is not valid UTF-8"),
    (_HEAD + "rhs = t*psi\n", 4, 7, "bare 't' is not allowed in the right-hand side;"
     " time enters through exptime/polytime or @(...) scalings"),
    (_HEAD + "rhs = " + "(" * 205 + "psi" + ")" * 205 + "\n", 4, 107, "expression nesting too deep"),
    (_HEAD + "rhs = Dx(psi, 21)\n", 4, 15, "derivative order 21 out of range"),
    (_HEAD + "rhs = psi^(1/2)\n", 4, 10, "power of the unknown function must be a nonnegative integer"),
    (_HEAD + "rhs = psi^13\n", 4, 10, "unknown-function power 13 out of range"),
    (_HEAD + "rhs = exp(psi)\n", 4, 7, "'exp' is not allowed in the right-hand side"),
    (_HEAD + f"rhs = {_TOO_MANY_TERMS}\n", 4, 102, "right-hand side expands to too many terms"),
    ("alpha = 1/2\norder = 1\nic0 = sqrt(x)\nrhs = Dx(psi)\n", 3, 12,
     "sqrt argument must not depend on x"),
    ("alpha = 1/2\norder = 1\nic0 = x^(1/2)\nrhs = Dx(psi)\n", 3, 8,
     "power of an expression in x must be a nonnegative integer"),
    ("alpha = 1/2\norder = 1\nic0 = x@(x,t)\nrhs = Dx(psi)\n", 3, 8,
     "argument scaling '@' is not allowed in an initial condition"),
    (_HEAD + "rhs = Dx(psi)\nexact = psi*t\n", 5, 9,
     "the unknown function 'psi' is not allowed in a reference solution"),
    (_HEAD + "rhs = Dx(psi)\nexact = Dx(x)\n", 5, 9, "'Dx' is not allowed in a reference solution"),
    (_HEAD + "rhs = Dx(psi)\nexact = x@(x,t)\n", 5, 10,
     "argument scaling '@' is not allowed in a reference solution"),
])
def test_reader_and_lowering_diagnostics(tmp_path, text, line, col, message):
    path = tmp_path / "p.frac"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        parse_problem_file(path)
    e = err.value
    assert (e.line, e.col, e.message) == (line, col, message), str(e)


def test_parameter_lines_are_lowered_first():
    # a fault in a parameter's value is reported before an earlier line's
    text = "alpha = 1/2\norder = 1\nic0 = x^(1/2)\nrhs = Dx(psi)\nparam nu = 2*x\n"
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    e = err.value
    assert (e.line, e.col, e.message) == (5, 13, "value of parameter 'nu' must not depend on x")


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
