"""Release gate: one test per acceptance criterion, one verdict line each
under pytest -v.  Tolerances are pinned inline next to the values they guard.

Criterion 4 closes with a point-by-point comparison against a previously
tabulated error table.  Our numbers match an independent 50-digit
recomputation (asserted first).  Each tabulated entry is a difference of two
terms of order one, so it is only as accurate as the precision those terms
were carried at, not as its last printed digit; the comparison allows two
last-digit units plus an estimate of that tabulation noise, and a wrong
truncation order or a wrong coefficient is shown to exceed it.
"""

import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from fracseries import (
    Expr,
    FracSeries,
    NotLinear,
    ParseError,
    Problem,
    RhsFactor,
    RhsOperator,
    RhsTerm,
    Scalar,
    eval_solution,
    parse_expr,
    parse_problem,
    parse_problem_file,
    problem_to_source,
    residual_orders,
    solve,
    solve_linear,
)
from fracseries.solver import _drop_engine

F = Fraction


# -- criterion 1: first-order drift-diffusion, constant coefficient stream -----------

def test_criterion_1_drift_diffusion_constant_coefficients(diffusion_problem):
    started = time.perf_counter()
    general = solve(diffusion_problem, 8)
    shortcut = solve_linear(diffusion_problem, 8)
    elapsed = time.perf_counter() - started

    expected = parse_expr("x + 1")
    assert len(general.coeffs) == 9
    assert all(c == expected for c in general.coeffs)
    assert all(c == expected for c in shortcut.coeffs)
    assert not general.linear_path_used
    assert shortcut.linear_path_used
    assert elapsed < 1.0


# -- criterion 2: quadratically nonlinear wave equation, closed coefficient forms ----

def _wave_expected():
    nu = Scalar.param("nu")
    om = Scalar.param("omega")
    lam = Scalar.param("lambda")
    theta = (nu / om).sqrt() * F(1, 2)
    ch = Expr.cosh_of(theta)
    sh = Expr.sinh_of(theta)
    return {
        2: ch.scalar_mul(lam**4 * F(-1, 6) / om),
        3: sh.scalar_mul(lam**5 * F(1, 12) * (nu / om**3).sqrt()),
        # coefficient 4 carries lambda^6; the lambda^5 variant, one power
        # low, is demonstrated rejected below
        4: ch.scalar_mul(lam**6 * nu * F(-1, 24) / om**2),
        5: sh.scalar_mul(lam**7 * F(1, 48) * (nu**3 / om**5).sqrt()),
        6: ch.scalar_mul(lam**8 * nu**2 * F(-1, 96) / om**3),
        7: sh.scalar_mul(lam**9 * F(1, 192) * (nu**5 / om**7).sqrt()),
    }


def test_criterion_2_wave_closed_forms(wave_problem):
    started = time.perf_counter()
    sol = solve(wave_problem, 7)
    elapsed = time.perf_counter() - started

    assert sol.coeff(0) == wave_problem.ics[0]
    assert sol.coeff(1) == wave_problem.ics[1]
    for k, want in _wave_expected().items():
        assert sol.coeff(k) == want, f"coefficient {k} does not match its closed form"

    # one power of lambda too low must be detected at coefficient 4
    nu = Scalar.param("nu")
    om = Scalar.param("omega")
    lam = Scalar.param("lambda")
    wrong4 = Expr.cosh_of((nu / om).sqrt() * F(1, 2)).scalar_mul(
        lam**5 * nu * F(-1, 24) / om**2
    )
    assert not (sol.coeff(4) - wrong4).is_zero()
    bind = {"nu": 1.3, "omega": 0.7, "lambda": 0.9}
    gaps = [abs(sol.coeff(4).eval(xv, bind) - wrong4.eval(xv, bind))
            for xv in (-1.0, 0.0, 0.5, 2.0)]
    assert max(gaps) > 1e-9, gaps

    assert not wave_problem.rhs.is_linear()
    assert elapsed < 5.0


# -- criterion 3: proportional-delay convection, explicit low-order coefficients -----

def _delay_c1(alpha: Fraction) -> Scalar:
    # 2^(-alpha) + 1/2
    return Scalar.rational_power(F(1, 2), alpha) + F(1, 2)


def _delay_c2(alpha: Fraction) -> Scalar:
    # Gamma(1+2a)/(2^(2a+1) Gamma(1+a)^2) + (2^(-2a) + 1/2) * c1
    half_2a = Scalar.rational_power(F(1, 2), 2 * alpha)
    ratio = Scalar.gamma(1 + 2 * alpha) / (Scalar.gamma(1 + alpha) ** 2)
    return ratio * half_2a * F(1, 2) + (half_2a + F(1, 2)) * _delay_c1(alpha)


def test_criterion_3_delay_coefficients_symbolic_and_numeric(delay_problem):
    x = Expr.x()

    # symbolic, at the file's alpha = 1/2
    a = delay_problem.alpha
    assert a == F(1, 2)
    sol = solve(delay_problem, 3)
    assert sol.coeff(1) == x
    for k, c in ((2, _delay_c1(a)), (3, _delay_c2(a))):
        assert sol.coeff(k) == x.scalar_mul(c), f"coefficient {k} mismatch at alpha = {a}"

    # numeric, same alpha: rebuild the partial sum from float constants
    c1f = 2.0**-0.5 + 0.5
    c2f = math.gamma(2.0) / (4.0 * math.gamma(1.5) ** 2) + (2.0**-1 + 0.5) * c1f
    for xv, tv in ((0.7, 0.3), (1.3, 0.8), (-0.4, 0.5)):
        want = xv * (
            1.0
            + tv**0.5 / math.gamma(1.5)
            + c1f * tv / math.gamma(2.0)
            + c2f * tv**1.5 / math.gamma(2.5)
        )
        got = eval_solution(sol, xv, tv)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    # at alpha = 1 both constants resolve to 1 through integer Gamma values
    assert _delay_c1(F(1)).as_fraction() == 1
    assert _delay_c2(F(1)).as_fraction() == 1
    sol1 = solve(replace(delay_problem, alpha=F(1)), 3)
    assert all(c == x for c in sol1.coeffs)
    for xv, tv in ((0.7, 0.3), (1.3, 0.8)):
        want = xv * sum(tv**k / math.factorial(k) for k in range(4))
        assert abs(eval_solution(sol1, xv, tv) - want) <= 1e-13 * max(
            1.0, abs(want)
        )


def _delay_floats(alpha: float, K: int) -> list[float]:
    # c_0..c_K with coefficient k = c_k*x: substituting the series into the
    # equation gives, on the Gamma-normalised grid,
    #   c_{k+1} = (1/2)^(k a + 1) sum_{i+j=k} W(i, j) c_i c_j + c_k / 2,
    #   W(i, j) = Gamma(1+k a) / (Gamma(1+i a) Gamma(1+j a)),
    # in floats alone, so none of the engine's exact arithmetic is shared
    g = [math.gamma(1 + k * alpha) for k in range(K + 1)]
    c = [1.0]
    for k in range(K):
        conv = math.fsum(g[k] / (g[i] * g[k - i]) * c[i] * c[k - i] for i in range(k + 1))
        c.append(0.5 ** (k * alpha + 1) * conv + c[k] / 2)
    return c


# The largest relative defect on the clean tree is 6.2e-16 (alpha 2/7), so
# the bound leaves a margin of about 1600. Every Cauchy weight W(i, j) with
# i, j > 0 scaled by 1001/1000, in the engine and the residual check alike,
# leaves every residual verdict PASS and a defect of about 2e-3 here.
_DELAY_FLOAT_RTOL = 1e-12


@pytest.mark.parametrize("alpha", [F(1, 2), F(1, 3), F(2, 7), F(3, 5), F(1)])
def test_delay_coefficients_match_a_float_recurrence(delay_problem, alpha):
    K = 10
    sol = solve(replace(delay_problem, alpha=alpha), K)
    want = _delay_floats(float(alpha), K)
    for k in range(K + 1):
        got = sol.coeff(k).eval(1.0)
        assert abs(got - want[k]) <= _DELAY_FLOAT_RTOL * abs(want[k]), (k, got, want[k])


def _poly_mul(a: list[float], b: list[float]) -> list[float]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _quotient_floats(alpha: float, nu: float, K: int) -> list[list[float]]:
    # c_0..c_K of ic0 = x/(1 + nu), rhs = psi^2 + Dx(psi)*psi, each a list of
    # x-polynomial coefficients (lowest degree first):
    #   c_{k+1} = sum_{i+j=k} W(i, j) (c_i c_j + c_i' c_j),
    # with W as in _delay_floats, in floats alone
    g = [math.gamma(1 + k * alpha) for k in range(K + 1)]
    c = [[0.0, 1.0 / (1.0 + nu)]]
    for k in range(K):
        nxt = [0.0] * (k + 3)
        for i in range(k + 1):
            ci, cj = c[i], c[k - i]
            dci = [n * v for n, v in enumerate(ci)][1:] or [0.0]
            w = g[k] / (g[i] * g[k - i])
            for prod in (_poly_mul(ci, cj), _poly_mul(dci, cj)):
                for n, v in enumerate(prod):
                    nxt[n] += w * v
        c.append(nxt)
    return c


# The largest defect on the clean tree, relative to the sum of the absolute
# term values, is 7.7e-16, so the bound leaves a margin of about 1300. Every
# Cauchy weight with i, j > 0 scaled by 1001/1000 gives 1.3e-3, and products
# that drop 1/(1 + nu) give 2.2e3, while every residual verdict stays PASS.
_QUOTIENT_FLOAT_RTOL = 1e-12


@pytest.mark.parametrize("alpha", [F(1, 2), F(1, 3), F(2, 7), F(3, 5), F(1)])
def test_quotient_coefficients_match_a_float_recurrence(alpha):
    K = 6
    p = parse_problem(f"param nu\nalpha = {alpha}\norder = 1\nic0 = x/(1 + nu)\n"
                      "rhs = psi^2 + Dx(psi)*psi\n")
    sol = solve(p, K)
    for nu in (0.5, 1.0, 2.0):
        want = _quotient_floats(float(alpha), nu, K)
        for k in range(K + 1):
            for xv in (-1.0, 0.5, 1.5):
                terms = [v * xv**n for n, v in enumerate(want[k])]
                got = sol.coeff(k).eval(xv, {"nu": nu})
                defect = abs(got - math.fsum(terms)) / math.fsum(map(abs, terms))
                assert defect <= _QUOTIENT_FLOAT_RTOL, (nu, k, xv, got, defect)


# -- criterion 4: error-table reproduction at alpha = 1, K = 5 -----------------------

# grid: x outer, t inner
_TABLE_POINTS = [
    (x, t) for x in (0.25, 0.5, 0.75) for t in (0.25, 0.5, 0.75, 1.0)
]

# |x*(e^t - S5(t))| recomputed at 50-digit precision with decimal.Decimal,
# independently of this package, and frozen here
_INDEPENDENT_ERRORS = [
    8.789589370435e-8,
    5.838508365370e-6,
    6.909595004367e-5,
    4.037904480946e-4,
    1.757917874087e-7,
    1.167701673074e-5,
    1.381919000873e-4,
    8.075808961893e-4,
    2.636876811131e-7,
    1.751552509611e-5,
    2.072878501310e-4,
    1.211371344284e-3,
]

# previously tabulated absolute errors for the same configuration, paired
# with one unit of each entry's last printed digit
_TABULATED_OURS = [
    (8.88e-8, 1e-10),
    (5.8388e-6, 1e-10),
    (6.90968e-5, 1e-10),
    (4.037913e-4, 1e-10),
    (1.775e-7, 1e-10),
    (1.16765e-5, 1e-10),
    (1.38194e-4, 1e-9),
    (8.07587e-4, 1e-9),
    (2.662e-7, 1e-10),
    (1.7512e-5, 1e-9),
    (2.07295e-4, 1e-9),
    # 1.21137e-3 ends at 1e-8, yet its paired unit is 1e-9: the competing
    # column prints this magnitude to seven digits (7.461370e-3), so the entry
    # was probably printed as 1.211370e-3.  No copy of the table is at hand to
    # settle it, so the stricter 1e-9 stays.
    (1.21137e-3, 1e-9),
]

# Tabulation noise, relative to x*e^t.  Each tabulated entry is a difference
# x*e^t - u_5 of two terms between 0.32 and 2.04, while the entries are
# between 9e-8 and 1.2e-3, so an entry is only as accurate as the precision
# at which both terms were carried.  Against _INDEPENDENT_ERRORS the
# tabulated column deviates by 1.3 to 25 last-digit units (at most 7.2e-9
# absolute, at most 4.5e-9 * x*e^t), with mixed signs.  The precision is not
# stated with the table, so this is an estimate: a difference of two values
# each rounded to 9 significant digits (<= 5e-9 relative each) errs by at
# most 1e-8 * x*e^t.
_TABULATION_EPS = 1e-8

# absolute errors of a competing series method, tabulated alongside for the
# same points; the reproduction must beat every one of them strictly
_TABULATED_COMPETING = [
    2.123e-6,
    7.0943e-5,
    5.63483e-4,
    2.487123e-3,
    4.245e-6,
    1.41885e-4,
    1.126970e-3,
    4.974250e-3,
    6.367e-6,
    2.12830e-4,
    1.690450e-3,
    7.461370e-3,
]


def _table_errors(sol):
    return [
        abs(eval_solution(sol, xv, tv) - xv * math.exp(tv))
        for xv, tv in _TABLE_POINTS
    ]


def _tabulated_comparison(errors):
    """Largest share of |ours - tabulated| <= 2*unit + eps*x*e^t used at any
    point, and one report line per point."""
    lines = []
    worst = 0.0
    for (xv, tv), err, (printed, unit) in zip(
        _TABLE_POINTS, errors, _TABULATED_OURS
    ):
        off = abs(err - printed)
        noise = _TABULATION_EPS * xv * math.exp(tv)
        share = off / (2.0 * unit + noise)
        worst = max(worst, share)
        lines.append(
            f"  x={xv:<5g} t={tv:<5g} ours={err:.10e} "
            f"tabulated={printed:.6e} deviation={off / unit:9.1f} unit(s) "
            f"= {off / noise:9.1f} eps*x*e^t ({share:.2f} of the bound)"
        )
    return worst, lines


def test_criterion_4_error_table_reproduction(delay_problem):
    at_one = replace(delay_problem, alpha=F(1))
    sol = solve(at_one, 5)
    errors = _table_errors(sol)

    # our table equals the independent 50-digit truncation errors
    for err, exact in zip(errors, _INDEPENDENT_ERRORS):
        assert abs(err - exact) <= 1e-6 * exact

    # strictly below the competing method at every point
    for err, other in zip(errors, _TABULATED_COMPETING):
        assert err < other

    # point-by-point agreement with the tabulated values: two units in the
    # last printed digit plus the tabulation noise eps*x*e^t
    worst, lines = _tabulated_comparison(errors)
    assert worst <= 1.0, (
        "reproduced errors deviate from the tabulated values by more than "
        "2 last-digit units + eps*x*e^t:\n" + "\n".join(lines)
    )

    # a wrong truncation order or a wrong coefficient must be detected
    wrong = {
        "K = 4": solve(at_one, 4),
        "K = 6": solve(at_one, 6),
        "coefficient 5 scaled by 101/100": sol.replace_coeff(
            5, sol.coeff(5).scalar_mul(F(101, 100))
        ),
    }
    for label, bad in wrong.items():
        bad_worst, bad_lines = _tabulated_comparison(_table_errors(bad))
        assert bad_worst > 1.0, (
            f"the {label} table passes the tabulated comparison:\n"
            + "\n".join(bad_lines)
        )


# -- criterion 5: residual vanishes through order K - m -------------------------------

def _random_residual_problem(rng: random.Random, idx: int) -> tuple[Problem, int]:
    alpha = rng.choice([F(1, 3), F(1, 2), F(1)])
    m = rng.choice([1, 2])

    def rand_poly():
        deg = rng.randrange(0, 3)
        coeffs = [F(rng.randrange(-3, 4)) for _ in range(deg + 1)]
        if all(c == 0 for c in coeffs):
            coeffs[-1] = F(1)
        return coeffs

    def rand_ic():
        e = Expr.poly(rand_poly())
        if rng.random() < 0.5:
            mu = rng.choice([F(1), F(-1), F(1, 2)])
            amp = F(rng.randrange(-2, 3)) or F(1)
            e = e + Expr.exponential(mu, amp)
        return e

    terms = []
    for _ in range(rng.randrange(1, 3)):
        if rng.random() < 0.25:
            terms.append(RhsTerm(coeff=Expr.poly(rand_poly())))  # source
            continue
        factors = []
        if rng.random() < 0.3:
            factors.append(RhsFactor(n=rng.randrange(0, 3), power=2))
        else:
            for _ in range(rng.randrange(1, 3)):
                scale = F(1, 2) if rng.random() < 0.3 else F(1)
                factors.append(
                    RhsFactor(n=rng.randrange(0, 3), xscale=scale, tscale=scale)
                )
        coeff = Expr.const(F(rng.randrange(-2, 3)) or F(1))
        terms.append(RhsTerm(coeff=coeff, factors=tuple(factors)))

    prob = Problem(
        name=f"random-{idx}",
        m=m,
        alpha=alpha,
        rhs=RhsOperator(terms=tuple(terms)),
        ics=tuple(rand_ic() for _ in range(m)),
    )
    return prob, rng.randrange(m, 7)


def test_criterion_5_residual_oracle(
    diffusion_problem, wave_problem, delay_problem
):
    for prob in (diffusion_problem, wave_problem, delay_problem):
        sol = solve(prob, 6)
        verdicts = residual_orders(prob, sol)
        assert len(verdicts) == 6 - prob.m + 1
        assert all(ok for _, ok in verdicts), f"residual fails for {prob.name}"

    rng = random.Random(425)
    for idx in range(25):
        prob, order = _random_residual_problem(rng, idx)
        sol = solve(prob, order)
        verdicts = residual_orders(prob, sol)
        assert len(verdicts) == order - prob.m + 1
        bad = [j for j, ok in verdicts if not ok]
        assert not bad, f"problem {idx} residual nonzero at orders {bad}"


# -- criterion 6: fractional derivative identities and product weights ---------------

def _random_series(rng: random.Random, alpha: Fraction, trunc: int) -> FracSeries:
    coeffs = {}
    for k in range(trunc + 1):
        if rng.random() < 0.25:
            continue
        coeffs[k] = Expr.poly(
            [F(rng.randrange(-3, 4)) for _ in range(rng.randrange(1, 3))]
        )
    return FracSeries(alpha, trunc, coeffs)


def _raw_eval(s: FracSeries, xv: float, tv: float) -> float:
    a = float(s.alpha)
    return sum(
        e.eval(xv) * tv ** (k * a) / math.gamma(1.0 + k * a)
        for k, e in s.coeffs
    )


def test_criterion_6_caputo_and_product_rules():
    alphas = [F(1, 3), F(1, 2), F(2, 3), F(1)]

    # the derivative of a constant is zero
    for a in alphas:
        const = FracSeries(a, 0, {0: Expr.const(5)})
        assert const.caputo_shift(1).is_zero()

    # composition of index shifts, 100 random series
    rng = random.Random(1106)
    for _ in range(100):
        a = rng.choice(alphas)
        s = _random_series(rng, a, rng.randrange(0, 7))
        n, p = rng.randrange(0, 4), rng.randrange(0, 4)
        assert s.caputo_shift(n).caputo_shift(p) == s.caputo_shift(n + p)

    # product weights against raw float monomial arithmetic, 100 products
    rng = random.Random(1107)
    for _ in range(100):
        a = rng.choice(alphas)
        sa = _random_series(rng, a, rng.randrange(0, 4))
        sb = _random_series(rng, a, rng.randrange(0, 4))
        full = sa.trunc + sb.trunc
        prod = sa.mul(sb, full)
        for _ in range(3):
            xv = rng.uniform(-1.5, 1.5)
            tv = rng.uniform(0.1, 1.0)
            want = _raw_eval(sa, xv, tv) * _raw_eval(sb, xv, tv)
            got = _raw_eval(prod, xv, tv)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want), abs(got))


# -- criterion 7: parser round-trips, fuzzing, malformed diagnostics -----------------

_FUZZ_TOKENS = [
    "x", "psi", "Dx", "exp", "sinh", "cosh", "sqrt", "exptime", "polytime",
    "(", ")", ",", "+", "-", "*", "/", "^", "@", "=", "1", "2", "0.5",
    "1/2", "nu", " ", "alpha", "order", "ic0", "rhs", "name", "#", "\n",
]

# (file, line, col) for the curated malformed inputs with a position;
# ic_count and missing_alpha diagnose whole-file structure and carry none
_MALFORMED_POSITIONS = [
    ("bad_arity.frac", 5, 7),
    ("bad_token.frac", 5, 11),
    ("div_by_psi.frac", 5, 11),
    ("dup_key.frac", 3, 1),
    ("exp_nonlinear.frac", 4, 12),
    ("nonconst_alpha.frac", 2, 11),
    ("psi_in_ic.frac", 4, 7),
    ("unclosed_paren.frac", 5, 23),
    ("undeclared_param.frac", 4, 7),
    ("unknown_key.frac", 6, 1),
]


def test_criterion_7_parser_round_trip_fuzz_malformed(problems_dir, malformed_dir):
    # golden round-trips on the three shipped problem files
    for name in ("kolmogorov.frac", "klein_gordon.frac", "burgers_delay.frac"):
        first = parse_problem_file(problems_dir / name)
        src = problem_to_source(first)
        second = parse_problem(src)
        assert second == first, f"round-trip changed {name}"
        assert problem_to_source(second) == src  # serializer fixed point

    # 10^4 fuzz inputs: every one parses or raises ParseError, nothing else
    rng = random.Random(70)
    survivors = 0
    for _ in range(4000):
        text = "".join(
            rng.choice(_FUZZ_TOKENS) for _ in range(rng.randrange(1, 40))
        )
        try:
            parse_expr(text, params=["nu"])
            survivors += 1
        except ParseError:
            pass
    base = (problems_dir / "klein_gordon.frac").read_text()
    for _ in range(3000):
        i = rng.randrange(len(base))
        c = rng.choice("xt()+-*/^@=123 #\n")
        try:
            parse_problem(base[:i] + c + base[i + 1:])
            survivors += 1
        except ParseError:
            pass
    lines_pool = [
        "name = fuzz", "alpha = 1/2", "alpha = 2", "order = 1", "order = x",
        "ic0 = x", "ic0 = psi", "ic1 = 1", "rhs = Dx(psi)", "rhs = ",
        "param nu", "param nu = 3", "forcing 0 = x", "forcing -1 = x",
        "junk line", "= =", "#c", "", "exact = x*exp(t)", "exact = t/0",
    ]
    for _ in range(3000):
        text = "\n".join(
            rng.choice(lines_pool) for _ in range(rng.randrange(1, 9))
        )
        try:
            parse_problem(text)
            survivors += 1
        except ParseError:
            pass
    assert survivors > 0  # the grammar accepts part of the stream

    # ten curated malformed inputs, each with its frozen position
    for name, line, col in _MALFORMED_POSITIONS:
        with pytest.raises(ParseError) as err:
            parse_problem_file(malformed_dir / name)
        assert err.value.line == line, f"{name}: line {err.value.line}"
        assert err.value.col == col, f"{name}: col {err.value.col}"
        assert err.value.message
    for name in ("ic_count.frac", "missing_alpha.frac"):
        with pytest.raises(ParseError):
            parse_problem_file(malformed_dir / name)


# -- criterion 8: coefficients are stable under truncation refinement ----------------

def test_criterion_8_prefix_stability(
    diffusion_problem, wave_problem, delay_problem
):
    # each high side on a fresh engine, so it does not extend the low side
    for prob in (diffusion_problem, wave_problem, delay_problem):
        low = solve(prob, 4)
        _drop_engine()
        high = solve(prob, 8)
        assert high.coeffs[:5] == low.coeffs, f"prefix moved for {prob.name}"
    # the shortcut path must agree with itself the same way
    low = solve_linear(diffusion_problem, 4)
    _drop_engine()
    high = solve_linear(diffusion_problem, 8)
    assert high.coeffs[:5] == low.coeffs
