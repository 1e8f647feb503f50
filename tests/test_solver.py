"""Coefficient recurrence: hand oracles, path agreement, verification."""

import dataclasses
import gc
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from fracseries.dsl import parse_problem
from fracseries.errors import (
    NotLinear,
    ProblemError,
    TimeCoefficientIncompatible,
)
from fracseries.expr import Expr
from fracseries.problems import Problem, RhsFactor, RhsOperator, RhsTerm
from fracseries.scalar import Scalar
from fracseries.series import FracSeries
from fracseries import solver
from fracseries.solver import (
    SeriesSolution,
    _drop_engine,
    _Engine,
    apply_rhs,
    mittag_leffler_form,
    residual_orders,
    residual_series,
    solve,
    solve_linear,
)


def _problem(alpha, m, ics, terms, forcing=(), params=None, name="p"):
    rhs = RhsOperator(terms=tuple(terms), forcing=forcing)
    return Problem(
        name=name, m=m, alpha=Fraction(alpha), rhs=rhs, ics=tuple(ics),
        params=params or {},
    )


def _term(coeff=None, n=0, xscale=1, tscale=1, power=1, tcoef=None):
    kwargs = {}
    if tcoef is not None:
        kwargs["tcoef"] = tcoef
    return RhsTerm(
        coeff=coeff if coeff is not None else Expr.one(),
        factors=(RhsFactor(
            n=n, xscale=Fraction(xscale), tscale=Fraction(tscale), power=power
        ),),
        **kwargs,
    )


def _bell_problem():
    # u' = exp(t)*u, u(0) = 1 has u = exp(exp(t) - 1)
    return _problem(1, 1, [Expr.one()], [_term(tcoef=Expr.exponential(1))])


def _poly_time_problem():
    # u' = t*u, u(0) = x has u = x*exp(t^2/2)
    return _problem(1, 1, [Expr.x()], [_term(tcoef=Expr.poly([0, 1]))])


def _forcing_problem():
    # u' = u + 1, u(0) = 0 gives u = exp(t) - 1: coefficients 0, 1, 1, ...
    return _problem(1, 1, [Expr.zero()], [_term()], forcing=((0, Expr.one()),))


def _source_term_problem():
    # the same equation with the constant written as a factorless term
    src = RhsTerm(coeff=Expr.one(), factors=())
    return _problem(1, 1, [Expr.zero()], [_term(), src])


def _vanishing_time_coefficient_problem():
    # second derivatives of x-linear coefficients vanish, so the exp(t)
    # term contributes nothing and any alpha is fine
    return _problem(
        Fraction(1, 2), 1, [Expr.x()],
        [_term(n=2, tcoef=Expr.exponential(1)), _term(n=1)],
    )


def _lagging_product_problem():
    # with psi(0) = 0 the square (Dx psi)^2 is read only up to k-m-1 at step
    # k, while the Dx psi term has already read Dx psi up to k-m
    square = RhsTerm(coeff=Expr.one(), factors=(RhsFactor(n=0), RhsFactor(n=1, power=2)))
    return _problem(Fraction(1, 2), 2, [Expr.zero(), Expr.x()], [_term(n=1), square])


# -- apply_rhs hand checks --------------------------------------------------------

def test_apply_identity():
    s = FracSeries(Fraction(1, 2), 2, {0: Expr.x(), 1: Expr.one(), 2: Expr.x()})
    rhs = RhsOperator(terms=(_term(),))
    img = apply_rhs(rhs, s, 2)
    assert img == s


def test_apply_second_derivative():
    s = FracSeries(Fraction(1), 1, {0: Expr.poly([0, 0, 1]), 1: Expr.poly([0, 0, 0, 1])})
    rhs = RhsOperator(terms=(_term(n=2),))
    img = apply_rhs(rhs, s, 1)
    assert (img.coeff(0) - Expr.const(2)).is_zero()
    assert (img.coeff(1) - Expr.x().scalar_mul(6)).is_zero()


def test_apply_delay_scaling():
    # psi(x/2, t/2): coefficient j picks up the exact factor (1/2)^(j*alpha)
    a = Fraction(1, 2)
    s = FracSeries(a, 1, {0: Expr.x(), 1: Expr.x()})
    rhs = RhsOperator(terms=(_term(xscale=Fraction(1, 2), tscale=Fraction(1, 2)),))
    img = apply_rhs(rhs, s, 1)
    assert (img.coeff(0) - Expr.x().scalar_mul(Fraction(1, 2))).is_zero()
    half_a = Scalar.rational_power(Fraction(1, 2), a)
    want = Expr.x().scalar_mul(half_a * Fraction(1, 2))
    assert (img.coeff(1) - want).is_zero()


def test_apply_delay_product_matches_hand_derivation(delay_problem):
    # the full delayed right-hand side on the prefix [x, x] gives
    # x*(2^(-alpha) + 1/2) at image order 1
    a = delay_problem.alpha
    s = FracSeries(a, 1, {0: Expr.x(), 1: Expr.x()})
    img = apply_rhs(delay_problem.rhs, s, 1)
    c1 = Scalar.rational_power(2, -a) + Fraction(1, 2)
    assert (img.coeff(0) - Expr.x()).is_zero()
    assert (img.coeff(1) - Expr.x().scalar_mul(c1)).is_zero()


def test_apply_truncates_at_kmax():
    s = FracSeries(Fraction(1), 5, {k: Expr.one() for k in range(6)})
    rhs = RhsOperator(terms=(_term(),))
    img = apply_rhs(rhs, s, 2)
    assert img.trunc == 2
    assert all(k <= 2 for k, _ in img.coeffs)


def test_apply_forcing_only():
    # the forcing coefficients are placed on the grid of the series' alpha,
    # and those above kmax are cut
    rhs = RhsOperator(terms=(), forcing=((0, Expr.one()), (1, Expr.x()), (2, Expr.x())))
    s = FracSeries(Fraction(1, 2), 0, {0: Expr.x()})
    img = apply_rhs(rhs, s, 1)
    assert img == FracSeries(Fraction(1, 2), 1, {0: Expr.one(), 1: Expr.x()})


# -- solve: hand oracles -----------------------------------------------------------

def test_exponential_time_coefficient_gives_bell_numbers():
    # the normalized coefficients of exp(exp(t) - 1) are the Bell numbers
    sol = solve(_bell_problem(), 5)
    for k, bell in enumerate((1, 1, 2, 5, 15, 52)):
        assert (sol.coeff(k) - Expr.const(bell)).is_zero(), k


def test_polynomial_time_coefficient_convolution():
    # normalized coefficients x * k! * [t^k] exp(t^2/2) = x, 0, x, 0, 3x, 0, 15x
    sol = solve(_poly_time_problem(), 6)
    want = (1, 0, 1, 0, 3, 0, 15)
    for k, w in enumerate(want):
        assert (sol.coeff(k) - Expr.x().scalar_mul(w)).is_zero(), k


def test_forcing_series_in_both_paths():
    p = _forcing_problem()
    for sol in (solve(p, 5), solve_linear(p, 5)):
        assert sol.coeff(0).is_zero()
        for k in range(1, 6):
            assert (sol.coeff(k) - Expr.one()).is_zero()


def test_source_term_equivalent_to_forcing():
    p = _source_term_problem()
    sol = solve(p, 5)
    assert sol.coeff(0).is_zero()
    for k in range(1, 6):
        assert (sol.coeff(k) - Expr.one()).is_zero()
    # but the fast path rejects it structurally
    with pytest.raises(NotLinear):
        solve_linear(p, 5)


def test_fractional_order_diffusion_hand_value():
    # D^alpha u = u_xx, u(0) = x^2, alpha = 1/2:
    # phi_0 = x^2, phi_1 = 2, phi_k = 0 after
    p = _problem(Fraction(1, 2), 1, [Expr.poly([0, 0, 1])], [_term(n=2)])
    sol = solve(p, 4)
    assert (sol.coeff(0) - Expr.poly([0, 0, 1])).is_zero()
    assert (sol.coeff(1) - Expr.const(2)).is_zero()
    for k in range(2, 5):
        assert sol.coeff(k).is_zero()


def test_second_order_equation_interleaves_ics():
    # D^(2a) u = u with u(0) = f, D^a u(0) = g: coefficients alternate f, g
    f = Expr.x()
    g = Expr.one()
    p = _problem(Fraction(1, 2), 2, [f, g], [_term()])
    sol = solve(p, 6)
    for k in range(7):
        want = f if k % 2 == 0 else g
        assert (sol.coeff(k) - want).is_zero(), k


# -- path agreement and rejection ---------------------------------------------------

def test_linear_path_agrees_on_diffusion(diffusion_problem):
    a = solve(diffusion_problem, 8)
    b = solve_linear(diffusion_problem, 8)
    assert b.linear_path_used and not a.linear_path_used
    assert a.coeffs == b.coeffs


def test_linear_path_agrees_with_delay_scalings(delay_problem):
    # keep only the linear terms of the delayed equation
    lin_terms = tuple(
        t for t in delay_problem.rhs.terms if len(t.factors) == 1 and t.factors[0].power == 1
    )
    p = dataclasses.replace(
        delay_problem, rhs=RhsOperator(terms=lin_terms), name="delay_lin"
    )
    a = solve(p, 6)
    b = solve_linear(p, 6)
    assert a.coeffs == b.coeffs


def test_nonlinear_rejected_by_fast_path(wave_problem):
    with pytest.raises(NotLinear):
        solve_linear(wave_problem, 3)


def test_time_coefficient_rejected_off_grid():
    # exp(t) coefficient with a surviving factor at alpha = 1/2
    p = _problem(Fraction(1, 2), 1, [Expr.x()], [_term(tcoef=Expr.exponential(1))])
    with pytest.raises(TimeCoefficientIncompatible):
        solve(p, 3)
    with pytest.raises(TimeCoefficientIncompatible):
        solve_linear(p, 3)


def test_residual_rejects_time_coefficient_off_grid():
    # the oracle rejects on its own, without the engine: a hand-built solution
    p = _problem(Fraction(1, 2), 1, [Expr.x()], [_term(tcoef=Expr.exponential(1))])
    sol = SeriesSolution(p, 3, (Expr.x(),) * 4)
    with pytest.raises(TimeCoefficientIncompatible):
        residual_series(p, sol)


def test_time_coefficient_allowed_when_factor_vanishes():
    p = _vanishing_time_coefficient_problem()
    sol = solve(p, 3)
    ref = _problem(Fraction(1, 2), 1, [Expr.x()], [_term(n=1)])
    sol_ref = solve(ref, 3)
    for k in range(4):
        assert (sol.coeff(k) - sol_ref.coeff(k)).is_zero()
    lin = solve_linear(p, 3)
    for k in range(4):
        assert (lin.coeff(k) - sol.coeff(k)).is_zero()


def test_mixed_time_coefficient_against_its_closed_form():
    # u' = t*exp(t)*u, u(0) = 1 has u = exp((t - 1)*exp(t) + 1). The engine
    # and the residual share the time grid, so the reference is built here
    # from Fraction power series: f = (t - 1)*exp(t) + 1 has f_k =
    # 1/(k-1)! - 1/k! (f_0 = 0), and g = exp(f) solves k*g_k = sum_i i*f_i*g_(k-i).
    K = 10
    p = parse_problem("alpha = 1\norder = 1\nic0 = 1\nrhs = polytime(0,1)*exptime(1)*psi\n")
    f = [Fraction(0)] + [
        Fraction(1, math.factorial(k - 1)) - Fraction(1, math.factorial(k))
        for k in range(1, K + 1)
    ]
    g = [Fraction(1)]
    for k in range(1, K + 1):
        g.append(sum(i * f[i] * g[k - i] for i in range(1, k + 1)) / k)
    want = [g[k] * math.factorial(k) for k in range(K + 1)]
    assert want == [1, 0, 1, 2, 6, 24, 105, 510, 2765, 16408, 105210]
    sol = solve(p, K)
    assert sol.coeffs == tuple(Expr.const(c) for c in want)
    assert all(ok for _, ok in residual_orders(p, sol))
    with pytest.raises(TimeCoefficientIncompatible):
        solve(dataclasses.replace(p, alpha=Fraction(1, 2)), 3)


def _apply_rhs_recurrence(p, order):
    """Coefficients k = m..order, each read off one batch apply_rhs on the prefix."""
    coeffs = list(p.ics)
    for k in range(p.m, order + 1):
        prefix = FracSeries(p.alpha, k - 1, dict(enumerate(coeffs)))
        coeffs.append(apply_rhs(p.rhs, prefix, k - p.m).coeff(k - p.m))
    return tuple(coeffs)


def _delay_at(alpha):
    return lambda request: dataclasses.replace(
        request.getfixturevalue("delay_problem"), alpha=Fraction(alpha)
    )


@pytest.mark.parametrize("build, order", [
    pytest.param(_delay_at("1/2"), 6, id="burgers-1/2"),
    pytest.param(_delay_at("1/5"), 6, id="burgers-1/5"),
    pytest.param(_delay_at("3/4"), 6, id="burgers-3/4"),
    pytest.param(_delay_at("1"), 6, id="burgers-1"),
    pytest.param(lambda r: r.getfixturevalue("wave_problem"), 6, id="klein-gordon"),
    pytest.param(lambda r: r.getfixturevalue("diffusion_problem"), 12, id="kolmogorov"),
    pytest.param(lambda r: _bell_problem(), 8, id="exp-time"),
    pytest.param(lambda r: _poly_time_problem(), 8, id="poly-time"),
    pytest.param(lambda r: _forcing_problem(), 6, id="forcing"),
    pytest.param(lambda r: _source_term_problem(), 6, id="source-term"),
    pytest.param(lambda r: _vanishing_time_coefficient_problem(), 6, id="vanishing-tcoef"),
    pytest.param(lambda r: _lagging_product_problem(), 7, id="lagging-product"),
    pytest.param(lambda r: parse_problem(
        "alpha = 1/2\norder = 1\nic0 = x^2 + 1\n"
        "rhs = Dx(x*psi@(x/2,t/2)^2, 2) + Dx(psi*Dx(psi^2))@(x/3,t/4)\n"
    ), 6, id="nested-dx"),
])
def test_engine_equals_apply_rhs_recurrence(request, build, order):
    # structural equality, not a zero test on the difference: the engine
    # must build every coefficient exactly as the batch operator does
    p = build(request)
    want = _apply_rhs_recurrence(p, order)
    assert solve(p, order).coeffs == want
    if p.rhs.is_linear():
        assert solve_linear(p, order).coeffs == want


def test_each_derivative_image_is_computed_once(monkeypatch, diffusion_problem,
                                                delay_problem):
    # one diff_x per derivative image per coefficient: kolmogorov has the
    # images Dx and Dx^2, burgers-delay Dx and Dx^2 (psi itself needs none)
    calls = 0
    diff_x = Expr.diff_x

    def counting(self, n=1):
        nonlocal calls
        calls += 1
        return diff_x(self, n)

    monkeypatch.setattr(Expr, "diff_x", counting)
    for prob, order, want in ((diffusion_problem, 100, 200), (delay_problem, 10, 20)):
        _drop_engine()  # count a whole solve, not an extension of an earlier one
        calls = 0
        solve(prob, order)
        assert calls == want, prob.name


def test_solve_extends_the_last_problems_engine(monkeypatch, diffusion_problem,
                                               wave_problem, delay_problem):
    # whatever was solved before, each solve equals a fresh engine's at its
    # order and carries the caller's problem object
    rng = random.Random(18)
    problems = [diffusion_problem, wave_problem] + [
        dataclasses.replace(delay_problem, alpha=Fraction(a)) for a in ("1/2", "1", "2/7")
    ]
    # each problem twice, in runs of three shuffled orders
    cases = [(p, K) for _ in range(2) for p in problems for K in rng.sample(range(1, 7), 3)]
    for p, K in cases:
        caller = p if rng.random() < 0.5 else dataclasses.replace(p, alpha=p.alpha)
        sol = solve(caller, K)
        assert sol.problem is caller and sol.order == K
        assert sol.coeffs == _Engine(p).coefficients(K), (p.name, p.alpha, K)

    calls = 0
    diff_x = Expr.diff_x

    def counting(self, n=1):
        nonlocal calls
        calls += 1
        return diff_x(self, n)

    monkeypatch.setattr(Expr, "diff_x", counting)
    p = diffusion_problem
    solve(p, 10)
    calls = 0
    assert solve(p, 6).coeffs == solve(p, 10).coeffs[:7]
    assert calls == 0  # a lower order reads the kept prefix
    solve(p, 14)
    assert calls == 2 * 4  # images Dx and Dx^2 of coefficients 10..13 only
    calls = 0
    same = dataclasses.replace(p, alpha=p.alpha)
    assert solve(same, 14).problem is same
    assert calls == 0  # an == problem reuses the engine
    solve(dataclasses.replace(p, alpha=Fraction(1, 2)), 3)
    assert calls == 2 * 3
    calls = 0
    solve(p, 14)
    assert calls == 2 * 14  # the other alpha replaced the engine


def test_failed_solve_drops_the_engine(diffusion_problem):
    # exp(t) coefficient with a surviving factor at alpha = 1/2: step 0 raises
    bad = _problem(Fraction(1, 2), 1, [Expr.x()], [_term(tcoef=Expr.exponential(1))])
    want = _Engine(diffusion_problem).coefficients(6)
    assert solve(bad, 0).coeffs == (Expr.x(),)  # the initial data alone
    messages = []
    for _ in range(2):
        with pytest.raises(TimeCoefficientIncompatible) as err:
            solve(bad, 3)
        messages.append(str(err.value))
        assert not solver._last_engine
    assert messages[0] == messages[1]
    assert solve(diffusion_problem, 6).coeffs == want


def test_threads_solving_one_problem_get_fresh_results(delay_problem):
    # the kept engine is shared by every thread: an extension interleaved with
    # another would append a coefficient twice and shift the rest
    p = dataclasses.replace(delay_problem, alpha=Fraction(1, 2))
    want = _Engine(p).coefficients(10)
    wrong = []

    def work(orders):
        for K in orders:
            if solve(p, K).coeffs != want[:K + 1]:
                wrong.append(K)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _drop_engine()
            threads = [threading.Thread(target=work, args=([3, 10, 6] if i % 2 else [10, 2, 8],))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert not wrong


def test_solve_leaves_no_cyclic_garbage(wave_problem):
    # the engine's streams are freed when solve returns, not at a later collection
    gc.collect()
    gc.disable()
    try:
        solve(wave_problem, 8)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- structure of solutions ----------------------------------------------------------

def test_prefix_stability(delay_problem):
    small = solve(delay_problem, 4)
    _drop_engine()  # big on a fresh engine, not an extension of small's
    big = solve(delay_problem, 8)
    for k in range(5):
        assert big.coeff(k) == small.coeff(k)


def test_delay_collapses_at_integer_order(delay_problem):
    p = dataclasses.replace(delay_problem, alpha=Fraction(1))
    sol = solve(p, 6)
    for k in range(7):
        assert (sol.coeff(k) - Expr.x()).is_zero(), k


def test_delay_at_integer_order_is_structurally_x(delay_problem):
    # Gamma at integers folds to factorials at every size, so the weights
    # stay rational past 20! and each coefficient is the Expr x itself
    p = dataclasses.replace(delay_problem, alpha=Fraction(1))
    sol = solve(p, 24)
    assert all(c == Expr.x() for c in sol.coeffs)


# coeff(k).eval(1.0) of burgers-delay, frozen from the solver as it was
# before Gamma atoms were reduced to arguments in (0, 1)
_DELAY_VALUES_AT_1 = {
    ("1/2", 10): (
        1.0, 1.0, 1.2071067811865475, 1.525416667370338, 1.9421896114463997,
        2.468325844912781, 3.12802175320679, 3.9565116238440607, 5.000166002662344,
        6.317959548330125, 7.98411593257889,
    ),
    ("3/5", 8): (
        1.0, 1.0, 1.159753955386447, 1.385043417794021, 1.6574331772579498,
        1.9778999166848694, 2.355057498825097, 2.8012862340721365, 3.3314099774549417,
    ),
    ("3/4", 8): (
        1.0, 1.0, 1.0946035575013604, 1.2125115250854372, 1.3412991490523611,
        1.4807088260767676, 1.6330769548008646, 1.8008793709784454, 1.986280970442019,
    ),
}


@pytest.mark.parametrize("alpha, order", list(_DELAY_VALUES_AT_1))
def test_delay_coefficient_values_are_unchanged(delay_problem, alpha, order):
    p = dataclasses.replace(delay_problem, alpha=Fraction(alpha))
    sol = solve(p, order)
    for k, want in enumerate(_DELAY_VALUES_AT_1[alpha, order]):
        assert sol.coeff(k).eval(1.0) == pytest.approx(want, rel=1e-12, abs=0), k


def test_closed_form_tag(diffusion_problem, delay_problem):
    tag = mittag_leffler_form(solve(diffusion_problem, 5))
    assert tag is not None and "E_alpha" in tag
    assert mittag_leffler_form(solve(delay_problem, 4)) is None


def test_series_accessor(diffusion_problem):
    sol = solve(diffusion_problem, 3)
    s = sol.series()
    assert s.trunc == 3
    for k in range(4):
        assert s.coeff(k) == sol.coeff(k)


def test_order_validation(wave_problem):
    with pytest.raises(ProblemError):
        solve(wave_problem, 0)  # m = 2 needs at least m-1 = 1
    sol = solve(wave_problem, 1)  # just the initial data
    assert sol.coeff(0) == wave_problem.ics[0]
    assert sol.coeff(1) == wave_problem.ics[1]


# -- residual verification ------------------------------------------------------------

def test_residual_exactly_zero_for_clean_solution(diffusion_problem):
    sol = solve(diffusion_problem, 6)
    res = residual_series(diffusion_problem, sol)
    assert res.is_zero()


def test_residual_orders_all_pass(delay_problem, wave_problem):
    for prob, K in ((delay_problem, 5), (wave_problem, 5)):
        sol = solve(prob, K)
        verdicts = residual_orders(prob, sol)
        assert len(verdicts) == K - prob.m + 1
        assert all(ok for _, ok in verdicts)


def test_residual_detects_corruption(delay_problem, wave_problem, diffusion_problem):
    sol = solve(delay_problem, 5)
    bad = sol.replace_coeff(3, sol.coeff(3) + Expr.one())
    verdicts = dict(residual_orders(delay_problem, bad))
    # first failure exactly at order 3 - m = 2
    assert verdicts[0] and verdicts[1]
    assert not verdicts[2]

    # a shift far below any numeric tolerance still fails first at order 3 - m
    tiny = Expr.const(Fraction(1, 10**12))
    for prob in (delay_problem, wave_problem, diffusion_problem):
        sol = solve(prob, 6)
        verdicts = residual_orders(prob, sol.replace_coeff(3, sol.coeff(3) + tiny))
        first_fail = next((j for j, ok in verdicts if not ok), None)
        assert first_fail == 3 - prob.m, prob.name

    # zero by the reflection formula, which at q = 4 follows from the
    # multiplication formula the Scalars apply: structurally zero, so PASS
    g = Scalar.gamma
    reflected = g(Fraction(1, 4)) * g(Fraction(3, 4)) - Scalar.rational_power(
        2, Fraction(1, 2)
    ) * g(Fraction(1, 2)) ** 2
    assert reflected.is_zero()
    sol = solve(diffusion_problem, 6)
    same = sol.replace_coeff(3, sol.coeff(3) + Expr.const(reflected))
    assert all(ok for _, ok in residual_orders(diffusion_problem, same))

    # zero only by the reflection formula at the prime level 3, where no
    # relation is applied: not structurally zero, so the verdict is FAIL
    prime_level = g(Fraction(1, 3)) * g(Fraction(2, 3)) - 2 * Scalar.rational_power(
        3, Fraction(-1, 2)
    ) * g(Fraction(1, 2)) ** 2
    assert abs(prime_level.eval({})) < 1e-14
    bad = sol.replace_coeff(3, sol.coeff(3) + Expr.const(prime_level))
    verdicts = dict(residual_orders(diffusion_problem, bad))
    assert verdicts[0] and verdicts[1]
    assert not verdicts[2]


def test_residual_needs_enough_orders(delay_problem):
    sol = solve(delay_problem, 5)
    short = solve(delay_problem, 0)
    with pytest.raises(ProblemError):
        residual_series(delay_problem, short)
    assert residual_series(delay_problem, sol).trunc == 4


def test_monotone_refinement(diffusion_problem):
    from fracseries.evaluate import eval_solution

    import math

    errs = []
    for K in range(2, 7):
        sol = solve(diffusion_problem, K)
        got = eval_solution(sol, 0.5, 0.8)
        errs.append(abs(got - 1.5 * math.exp(0.8)))
    assert all(b < a for a, b in zip(errs, errs[1:])), errs
