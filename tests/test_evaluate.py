"""Numeric layer: pointwise sums, truncation error, export round trips."""

import copy
import dataclasses
import inspect
import json
import math
import pickle
import random
import typing
from fractions import Fraction

import pytest

from fracseries.dsl import parse_problem
from fracseries.errors import EvalError
from fracseries.evaluate import (
    ErrorTable,
    EvalGrid,
    TableRow,
    error_table,
    eval_solution,
    export,
    read_table_csv,
)
from fracseries.scalar import Scalar
from fracseries.solver import solve, solve_linear

WAVE_PARAMS = {"nu": 1.3, "omega": 0.7, "lambda": 1.1}


def test_time_zero_reproduces_initial_condition(diffusion_problem, delay_problem):
    s1 = solve(diffusion_problem, 6)
    assert eval_solution(s1, 0.3, 0.0) == 1.3
    s2 = solve(delay_problem, 4)
    assert eval_solution(s2, 0.7, 0.0) == 0.7


def test_pointwise_matches_truncated_reference(diffusion_problem):
    sol = solve(diffusion_problem, 8)
    for xv in (0.0, 0.25, 0.5, 0.75):
        for tv in (0.0, 0.25, 0.5, 1.0):
            want = (xv + 1.0) * sum(tv ** k / math.gamma(k + 1.0) for k in range(9))
            got = eval_solution(sol, xv, tv)
            assert abs(got - want) <= 1e-14 * (abs(want) + 1.0)


def test_truncation_tail_bound(diffusion_problem):
    # K = 8 at x = 0, t = 1: error against e is the tail sum_{k>=9} 1/k!.
    # The first omitted term 1/9! = 2.7557e-6 is NOT a bound (the tail
    # exceeds it by ~11%); the Lagrange form e^t * t^9/9! is.
    sol = solve(diffusion_problem, 8)
    got = eval_solution(sol, 0.0, 1.0)
    err = abs(got - math.e)
    assert err <= math.e / math.factorial(9)
    # the exact remainder, frozen: e - sum_{k<=8} 1/k! = 3.0586177751e-6
    assert abs(err - 3.0586177751e-06) < 1e-12


def test_max_error_on_axis_grid(diffusion_problem):
    # pointwise Lagrange bound (x+1) * e^t * t^9/9! on the x = 0 line
    sol = solve(diffusion_problem, 8)
    grid = EvalGrid(xs=(0.0,), ts=(0.25, 0.5, 0.75, 1.0))
    tab = error_table(sol, diffusion_problem.exact, grid)
    for r in tab.rows:
        bound = (r.x + 1) * math.exp(r.t) * r.t ** 9 / math.factorial(9)
        assert r.error <= bound
    # frozen worst point (t = 1)
    assert abs(tab.max_error() - 3.0586177751e-06) < 1e-12


def test_eval_accepts_param_overrides(wave_problem):
    sol = solve(wave_problem, 3)
    v = eval_solution(
        sol, 0.5, 0.25, params={"nu": 1.0, "omega": 1.0, "lambda": 0.5}
    )
    assert math.isfinite(v)
    with pytest.raises(EvalError):
        eval_solution(sol, 0.5, 0.25)  # parameters unbound


def test_non_finite_parameters_are_rejected():
    # exp(-nu*x) is 0.0 at nu = inf, so the table would read zeros; nan would
    # fail later as a total that names no parameter
    prob = parse_problem("param nu\nalpha = 1/2\norder = 1\nic0 = exp(-nu*x)\nrhs = psi\n")
    sol = solve(prob, 4)
    assert eval_solution(sol, 1.0, 0.5, params={"nu": 2.0}) > 0.0
    for bad in (math.inf, -math.inf, math.nan):
        message = f"^parameter 'nu' = {bad} is not finite$"
        with pytest.raises(EvalError, match=message):
            eval_solution(sol, 1.0, 0.5, params={"nu": bad})
        with pytest.raises(EvalError, match=message):
            error_table(sol, None, EvalGrid(xs=(0.0, 1.0), ts=(0.5,), params={"nu": bad}))
    # a file default past the double range is named too
    huge = parse_problem("param nu = 2^(1/2)*17*10^99*10^99*10^99*10^10\nalpha = 1/2\norder = 1\n"
                         "ic0 = exp(-nu*x)\nrhs = psi\n")
    with pytest.raises(EvalError, match="^parameter 'nu' = inf is not finite$"):
        eval_solution(solve(huge, 2), 1.0, 0.5)


def test_negative_time_rejected(diffusion_problem):
    sol = solve(diffusion_problem, 4)
    with pytest.raises(EvalError):
        eval_solution(sol, 0.0, -0.5)


def test_grid_validation():
    with pytest.raises(EvalError):
        EvalGrid(xs=(), ts=(1.0,))
    with pytest.raises(EvalError):
        EvalGrid(xs=(0.0,), ts=(-1.0,))
    with pytest.raises(EvalError):
        EvalGrid(xs=(float("inf"),), ts=(1.0,))


def test_grid_order_x_outer_t_inner(diffusion_problem):
    sol = solve(diffusion_problem, 4)
    grid = EvalGrid(xs=(0.0, 1.0), ts=(0.25, 0.5))
    tab = error_table(sol, None, grid)
    assert [(r.x, r.t) for r in tab.rows] == [
        (0.0, 0.25), (0.0, 0.5), (1.0, 0.25), (1.0, 0.5)
    ]
    assert not tab.has_reference
    assert tab.max_error() is None


def test_csv_round_trip_is_exact(diffusion_problem):
    sol = solve(diffusion_problem, 8)
    grid = EvalGrid(xs=(0.25, 0.5, 0.75), ts=(0.25, 0.5, 0.75, 1.0))
    tab = error_table(sol, diffusion_problem.exact, grid)
    header, rows = read_table_csv(export(tab, "csv"))
    assert header == ["x", "t", "approx", "reference", "abs_error"]
    assert len(rows) == 12
    for parsed, row in zip(rows, tab.rows):
        assert parsed == [row.x, row.t, row.approx, row.reference, row.error]


def test_exports_are_deterministic(delay_problem):
    sol = solve(delay_problem, 4)
    grid = EvalGrid(xs=(0.25, 0.75), ts=(0.5, 1.0))
    a = export(error_table(sol, delay_problem.exact, grid), "json")
    b = export(error_table(sol, delay_problem.exact, grid), "json")
    assert a == b
    assert export(sol, "csv") == export(sol, "csv")
    assert export(sol, "pretty") == export(sol, "pretty")


def test_json_payload_shape(diffusion_problem):
    sol = solve(diffusion_problem, 3)
    doc = json.loads(export(sol, "json"))
    assert doc["problem"] == "kolmogorov"
    assert doc["order"] == 3
    assert len(doc["coefficients"]) == 4
    grid = EvalGrid(xs=(0.5,), ts=(0.5,))
    tdoc = json.loads(export(error_table(sol, None, grid), "json"))
    assert tdoc["columns"] == ["x", "t", "approx"]
    assert len(tdoc["rows"]) == 1


def _indented_json(table):
    """The table as json.dumps(..., indent=2) lays it out."""
    cols = ["x", "t", "approx"]
    if table.has_reference:
        cols += ["reference", "abs_error"]
    rows = [[r.x, r.t, r.approx] + ([r.reference, r.error] if table.has_reference else [])
            for r in table.rows]
    doc = {"problem": table.problem, "order": table.order, "alpha": table.alpha,
           "reference": table.reference_desc, "columns": cols, "rows": rows}
    return json.dumps(doc, indent=2) + "\n"


def test_json_table_bytes_equal_indented_dumps():
    inf_error = abs(1e308 - -1e308)
    assert inf_error == math.inf
    cells = [
        TableRow(-0.0, 0.0, 5e-324),
        TableRow(1e308, 1e16, 1 / 3),
        TableRow(0.5, 2.5, -1e308),
    ]
    with_ref = [
        TableRow(-0.0, 0.0, 5e-324, -0.0, 5e-324),
        TableRow(1e16, 0.125, 1e308, -1e308, inf_error),
        TableRow(0.5, 1.0, 1 / 3, 1e16, 1e16 - 1 / 3),
    ]
    name = 'a], [b, "c" é∂'
    ref = 'exp(x)*"t"], [1, 2], 3, ü'
    tables = [
        ErrorTable(name, 4, "1/2", tuple(cells), has_reference=False),
        ErrorTable(name, 4, "1/2", tuple(cells[:1]), has_reference=False),
        ErrorTable(name, 0, "1", tuple(with_ref), has_reference=True, reference_desc=ref),
        ErrorTable(name, 0, "1", tuple(with_ref[1:2]), has_reference=True,
                   reference_desc=ref),
        ErrorTable("empty, ], [", 2, "3/5", (), has_reference=False),
    ]
    for tab in tables:
        assert export(tab, "json") == _indented_json(tab), tab
    assert "Infinity" in export(tables[3], "json")


def test_table_rows_equal_constructed_rows(diffusion_problem):
    sol = solve(diffusion_problem, 6)
    grid = EvalGrid((-0.5, 0.0, 0.25), (0.0, 0.5))
    for ref in (None, diffusion_problem.exact):
        tab = error_table(sol, ref, grid)
        for r in tab.rows:
            if ref is None:
                built = TableRow(r.x, r.t, r.approx)
            else:
                built = TableRow(r.x, r.t, r.approx, r.reference, r.error)
            assert type(r) is TableRow
            assert r == built and hash(r) == hash(built)
            assert repr(r) == repr(built) and vars(r) == vars(built)


def test_table_rows_stay_frozen(diffusion_problem):
    sol = solve(diffusion_problem, 4)
    row = error_table(sol, diffusion_problem.exact, EvalGrid((0.5,), (0.25,))).rows[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.approx = 0.0
    assert pickle.loads(pickle.dumps(row)) == row
    assert copy.copy(row) == row and copy.deepcopy(row) == row
    moved = dataclasses.replace(row, approx=row.approx + 1.0)
    assert type(moved) is TableRow and moved.approx == row.approx + 1.0
    assert dataclasses.replace(moved, approx=row.approx) == row


def test_csv_cells_print_as_one_format_each():
    # each distinct nonzero x and t is printed once per table; equal values
    # print alike, and 0.0 and -0.0, equal but printed apart, each as itself
    rng = random.Random(26)
    pool = [0.0, -0.0, 0, Fraction(0), math.nan, math.inf, -math.inf, 0.1, 0.5,
            Fraction(1, 2), 2, 2.0, True, 1.0, -1e-300, 5e-324, 1e308, 1 / 3]

    def naive(tab):
        lines = [",".join(["x", "t", "approx"]
                          + (["reference", "abs_error"] if tab.has_reference else []))]
        for r in tab.rows:
            vals = (r.x, r.t, r.approx) + ((r.reference, r.error) if tab.has_reference else ())
            lines.append(",".join("%.17g" % v for v in vals))
        return "\n".join(lines) + "\n"

    for n in (1, 7, 200):
        axes = [[rng.choice(pool) for _ in range(5)] for _ in range(2)]
        rows = [(rng.choice(axes[0]), rng.choice(axes[1]), rng.choice(pool),
                 rng.choice(pool), rng.choice(pool)) for _ in range(n)]
        plain = ErrorTable("p", 2, "1/2", tuple(TableRow(*r[:3]) for r in rows),
                           has_reference=False)
        full = ErrorTable("p", 2, "1/2", tuple(TableRow(*r) for r in rows),
                          has_reference=True, reference_desc="x")
        for tab in (plain, full):
            assert export(tab, "csv") == naive(tab)
    signed = ErrorTable("p", 1, "1", (TableRow(0.0, 0.0, 1.0), TableRow(-0.0, -0.0, 1.0),
                                      TableRow(0.0, -0.0, 1.0)), has_reference=False)
    assert export(signed, "csv") == "x,t,approx\n0,0,1\n-0,-0,1\n0,-0,1\n"


def test_pretty_table_layout(diffusion_problem):
    sol = solve(diffusion_problem, 4)
    grid = EvalGrid(xs=(0.5,), ts=(0.5,))
    text = export(error_table(sol, diffusion_problem.exact, grid), "pretty")
    lines = text.splitlines()
    assert "order K = 4" in lines[0]
    assert lines[2].split() == ["x", "t", "approx", "reference", "abs_error"]


def test_seventeen_digit_export(diffusion_problem):
    sol = solve(diffusion_problem, 5)
    grid = EvalGrid(xs=(1.0 / 3.0,), ts=(2.0 / 3.0,))
    text = export(error_table(sol, None, grid), "csv")
    line = text.splitlines()[1]
    x_str = line.split(",")[0]
    assert float(x_str) == 1.0 / 3.0  # printed precision preserves the float


def test_read_table_csv_rejects_empty():
    with pytest.raises(EvalError):
        read_table_csv("")


# -- compiled evaluation -------------------------------------------------------------

def _equivalence_cases(diffusion_problem, wave_problem, delay_problem):
    for a in (Fraction(1, 2), Fraction(3, 5)):
        yield solve(dataclasses.replace(delay_problem, alpha=a), 8), None, {}
    yield solve(wave_problem, 4), None, WAVE_PARAMS
    yield solve(diffusion_problem, 8), diffusion_problem.exact, {}


def test_table_cells_equal_pointwise_values(diffusion_problem, wave_problem,
                                            delay_problem):
    grid_xs = (-1.0, -0.25, 0.0, 0.5, 1.5)
    grid_ts = (0.0, 0.125, 0.5, 1.0, 2.5)
    for sol, ref, params in _equivalence_cases(diffusion_problem, wave_problem,
                                               delay_problem):
        tab = error_table(sol, ref, EvalGrid(grid_xs, grid_ts, params=params))
        assert tab.alpha == str(sol.problem.alpha)
        for r in tab.rows:
            assert r.approx == eval_solution(sol, r.x, r.t, params), (sol.problem.name, r)


def _scalar_count(sol):
    return sum(len(poly) + 1 for e in sol.coeffs for _, poly in e.terms)


def test_each_scalar_is_evaluated_once_per_table(monkeypatch, wave_problem):
    calls = 0
    scalar_eval = Scalar.eval

    def counting(self, params=None):
        nonlocal calls
        calls += 1
        return scalar_eval(self, params)

    sol = solve(wave_problem, 4)
    monkeypatch.setattr(Scalar, "eval", counting)
    for n in (2, 61):
        calls = 0
        axis = tuple(i / n for i in range(n))
        error_table(sol, None, EvalGrid(axis, axis, params=WAVE_PARAMS))
        assert calls == _scalar_count(sol), n


def test_high_order_matches_mpmath(diffusion_problem):
    # (x+1) * sum_k t^(k*alpha)/Gamma(1+k*alpha) at 50 digits; from K = 171
    # on Gamma(1+k) leaves the double range, and at t = 600 so does t^k
    mpmath = pytest.importorskip("mpmath")
    x = 0.5
    for alpha in (Fraction(1), Fraction(1, 2), Fraction(3, 4)):
        prob = dataclasses.replace(diffusion_problem, alpha=alpha)
        for K in (170, 171, 300):
            sol = solve_linear(prob, K)
            for t in (0, 1, 20, 150, 600):
                with mpmath.workdps(50):
                    a = mpmath.mpf(alpha.numerator) / alpha.denominator
                    want = (x + 1) * mpmath.fsum(
                        mpmath.power(t, k * a) / mpmath.gamma(1 + k * a)
                        for k in range(K + 1)
                    )
                got = eval_solution(sol, x, float(t))
                assert abs(got - want) <= 1e-12 * abs(want), (alpha, K, t, got, want)


def _public_callables():
    import fracseries

    for name in fracseries.__all__:
        obj = getattr(fracseries, name)
        if isinstance(obj, type):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_public_type_hints_resolve():
    # annotations are strings under postponed evaluation; each must name
    # something its module imports
    seen = 0
    for name, obj in _public_callables():
        try:
            typing.get_type_hints(obj)
        except Exception as exc:
            pytest.fail(f"{name}: {exc!r}")
        seen += 1
    assert seen > 100
