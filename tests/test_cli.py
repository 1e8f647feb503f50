"""Command line: exit codes, deterministic stdout, stream separation."""

import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import fracseries
from fracseries.cli import main
from fracseries.dsl import parse_problem_file
from fracseries.evaluate import EvalGrid, error_table, eval_solution, export
from fracseries.solver import solve


DATA = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden_stdout.json"
FORCED_GOLDEN = DATA / "golden_forced.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _fx(problems_dir, name):
    return str(problems_dir / name)


def test_solve_pretty_report(capsys, problems_dir):
    code, out, err = run(capsys, "solve", _fx(problems_dir, "kolmogorov.frac"), "-K", "4")
    assert code == 0
    assert out.startswith("problem: kolmogorov")
    assert "coeff[4](x) = 1 + x" in out
    assert "closed form:" in out
    # run info goes to stderr only
    assert "path=" in err and "path=" not in out


def test_coeffs_json_matches_library(capsys, problems_dir):
    code, out, _ = run(
        capsys, "coeffs", _fx(problems_dir, "kolmogorov.frac"), "-K", "3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    prob = parse_problem_file(_fx(problems_dir, "kolmogorov.frac"))
    sol = solve(prob, 3)
    assert doc["coefficients"] == [e.to_source() for e in sol.coeffs]


def test_linear_flag_gives_same_coefficients(capsys, problems_dir):
    _, a, _ = run(capsys, "coeffs", _fx(problems_dir, "kolmogorov.frac"), "-K", "6",
                  "--format", "csv")
    _, b, _ = run(capsys, "coeffs", _fx(problems_dir, "kolmogorov.frac"), "-K", "6",
                  "--format", "csv", "--linear")
    assert a == b


def test_residual_pass(capsys, problems_dir):
    code, out, _ = run(capsys, "residual", _fx(problems_dir, "burgers_delay.frac"), "-K", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:2] == ["order 0: PASS", "order 1: PASS"]
    assert lines[-1] == "residual: PASS (5 orders)"


def test_residual_corruption_fails_at_shifted_order(capsys, problems_dir):
    # perturbing coefficient 3 of a first-order problem surfaces at order 2
    code, out, _ = run(
        capsys, "residual", _fx(problems_dir, "burgers_delay.frac"), "-K", "5",
        "--corrupt-order", "3",
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert "order 1: PASS" in lines
    assert "order 2: FAIL" in lines
    assert lines[-1].startswith("residual: FAIL")


def test_table_csv_matches_library_export(capsys, problems_dir):
    code, out, _ = run(
        capsys, "table", _fx(problems_dir, "kolmogorov.frac"), "-K", "8",
        "--grid", "x=0.25:0.75:0.25 t=0.25:1:0.25", "--exact", "--format", "csv",
    )
    assert code == 0
    prob = parse_problem_file(_fx(problems_dir, "kolmogorov.frac"))
    sol = solve(prob, 8)
    grid = EvalGrid(
        xs=(0.25, 0.5, 0.75), ts=(0.25, 0.5, 0.75, 1.0)
    )
    assert out == export(error_table(sol, prob.exact, grid), "csv")
    assert len(out.strip().splitlines()) == 13  # header + 12 points


def test_eval_prints_seventeen_digits(capsys, problems_dir):
    code, out, _ = run(
        capsys, "eval", _fx(problems_dir, "kolmogorov.frac"), "-K", "8",
        "-x", "0.5", "-t", "0.5",
    )
    assert code == 0
    prob = parse_problem_file(_fx(problems_dir, "kolmogorov.frac"))
    want = eval_solution(solve(prob, 8), 0.5, 0.5)
    assert float(out.strip()) == want


def test_eval_with_params(capsys, problems_dir):
    code, out, _ = run(
        capsys, "eval", _fx(problems_dir, "klein_gordon.frac"), "-K", "3",
        "-x", "0.5", "-t", "0.25",
        "--param", "nu=1", "--param", "omega=1", "--param", "lambda=0.5",
    )
    assert code == 0
    float(out.strip())


def test_alpha_override_rederives(capsys, problems_dir):
    # at alpha = 1 every delay coefficient collapses to x
    code, out, _ = run(
        capsys, "coeffs", _fx(problems_dir, "burgers_delay.frac"), "-K", "4",
        "--alpha", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == "1"
    assert all(src == "x" for src in doc["coefficients"])


def test_delay_coefficients_golden(capsys, problems_dir):
    # Gamma atoms are reduced to arguments in (0, 1): gamma(3/2) and gamma(5/2)
    # appear as rational multiples of gamma(1/2)
    code, out, _ = run(capsys, "coeffs", _fx(problems_dir, "burgers_delay.frac"), "-K", "4")
    assert code == 0
    assert out == (
        "coeff[0](x) = x\n"
        "coeff[1](x) = x\n"
        "coeff[2](x) = (1/2 + 1/2*2^(1/2))*x\n"
        "coeff[3](x) = (1/2 + gamma(1/2)^(-2) + 1/2*2^(1/2))*x\n"
        "coeff[4](x) = (7/8 + 1/2*gamma(1/2)^(-2) + 1/4*gamma(1/2)^(-2)*2^(1/2)"
        " + 9/16*2^(1/2))*x\n"
    )


def test_stdout_matches_golden_digests(capsys, problems_dir):
    """stdout sha256 and exit code of `coeffs --format json` and `residual`
    on every shipped problem at K = 8 and six alphas, and on burgers-delay at
    the composite-denominator alpha 5/6, plus the numeric output:
    `table --exact --format csv` on kolmogorov and burgers-delay (alpha 1,
    K = 16), a klein-gordon `table` with bound parameters, both tables of
    kolmogorov and klein-gordon again as `--format json`, `eval` on
    kolmogorov at K = 200, and a dense 51x51 grid that crosses x = 0 (K = 16):
    kolmogorov `table --exact` as csv and pretty, and burgers-delay at
    alpha 1 as csv without a reference.

    The digests in tests/data/golden_stdout.json pin the exact coefficients,
    verdicts and printed numbers byte for byte. Only a change that means to alter stdout may
    regenerate them: rerun each case's argv and store the new sha256 and exit
    code, and say in the change what output changed and why.
    """
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) == 47
    assert not _golden_mismatches(capsys, cases, problems_dir)


def _golden_mismatches(capsys, cases, folder):
    """argv of each case whose stdout digest or exit code differs."""
    wrong = []
    for case in cases:
        argv = [_fx(folder, a) if a.endswith(".frac") else a for a in case["argv"]]
        code, out, _ = run(capsys, *argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        if (code, digest) != (case["exit"], case["sha256"]):
            wrong.append(" ".join(case["argv"]))
    return wrong


def test_forced_problem_matches_golden_digests(capsys):
    """`coeffs --format json` and `residual` on tests/data/forced.frac at
    K = 6, at the file's alpha and at --alpha 1/3 and 1: the forcing
    coefficients keep their grid index when alpha is re-derived."""
    cases = json.loads(FORCED_GOLDEN.read_text())
    assert len(cases) == 6
    assert not _golden_mismatches(capsys, cases, DATA)


def test_replace_alpha_matches_cli_override(capsys):
    # dataclasses.replace re-derives a forced problem as --alpha does
    prob = parse_problem_file(DATA / "forced.frac")
    sol = solve(dataclasses.replace(prob, alpha=Fraction(1, 3)), 6)
    code, out, _ = run(capsys, "coeffs", str(DATA / "forced.frac"), "-K", "6",
                       "--alpha", "1/3", "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients"] == [c.to_source() for c in sol.coeffs]


def test_stdout_is_deterministic(capsys, problems_dir):
    args = ("table", _fx(problems_dir, "burgers_delay.frac"), "-K", "4",
            "--grid", "x=0:1:0.5 t=0:1:0.25", "--exact", "--format", "json")
    _, a, _ = run(capsys, *args)
    _, b, _ = run(capsys, *args)
    assert a == b


# -- exit codes ----------------------------------------------------------------------

def test_exit_2_usage_and_parse(capsys, problems_dir, tmp_path, malformed_dir):
    # missing file
    code, _, err = run(capsys, "solve", str(tmp_path / "absent.frac"))
    assert code == 2 and "error:" in err
    # syntax error in the file
    code, _, err = run(capsys, "solve", str(malformed_dir / "unclosed_paren.frac"))
    assert code == 2 and "line 5" in err
    # truncation below m - 1
    code, _, err = run(capsys, "coeffs", _fx(problems_dir, "klein_gordon.frac"), "-K", "0")
    assert code == 2 and "below m-1" in err
    # malformed grid
    code, _, err = run(capsys, "table", _fx(problems_dir, "kolmogorov.frac"),
                       "--grid", "x=1:0:1")
    assert code == 2
    # malformed parameter binding
    code, _, err = run(capsys, "eval", _fx(problems_dir, "kolmogorov.frac"),
                       "-x", "0", "-t", "0", "--param", "nu")
    assert code == 2
    # --exact without an exact solution in the file
    noex = tmp_path / "noex.frac"
    noex.write_text("alpha = 1\norder = 1\nic0 = x\nrhs = Dx(psi, 2)\n")
    code, _, err = run(capsys, "table", str(noex),
                       "--grid", "x=0:1:1 t=0:1:1", "--exact")
    assert code == 2 and "exact" in err
    # bad alpha override
    code, _, err = run(capsys, "coeffs", _fx(problems_dir, "kolmogorov.frac"),
                       "--alpha", "zero")
    assert code == 2
    # a constant too large to print (3^9801 has 4,677 digits)
    big = tmp_path / "big.frac"
    big.write_text("alpha = 1/2\norder = 1\nic0 = (3^99)^99*x\nrhs = Dx(psi)\n")
    for argv in (("coeffs",), ("table", "--grid", "x=0:1:1 t=0:1:1")):
        code, _, err = run(capsys, argv[0], str(big), *argv[1:])
        assert code == 2 and "line 3" in err and "bit integers" in err, err


def test_oversized_grid_is_2_before_expansion(capsys, problems_dir):
    # 10^12 + 1 x values: rejected from the exact count, never enumerated
    t0 = time.perf_counter()
    code, out, err = run(capsys, "table", _fx(problems_dir, "kolmogorov.frac"),
                         "--grid", "x=0:1:1e-12 t=0")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert "error: grid has 1000000000001 points" in err
    # the limit is on x values times t values
    code, _, err = run(capsys, "table", _fx(problems_dir, "kolmogorov.frac"),
                       "--grid", "x=0:1:0.001 t=0:1:0.0001")
    assert code == 2 and "grid has 10011001 points" in err


def test_exit_3_solver_rejection(capsys, problems_dir, tmp_path):
    # nonlinear problem on the linear path
    code, _, err = run(capsys, "coeffs", _fx(problems_dir, "klein_gordon.frac"),
                       "-K", "3", "--linear")
    assert code == 3 and "linear" in err
    # off-grid time coefficient
    bad = tmp_path / "offgrid.frac"
    bad.write_text("alpha = 1/2\norder = 1\nic0 = x\nrhs = exptime(1)*Dx(psi)\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 3
    # residual needs K >= m
    code, _, err = run(capsys, "residual", _fx(problems_dir, "klein_gordon.frac"),
                       "-K", "1")
    assert code == 3


def test_exit_1_numeric_failure(capsys, problems_dir):
    # unbound parameters surface at evaluation time
    code, _, err = run(capsys, "eval", _fx(problems_dir, "klein_gordon.frac"),
                       "-K", "2", "-x", "0.5", "-t", "0.5")
    assert code == 1 and "unbound parameter" in err


def test_unbound_parameter_named_in_evaluation_order(capsys, problems_dir):
    # each term's polynomial coefficients are evaluated before its frequency,
    # so the first unbound name met is lambda; the frequency would name nu
    code, _, err = run(capsys, "eval", _fx(problems_dir, "klein_gordon.frac"),
                       "-x", "1", "-t", "1")
    assert code == 1 and "unbound parameter 'lambda'" in err


def test_eval_past_gamma_overflow(capsys, problems_dir):
    # Gamma(1+k) leaves the double range from k = 171 on; the sum, 2e, does not
    code, out, _ = run(capsys, "eval", _fx(problems_dir, "kolmogorov.frac"), "-K", "300",
                       "-x", "1", "-t", "1")
    assert code == 0
    assert abs(float(out) - 2 * math.e) <= 1e-15 * 2 * math.e


def test_eval_total_outside_double_range_is_1(capsys, problems_dir):
    # the partial sum itself exceeds the double range at t = 2000
    code, out, err = run(capsys, "eval", _fx(problems_dir, "kolmogorov.frac"), "-K", "300",
                         "-x", "1", "-t", "2000")
    assert code == 1 and out == ""
    assert "error: evaluation produced inf at x=1.0, t=2000.0" in err


def test_exact_reference_outside_double_range_is_1(capsys, tmp_path):
    # exp(700)*exp(700) overflows to inf; the table must not print it
    big = tmp_path / "big.frac"
    big.write_text("alpha = 1\norder = 1\nic0 = x\nrhs = Dx(psi)\n"
                   "exact = exp(700)*exp(700)*x\n")
    code, out, err = run(capsys, "table", str(big), "--exact", "-K", "4",
                         "--grid", "x=1:1:1 t=0:1:1", "--format", "csv")
    assert code == 1 and out == ""
    assert "error: reference evaluation produced inf at x=1.0, t=0.0" in err


def test_table_fails_at_first_failing_point_in_grid_order(capsys, tmp_path):
    # the reference fails at (1, 0) and the series at (1, 2000): points are
    # checked x outer, t inner, each series value before its reference
    path = tmp_path / "order.frac"
    path.write_text("alpha = 1\norder = 1\nic0 = x + 1\nrhs = psi\nexact = (x+1)/t\n")
    code, out, err = run(capsys, "table", str(path), "--exact", "-K", "300",
                         "--grid", "x=1:1:1 t=0:2000:2000", "--format", "csv")
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == (
        "error: reference evaluation failed at x=1.0, t=0.0: float division by zero")


@pytest.mark.parametrize("order", ["2", "4"])
def test_scalar_overflow_error_is_short(tmp_path, order):
    # coefficient 1 holds 10^1188, past the double range; the message names
    # its size, not its digits
    path = tmp_path / "big.frac"
    path.write_text("alpha = 1\norder = 1\nic0 = 10^99*x\nrhs = psi^12\n")
    r = _run_child("-m", "fracseries", "table", str(path), "-K", order,
                   "--grid", "x=1:1:1 t=0:1:1", "--format", "csv")
    assert (r.returncode, r.stdout) == (1, ""), r.stderr
    assert "Traceback" not in r.stderr
    last = r.stderr.splitlines()[-1]
    assert last.startswith("error: overflow evaluating") and len(last) < 200, last


@pytest.mark.parametrize("lines, order, code, message", [
    # a sum, chained divisions and an @ scaling raised to the coefficient's degree
    ("ic0 = 1/(3^99)^26 + 1/(5^99)^17 + 1/(7^99)^14 + 1/(11^99)^11 + x\nrhs = Dx(psi)", "2",
     1, "error: a 15646-bit integer is too large to print"),
    ("ic0 = x/(3^99)^26/(3^99)^26/(3^99)^26/(3^99)^26\nrhs = Dx(psi)", "2",
     1, "error: a 16319-bit integer is too large to print"),
    ("ic0 = x\nrhs = (x^99*psi)@(x/(3^99)^13, t)", "2",
     1, "error: a 203985-bit integer is too large to print"),
    # integers the solver grows
    ("ic0 = 10^99*x\nrhs = psi^12", "4", 1, "error: a 14812-bit integer is too large to print"),
    # met while the line is lowered: terms are ordered by their frequencies' printed forms
    ("ic0 = exp(x/(3^99)^26/(3^99)^26/(3^99)^26/(3^99)^26) + exp(x)\nrhs = Dx(psi)", "2",
     2, "error: line 3, col 6: a 16319-bit integer is too large to print"),
], ids=["sum", "divisions", "scaling", "solver", "ordering"])
def test_integers_too_large_to_print_are_errors(tmp_path, lines, order, code, message):
    path = tmp_path / "big.frac"
    path.write_text(f"alpha = 1/2\norder = 1\n{lines}\n")
    r = _run_child("-m", "fracseries", "coeffs", str(path), "-K", order)
    assert (r.returncode, r.stdout) == (code, ""), r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.splitlines()[-1] == message
    assert sum(ln.startswith("error:") for ln in r.stderr.splitlines()) == 1


def test_argparse_usage_error_is_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def _run_child(*argv):
    # the child interpreter imports the same package as this one, installed or not
    src = str(pathlib.Path(fracseries.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )


def test_module_entry_point(problems_dir):
    r = _run_child("-m", "fracseries", "eval",
                   _fx(problems_dir, "kolmogorov.frac"), "-K", "4", "-x", "0", "-t", "0")
    assert r.returncode == 0
    assert float(r.stdout.strip()) == 1.0


def test_stdout_does_not_depend_on_signature_ids(problems_dir):
    # a process that met unrelated atoms first numbers its atoms and
    # signatures differently, and prints the same bytes
    argv = ("coeffs", _fx(problems_dir, "burgers_delay.frac"), "--alpha", "2/7", "-K", "8")
    fresh = _run_child("-m", "fracseries", *argv)
    other = _run_child("-c", "from fractions import Fraction\n"
                             "import sys\n"
                             "from fracseries.cli import main\n"
                             "from fracseries.scalar import Scalar\n"
                             "Scalar.param('zeta') ** Fraction(1, 3)\n"
                             "Scalar.gamma(Fraction(3, 7))\n"
                             "sys.exit(main(sys.argv[1:]))\n", *argv)
    assert fresh.returncode == other.returncode == 0, other.stderr
    assert fresh.stdout.encode() == other.stdout.encode()
    assert fresh.stdout.count("gamma(") > 100


DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    r = _run_child(str(demo))
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()


def test_corrupt_order_out_of_range(capsys, problems_dir):
    # rejected before the solve: no output and no run-info line
    code, out, err = run(capsys, "residual", _fx(problems_dir, "burgers_delay.frac"),
                         "-K", "4", "--corrupt-order", "9")
    assert code == 2 and out == ""
    assert err == "error: --corrupt-order 9 outside 0..4\n"


@pytest.mark.parametrize("argv, message", [
    pytest.param(("eval", "-x", "0", "-t", "-1"), "t must be >= 0", id="eval"),
    pytest.param(("table", "--grid", "x=0:1:0.5 t=-1:0:0.5"), "t values must be >= 0",
                 id="table"),
])
def test_negative_time_is_2_before_solving(capsys, problems_dir, argv, message):
    cmd, *rest = argv
    code, out, err = run(capsys, cmd, _fx(problems_dir, "kolmogorov.frac"), *rest)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


_KG_PARAMS = ("--param", "nu=1", "--param", "omega=1", "--param", "lambda=0.5")


@pytest.mark.parametrize("argv, message", [
    pytest.param(("kolmogorov", "eval", "-x", "inf", "-t", "1"), "x must be finite, got inf",
                 id="eval-x-inf"),
    pytest.param(("kolmogorov", "eval", "-x", "0", "-t", "nan"), "t must be finite, got nan",
                 id="eval-t-nan"),
    pytest.param(("kolmogorov", "eval", "-x", "0", "-t", "inf"), "t must be finite, got inf",
                 id="eval-t-inf"),
    pytest.param(("klein_gordon", "eval", "-x", "0", "-t", "0.5", *_KG_PARAMS,
                  "--param", "nu=nan"), "--param nu: 'nan' is not finite", id="eval-param-nan"),
    pytest.param(("klein_gordon", "table", "--grid", "x=0:1:0.5 t=0:1:0.5", *_KG_PARAMS,
                  "--param", "omega=inf"), "--param omega: 'inf' is not finite",
                 id="table-param-inf"),
    pytest.param(("kolmogorov", "table", "--grid", "x=0:1:0.5 t=0:1:0.5",
                  "--param", "nu=-inf"), "--param nu: '-inf' is not finite",
                 id="table-param-unused"),
    pytest.param(("kolmogorov", "coeffs", "--param", "nu=abc"),
                 "--param nu: 'abc' is not a number", id="coeffs-param-text"),
    pytest.param(("kolmogorov", "solve", "--param", "nu=inf"),
                 "--param nu: 'inf' is not finite", id="solve-param-inf"),
    pytest.param(("klein_gordon", "residual", "--param", "lamda=1"),
                 "--param lamda: not a parameter of klein-gordon "
                 "(declared: nu, omega, lambda)", id="residual-param-undeclared"),
    pytest.param(("klein_gordon", "eval", "-x", "1", "-t", "0.5", "--param", "nu=1",
                  "--param", "nu=2"), "--param nu: bound more than once", id="eval-param-twice"),
    pytest.param(("kolmogorov", "coeffs", "--param", "nu=1", "--param", "nu=1"),
                 "--param nu: bound more than once", id="coeffs-param-twice-same-value"),
    pytest.param(("klein_gordon", "residual", "--param", "omega=1", "--param", " omega=2"),
                 "--param omega: bound more than once", id="residual-param-twice-spaced"),
    pytest.param(("kolmogorov", "table", "--grid", "x=1e400 t=0"),
                 "grid values must lie in the double range in 'x=1e400 t=0'",
                 id="table-grid-x-huge"),
    pytest.param(("kolmogorov", "table", "--grid", "x=0 t=1e400"),
                 "grid values must lie in the double range in 'x=0 t=1e400'",
                 id="table-grid-t-huge"),
    pytest.param(("kolmogorov", "table", "--grid", "x=0:1e400:1e399 t=0"),
                 "grid values must lie in the double range in 'x=0:1e400:1e399 t=0'",
                 id="table-grid-range-huge"),
])
def test_non_finite_flag_is_2_before_solving(capsys, problems_dir, argv, message):
    name, cmd, *rest = argv
    code, out, err = run(capsys, cmd, _fx(problems_dir, f"{name}.frac"), "-K", "4", *rest)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("--grid", "x=0:1:1 t=0:1:1", "--param", "nu=abc"), "--param nu: 'abc' is not a number"),
    (("--grid", "x=0:1 t=0:1:1"), "bad x range '0:1' (want a:b:step or a value)"),
    (("--grid", "x=a:1:1 t=0"), "bad x range 'a:1:1' (want a:b:step or a value)"),
    (("--grid", "x=1/0 t=0"), "bad x range '1/0' (want a:b:step or a value)"),
    (("--grid", "x=0:1:0 t=0:1:1"), "x range step must be positive in '0:1:0'"),
    (("--grid", "y=0 t=0"), "bad grid component 'y=0' (want x=... or t=...)"),
    (("--grid", "x=0:1:1"), "grid must specify both x=a:b:step and t=a:b:step"),
    (("--grid", "x=0:1:1 t=0:1:1", "--param", "nu=1"),
     "--param nu: not a parameter of kolmogorov (declared: none)"),
    (("--grid", "x=0:1:0.5 t=0:1:1 x=5"), "grid gives x twice in 'x=0:1:0.5 t=0:1:1 x=5'"),
    (("--grid", "t=0 x=0 t=0"), "grid gives t twice in 't=0 x=0 t=0'"),
], ids=["param-text", "range-two-parts", "range-text", "range-zero-division", "range-step-zero",
        "grid-component", "grid-no-t", "param-undeclared", "grid-x-twice", "grid-t-twice"])
def test_malformed_table_flag_is_2_before_solving(capsys, problems_dir, argv, message):
    code, out, err = run(capsys, "table", _fx(problems_dir, "kolmogorov.frac"), "-K", "4", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_misspelt_param_is_2_before_solving(capsys, tmp_path):
    # a binding of an undeclared name would leave the default in place
    path = tmp_path / "f.frac"
    path.write_text("name = f\nalpha = 1/2\norder = 1\nparam nu = 3\nic0 = nu*x\nrhs = 0\n")
    code, out, err = run(capsys, "eval", str(path), "-K", "2", "-x", "1", "-t", "0",
                         "--param", "Nu=1")
    assert code == 2 and out == ""
    assert err == "error: --param Nu: not a parameter of f (declared: nu)\n"


@pytest.mark.parametrize("binding, xv, message", [
    (("nu=-1", "omega=1", "lambda=1"), "1", "parameter 'nu' = -1.0 under fractional power"),
    (("nu=1", "omega=0", "lambda=1"), "1", "parameter 'omega' = 0 under negative power"),
    (("nu=1", "omega=1", "lambda=1"), "1e4", "overflow evaluating expression at x=10000.0"),
    # omega^(-3/2) in coefficient 3 is past the double range
    (("nu=1e308", "omega=1e-308", "lambda=1"), "1",
     "overflow: parameter 'omega' = 1e-308 to the power -3/2 is past the float range"),
], ids=["negative-under-root", "zero-under-negative-power", "exp-overflow", "power-overflow"])
def test_binding_outside_the_domain_is_1(capsys, problems_dir, binding, xv, message):
    params = [arg for b in binding for arg in ("--param", b)]
    code, out, err = run(capsys, "eval", _fx(problems_dir, "klein_gordon.frac"), "-K", "4",
                         "-x", xv, "-t", "0.5", *params)
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == f"error: {message}"


def test_solve_report_prints_a_zero_coefficient(capsys, tmp_path):
    path = tmp_path / "still.frac"
    path.write_text("alpha = 1/2\norder = 1\nic0 = x\nrhs = 0\n")
    code, out, _ = run(capsys, "solve", str(path), "-K", "2")
    assert code == 0
    assert out.splitlines()[1:] == ["coeff[0](x) = x", "coeff[1](x) = 0", "coeff[2](x) = 0"]


_TABLE_NU_1 = ("table", "-K", "2", "--param", "nu=1", "--grid", "x=1:1:1 t=0:1:1",
               "--format", "csv")


# a number past 128 bits is named by its size in a diagnostic, a shorter one by its digits
@pytest.mark.parametrize("lines, argv, code, message", [
    ("param nu\nic0 = x/((10^99)^9*nu - (10^99)^9)", _TABLE_NU_1, 1,
     "error: denominator of a scalar with a 2960-bit integer evaluates to zero"),
    ("ic0 = sqrt(-(10^99)^9)*x", ("coeffs", "-K", "1"), 2,
     "error: line 3, col 7: fractional power of negative rational with a 2960-bit integer"),
    ("ic0 = (-(10^99)^9)^(1/3)*x", ("coeffs", "-K", "1"), 2,
     "error: line 3, col 19: fractional power of negative rational with a 2960-bit integer"),
    ("ic0 = sqrt((10^99)^3)*x", ("coeffs", "-K", "1"), 2,
     "error: line 3, col 7: rational base with a 987-bit integer too large to factor"),
    ("param nu\nic0 = x/(nu - 1)", _TABLE_NU_1, 1,
     "error: denominator of (-1)/(1 - nu) evaluates to zero"),
    # its float terms leave about 8e-14 at nu = 1; the exact sum is 0, and a
    # print past 100 characters is cut there
    (f"param nu\nic0 = x/({' + '.join(['nu'] + [f'nu^{k}' for k in range(2, 61)])} - 60)",
     _TABLE_NU_1, 1,
     "error: denominator of (-1/60)/(1 - 1/60*nu - 1/60*nu^2 - 1/60*nu^3 - 1/60*nu^4 - 1/60*nu^5"
     " - 1/60*nu^6 - 1/60*nu^7 - 1/60*... evaluates to zero"),
    ("ic0 = sqrt(-2)*x", ("coeffs", "-K", "1"), 2,
     "error: line 3, col 7: fractional power of negative rational -2"),
], ids=["zero-denominator", "negative-sqrt", "negative-cube-root", "factor",
        "zero-denominator-short", "near-zero-denominator", "negative-sqrt-short"])
def test_diagnostics_name_huge_numbers_by_size(tmp_path, lines, argv, code, message):
    path = tmp_path / "big.frac"
    path.write_text(f"alpha = 1/2\norder = 1\n{lines}\nrhs = Dx(psi)\n")
    cmd, *rest = argv
    r = _run_child("-m", "fracseries", cmd, str(path), *rest)
    assert (r.returncode, r.stdout) == (code, ""), r.stderr
    assert "Traceback" not in r.stderr
    last = r.stderr.splitlines()[-1]
    assert last == message and len(last) < 200
