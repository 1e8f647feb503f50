"""One run of one workload, in a fresh interpreter.

Started by run.py from the root of a checkout, with ``src`` on PYTHONPATH.
Times ``import fracseries`` plus parsing the workload's problem files
(set-up), then drives the public calls the CLI subcommands make (solve /
solve_linear, residual_orders, error_table / eval_solution, export), checks
every output, and prints one JSON object as its last line of stdout.  With
``--trace`` the layer wrappers from spans.py are installed between the
import and the parse, and the spans are written to ``--spans``.

Times are reported in reference-speed seconds.  On a shared host the same
work can take half as long again while neighbours are busy, in phases that
last from seconds to minutes, so raw seconds of runs a few minutes apart
are not comparable.  The worker therefore stays on one CPU, times a fixed
piece of pure-Python work (reference_s) before and after every library
call, and scales the call's measured time by REF_NOMINAL_S over the mean of
those two: the time the call takes when the host runs the reference at its
nominal speed.  The raw total is reported next to it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402

STAGES = ("solve", "residual", "table")

REF_NOMINAL_S = 0.0066  # reference_s() uncontended: 2.1 GHz Xeon vCPU, CPython 3.11


def reference_s() -> float:
    """Seconds for a fixed piece of pure-Python work shaped like the
    program's: products of sparse sums keyed by sorted tuples with Fraction
    coefficients (the exact layers), then a float loop (the numeric layer)."""
    t0 = time.perf_counter()
    a = {((i % 3, Fraction(i % 4, 3)),): Fraction(i + 1, i + 2) for i in range(12)}
    b = {((i % 5, Fraction(1, i % 3 + 1)),): Fraction(2 * i + 1, i + 3) for i in range(12)}
    for _ in range(3):
        out: dict = {}
        for sa, ca in a.items():
            for sb, cb in b.items():
                exps = dict(sa)
                for atom, e in sb:
                    exps[atom] = exps.get(atom, 0) + e
                sig = tuple(sorted(exps.items()))
                out[sig] = out.get(sig, 0) + ca * cb
    v = 0.0
    for i in range(20000):
        v += (i * 0.5) ** 0.5 - abs(-i * 1e-3)
    return time.perf_counter() - t0


class Ops:
    """Times each library call and counts attempts and failures."""

    def __init__(self):
        self.ref_s = reference_s()
        self.raw_s = 0.0
        self.stage_s = dict.fromkeys(STAGES, 0.0)
        self.eval_s = 0.0
        self.points = 0
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.unexpected: list[str] = []
        self.solutions = []

    def call(self, stage, fn, *args, evaluates=False, may_fail=()):
        """Run fn(*args); None when it raised.

        An exception listed in `may_fail` is a counted failure of the
        program; any other is counted too and also makes the run incorrect.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # every failure is recorded, by class
            dt = time.perf_counter() - t0
            name = type(exc).__name__
            self.failures[name] = self.failures.get(name, 0) + 1
            if not isinstance(exc, may_fail):
                self.unexpected.append(f"{fn.__name__}: {name}: {exc}")
            result = None
        else:
            dt = time.perf_counter() - t0
        self.raw_s += dt
        # the host's speed around this call: the loop timed before and after it
        ref_after = reference_s()
        dt *= 2 * REF_NOMINAL_S / (self.ref_s + ref_after)
        self.ref_s = ref_after
        self.stage_s[stage] += dt
        if evaluates:
            self.eval_s += dt
        return result


def with_alpha(prob, alpha: str):
    """The problem at another exact alpha, as `--alpha P/Q` makes it (the
    problems used here carry no forcing series to re-grid)."""
    return dataclasses.replace(prob, alpha=Fraction(alpha))


def corrupt(fs, sol):
    """Fault injection for the self-test: bump one coefficient by 1."""
    k = min(2, sol.order)
    return sol.replace_coeff(k, sol.coeff(k) + fs.Expr.one())


def perturb(table):
    """Fault injection for the self-test: one cell off by 1e-9 relative."""
    rows = list(table.rows)
    i = len(rows) // 2
    rows[i] = dataclasses.replace(rows[i], approx=rows[i].approx * (1 + 1e-9) + 1e-12)
    return dataclasses.replace(table, rows=tuple(rows))


def check_coeffs_expected(chk, sol, key, expected) -> None:
    table = expected["coefficients"].get(key)
    if not chk.expect(table is not None and len(table) >= len(sol.coeffs),
                      f"{key}: no expected values for K={sol.order}"):
        return
    xs, params = expected["probe_x"], expected["params"]
    for k, (coeff, want) in enumerate(zip(sol.coeffs, table)):
        scale = max(abs(v) for v in want)
        got = [coeff.eval(x, params) for x in xs]
        chk.expect(all(checks.close(g, w, checks.COEFF_RTOL, scale) for g, w in zip(got, want)),
                   f"{key}: coefficient {k} = {got}, expected {want}")


def check_verdicts(chk, name, verdicts) -> None:
    if chk.expect(verdicts is not None, f"{name}: residual_orders failed"):
        bad = [j for j, ok in verdicts if not ok]
        chk.expect(not bad, f"{name}: residual FAIL at orders {bad}")


def check_rows_exported(chk, table, rows, what) -> None:
    want = [[r.x, r.t, r.approx] + ([r.reference, r.error] if table.has_reference else [])
            for r in table.rows]
    chk.expect(rows == want, f"{what}: exported rows differ from the table")


# -- workloads -------------------------------------------------------------------------

def run_delay(fs, probs, spec, ops, chk, expected, inject) -> None:
    for n, case in enumerate(spec["cases"]):
        prob = with_alpha(probs[case["problem"]], case["alpha"])
        key = f"{case['problem']}@{case['alpha']}"
        sol = ops.call("solve", fs.solve, prob, case["K"])
        if not chk.expect(sol is not None, f"{key}: solve failed"):
            continue
        if inject == "coeff" and n == 0:
            sol = corrupt(fs, sol)
        ops.solutions.append(sol)
        check_verdicts(chk, key, ops.call("residual", fs.residual_orders, prob, sol))
        check_coeffs_expected(chk, sol, key, expected)
        grid = fs.EvalGrid(case["grid"]["xs"], case["grid"]["ts"])
        table = ops.call("table", fs.error_table, sol, None, grid, evaluates=True)
        text = ops.call("table", fs.export, sol, "json")
        if not chk.expect(table is not None and text is not None, f"{key}: table/export failed"):
            continue
        ops.points += len(table.rows)
        a = float(Fraction(case["alpha"]))
        c = checks.burgers_scalars(a, case["K"])
        for r in table.rows:
            terms = [ck * r.x * r.t ** (k * a) / math.gamma(1 + k * a) for k, ck in enumerate(c)]
            want = math.fsum(terms)
            chk.expect(checks.close(r.approx, want, checks.SERIES_RTOL, sum(map(abs, terms))),
                       f"{key}: cell ({r.x}, {r.t}) = {r.approx}, recurrence gives {want}")
        doc = json.loads(text)
        chk.expect(len(doc["coefficients"]) == case["K"] + 1 and doc["alpha"] == case["alpha"],
                   f"{key}: json export has the wrong shape")


def run_wave(fs, probs, spec, ops, chk, expected, inject) -> None:
    case = spec["cases"][0]
    prob = probs[case["problem"]]
    key = f"{case['problem']}@{prob.alpha}"
    sol = ops.call("solve", fs.solve, prob, case["K"])
    if not chk.expect(sol is not None, f"{key}: solve failed"):
        return
    if inject == "coeff":
        sol = corrupt(fs, sol)
    ops.solutions.append(sol)
    check_verdicts(chk, key, ops.call("residual", fs.residual_orders, prob, sol))
    check_coeffs_expected(chk, sol, key, expected)
    grid = fs.EvalGrid(case["grid"]["xs"], case["grid"]["ts"], params=case["params"])
    table = ops.call("table", fs.error_table, sol, None, grid, evaluates=True)
    if not chk.expect(table is not None, f"{key}: error_table failed"):
        return
    if inject == "cell":
        table = perturb(table)
    text = ops.call("table", fs.export, table, "json")
    ops.points += len(table.rows)
    a = float(prob.alpha)
    norms = [math.gamma(1 + k * a) for k in range(len(sol.coeffs))]
    values_at = {}
    for r in table.rows:
        if r.x not in values_at:
            values_at[r.x] = [c.eval(r.x, case["params"]) for c in sol.coeffs]
        terms = [v * r.t ** (k * a) / norms[k] for k, v in enumerate(values_at[r.x])]
        want = math.fsum(terms)
        chk.expect(checks.close(r.approx, want, checks.SERIES_RTOL, sum(map(abs, terms))),
                   f"{key}: cell ({r.x}, {r.t}) = {r.approx}, coefficient sum gives {want}")
    if chk.expect(text is not None, f"{key}: export failed"):
        check_rows_exported(chk, table, json.loads(text)["rows"], key)


def run_dense(fs, probs, spec, ops, chk, expected, inject) -> None:
    offset = {"kolmogorov": 1.0, "burgers-delay": 0.0}  # phi_k = x + offset
    probe_x = expected["probe_x"]

    def check_collapsed(sol, name):
        for k, coeff in enumerate(sol.coeffs):
            got = [coeff.eval(x) for x in probe_x]
            want = [x + offset[name] for x in probe_x]
            chk.expect(all(checks.close(g, w, checks.PARTIAL_SUM_RTOL) for g, w in zip(got, want)),
                       f"{name}@1: coefficient {k} = {got}, expected {want}")

    for n, case in enumerate(spec["cases"]):
        name = case["problem"]
        prob = with_alpha(probs[name], case["alpha"])
        sol = ops.call("solve", fs.solve, prob, case["K"])
        if not chk.expect(sol is not None, f"{name}@1: solve failed"):
            continue
        if inject == "coeff" and n == 0:
            sol = corrupt(fs, sol)
        ops.solutions.append(sol)
        check_verdicts(chk, f"{name}@1", ops.call("residual", fs.residual_orders, prob, sol))
        check_collapsed(sol, name)
        grid = fs.EvalGrid(case["grid"]["xs"], case["grid"]["ts"])
        table = ops.call("table", fs.error_table, sol, prob.exact, grid, evaluates=True)
        if not chk.expect(table is not None, f"{name}@1: error_table failed"):
            continue
        if inject == "cell" and n == 0:
            table = perturb(table)
        text = ops.call("table", fs.export, table, "csv")
        ops.points += len(table.rows)
        for r in table.rows:
            c = r.x + offset[name]
            want = c * checks.exp_partial_sum(r.t, case["K"])
            chk.expect(checks.close(r.approx, want, checks.PARTIAL_SUM_RTOL),
                       f"{name}@1: cell ({r.x}, {r.t}) = {r.approx}, partial sum gives {want}")
            chk.expect(checks.close(r.reference, c * math.exp(r.t), checks.PARTIAL_SUM_RTOL),
                       f"{name}@1: reference ({r.x}, {r.t}) = {r.reference}")
        if chk.expect(text is not None, f"{name}@1: export failed"):
            rows = [[float(v) for v in row] for row in list(csv.reader(io.StringIO(text)))[1:]]
            check_rows_exported(chk, table, rows, f"{name}@1")

    ko = probs["kolmogorov"]
    for ev in spec["evals"]:
        sol = ops.call("solve", fs.solve_linear, ko, ev["K"])
        if not chk.expect(sol is not None, f"kolmogorov K={ev['K']}: solve_linear failed"):
            continue
        ops.solutions.append(sol)
        check_collapsed(sol, "kolmogorov")
        check_verdicts(chk, f"kolmogorov K={ev['K']}",
                       ops.call("residual", fs.residual_orders, ko, sol))
        v = ops.call("table", fs.eval_solution, sol, ev["x"], ev["t"],
                     evaluates=True, may_fail=fs.EvalError)
        if v is not None:
            ops.points += 1
            want = (ev["x"] + 1) * checks.exp_partial_sum(ev["t"], ev["K"])
            chk.expect(checks.close(v, want, checks.PARTIAL_SUM_RTOL),
                       f"kolmogorov K={ev['K']}: eval({ev['x']}, {ev['t']}) = {v}, "
                       f"partial sum gives {want}")


RUNNERS = {"delay-sweep": run_delay, "wave-params": run_wave, "dense-grid": run_dense}


def sizes(solutions) -> dict:
    """Exponential terms and scalar monomials over all derived coefficients.

    A scalar's monomials are those of its numerator and denominator, not
    counting a denominator of 1.
    """
    exp_terms = total = largest = 0
    for sol in solutions:
        for coeff in sol.coeffs:
            here = 0
            for mu, poly in coeff.terms:
                exp_terms += 1
                for s in (mu, *poly):
                    here += len(s.num) + len(s.den) - 1
            total += here
            largest = max(largest, here)
    return {"result_monomials": total, "size.exp_terms": exp_terms,
            "size.monomials_max": largest}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--inject", default="none", choices=("none", "coeff", "cell"))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="file for the spans of a traced run")
    ap.add_argument("--run-id", default="run")
    args = ap.parse_args(argv)

    spec = workloads.generate(args.workload, args.seed, args.scale)
    if hasattr(os, "sched_setaffinity"):  # one CPU, so the reference sees the same core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ref_before = reference_s()
    t0 = time.perf_counter()
    import fracseries as fs
    import_s = time.perf_counter() - t0
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(args.run_id).install()
    t0 = time.perf_counter()
    probs = {name: fs.parse_problem_file(Path(workloads.PROBLEM_FILES[name]))
             for name in spec["files"]}
    setup_s = import_s + time.perf_counter() - t0
    setup_s *= 2 * REF_NOMINAL_S / (ref_before + reference_s())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops, chk = Ops(), checks.Checker()
    RUNNERS[args.workload](fs, probs, spec, ops, chk, checks.load_expected(), args.inject)
    run_s = sum(ops.stage_s.values())
    out = {
        "setup_s": setup_s,
        "raw_run_s": ops.raw_s,
        "stage_s": ops.stage_s,
        "run_s": run_s,
        "eval_s": ops.eval_s,
        "points": ops.points,
        "attempted": ops.attempted,
        "failures": ops.failures,
        "unexpected": ops.unexpected,
        "checks": chk.count,
        "checks_failed": chk.failed,
        "check_messages": chk.messages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **sizes(ops.solutions),
    }
    if tracer is not None:
        tracer.uninstall()
        factor = run_s / ops.raw_s  # the calls' mean correction, for the layer times
        out["layers"] = {k: v * factor if k.endswith("_s") else v
                         for k, v in tracer.layer_metrics().items()}
        out["spans"] = tracer.write(args.spans) if args.spans else len(tracer.span_name)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
