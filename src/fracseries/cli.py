"""Command line interface.

Subcommands:
  solve      derive coefficients and print a full report
  coeffs     print the coefficient list only
  residual   verify the series against its own equation, PASS/FAIL per order
  table      evaluate on a grid, optionally against the file's exact solution
  eval       evaluate at a single point

Exit codes: 0 success, 1 numeric evaluation failure or residual FAIL,
2 bad input (syntax, usage, a bad or repeated --param in any subcommand,
truncation below m-1), 3 solver rejection
(incompatible time coefficient, --linear on a nonlinear problem,
residual below m).

Everything data-like goes to stdout and is deterministic; run info goes
to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .dsl import parse_problem_file
from .errors import (
    EvalError,
    FracError,
    ParseError,
    ProblemError,
)
from .evaluate import EvalGrid, error_table, eval_solution, export
from .expr import Expr
from .problems import Problem
from .solver import (
    SeriesSolution,
    residual_orders,
    solve,
    solve_linear,
)

_DEFAULT_ORDER = 6
_MAX_GRID_POINTS = 10**6  # x values times t values of one table


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


# -- argument helpers -------------------------------------------------------------

def _parse_params(pairs: Optional[Sequence[str]], prob: Problem) -> dict[str, float]:
    """--param bindings: every value is checked first, then that each name is
    bound once and declared by prob."""
    out: dict[str, float] = {}
    names = []
    for pair in pairs or ():
        name, sep, val = pair.partition("=")
        name = name.strip()
        if not sep or not name:
            raise _Exit(2, f"--param expects name=value, got '{pair}'")
        names.append(name)
        try:
            out[name] = float(val)
        except ValueError:
            raise _Exit(2, f"--param {name}: '{val}' is not a number")
        if not math.isfinite(out[name]):
            raise _Exit(2, f"--param {name}: '{val}' is not finite")
    for name in out:
        if names.count(name) > 1:
            raise _Exit(2, f"--param {name}: bound more than once")
        if name not in prob.params:
            declared = ", ".join(prob.params) or "none"
            raise _Exit(2, f"--param {name}: not a parameter of {prob.name} "
                           f"(declared: {declared})")
    return out


def _parse_range(spec: str, what: str) -> tuple[Fraction, Fraction, int]:
    # "a:b:step" inclusive of both ends, or a single value: (a, step, count)
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            return Fraction(parts[0]), Fraction(1), 1
        if len(parts) != 3:
            raise ValueError
        a, b, step = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise _Exit(2, f"bad {what} range '{spec}' (want a:b:step or a value)")
    if step <= 0:
        raise _Exit(2, f"{what} range step must be positive in '{spec}'")
    if b < a:
        raise _Exit(2, f"{what} range is empty in '{spec}'")
    return a, step, (b - a) // step + 1


def _parse_grid(spec: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    axes = {}
    for part in spec.split():
        name, sep, rng = part.partition("=")
        if not sep or name not in ("x", "t"):
            raise _Exit(2, f"bad grid component '{part}' (want x=... or t=...)")
        if name in axes:
            raise _Exit(2, f"grid gives {name} twice in '{spec}'")
        axes[name] = _parse_range(rng, name)
    if len(axes) != 2:
        raise _Exit(2, "grid must specify both x=a:b:step and t=a:b:step")
    if axes["t"][0] < 0:
        raise _Exit(2, f"t values must be >= 0 in '{spec}'")
    points = axes["x"][2] * axes["t"][2]
    if points > _MAX_GRID_POINTS:
        raise _Exit(2, f"grid has {points} points, more than {_MAX_GRID_POINTS}")
    try:
        return tuple(
            tuple(float(a + i * step) for i in range(n))
            for a, step, n in (axes["x"], axes["t"])
        )
    except OverflowError:
        raise _Exit(2, f"grid values must lie in the double range in '{spec}'")


def _override_alpha(prob: Problem, text: str) -> Problem:
    try:
        a = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _Exit(2, f"--alpha: '{text}' is not a rational number")
    return dataclasses.replace(prob, alpha=a)


# -- staged execution -------------------------------------------------------------

def _load_stage(args) -> tuple[Problem, int, dict[str, float]]:
    """The problem, its truncation order and its checked --param bindings."""
    try:
        prob = parse_problem_file(args.file)
        if getattr(args, "alpha", None):
            prob = _override_alpha(prob, args.alpha)
    except (ParseError, ProblemError, OSError) as exc:
        raise _Exit(2, str(exc))
    order = args.order if args.order is not None else _DEFAULT_ORDER
    if order < prob.m - 1:
        raise _Exit(
            2,
            f"truncation order {order} is below m-1 = {prob.m - 1}; "
            f"the first {prob.m} coefficients are the initial conditions",
        )
    return prob, order, _parse_params(args.param, prob)


def _solve_stage(prob: Problem, order: int, linear: bool = False) -> SeriesSolution:
    try:
        t0 = time.perf_counter()
        sol = solve_linear(prob, order) if linear else solve(prob, order)
        dt = time.perf_counter() - t0
    except FracError as exc:
        raise _Exit(3, str(exc))
    path = "linear" if sol.linear_path_used else "recurrence"
    print(
        f"[{prob.name}] m={prob.m} alpha={prob.alpha} K={order} "
        f"path={path} {dt:.3f}s",
        file=sys.stderr,
    )
    return sol


# -- subcommands ------------------------------------------------------------------

def _cmd_solve(args) -> int:
    """solve and coeffs: the coefficients, after a report line for a pretty solve."""
    prob, order, _ = _load_stage(args)
    sol = _solve_stage(prob, order, linear=args.linear)
    if args.command == "solve" and args.format == "pretty":
        print(
            f"problem: {prob.name}   m = {prob.m}   alpha = {prob.alpha}   "
            f"K = {order}   path: "
            + ("linear" if sol.linear_path_used else "recurrence")
        )
    sys.stdout.write(export(sol, args.format))
    return 0


def _cmd_residual(args) -> int:
    prob, order, _ = _load_stage(args)
    k = args.corrupt_order
    if k is not None and not (0 <= k <= order):
        raise _Exit(2, f"--corrupt-order {k} outside 0..{order}")
    sol = _solve_stage(prob, order)
    if k is not None:
        sol = sol.replace_coeff(k, sol.coeff(k) + Expr.one())
        print(f"[corrupted coefficient {k}]", file=sys.stderr)
    try:
        verdicts = residual_orders(prob, sol)
    except FracError as exc:
        raise _Exit(3, str(exc))
    all_ok = True
    for j, ok in verdicts:
        print(f"order {j}: {'PASS' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    print(f"residual: {'PASS' if all_ok else 'FAIL'} ({len(verdicts)} orders)")
    return 0 if all_ok else 1


def _cmd_table(args) -> int:
    prob, order, params = _load_stage(args)
    reference = None
    if args.exact:
        if prob.exact is None:
            raise _Exit(2, f"'{args.file}' declares no exact solution")
        reference = prob.exact
    xs, ts = _parse_grid(args.grid)
    sol = _solve_stage(prob, order)
    try:
        grid = EvalGrid(xs=xs, ts=ts, params=params)
        tab = error_table(sol, reference, grid)
        out = export(tab, args.format)
    except EvalError as exc:
        raise _Exit(1, str(exc))
    sys.stdout.write(out)
    return 0


def _cmd_eval(args) -> int:
    prob, order, params = _load_stage(args)
    for flag, v in (("x", args.x), ("t", args.t)):
        if not math.isfinite(v):
            raise _Exit(2, f"{flag} must be finite, got {v}")
    if args.t < 0:
        raise _Exit(2, "t must be >= 0")
    sol = _solve_stage(prob, order)
    try:
        v = eval_solution(sol, args.x, args.t, params=params)
    except EvalError as exc:
        raise _Exit(1, str(exc))
    print(format(v, ".17g"))
    return 0


# -- parser -----------------------------------------------------------------------

def _add_common(sp, fmt: bool = True):
    sp.add_argument("file", help="problem file (.frac)")
    sp.add_argument(
        "--order", "-K", type=int, default=None,
        help=f"truncation order K (default {_DEFAULT_ORDER})",
    )
    sp.add_argument(
        "--param", action="append", metavar="NAME=VALUE",
        help="numeric parameter binding, repeatable",
    )
    sp.add_argument(
        "--alpha", default=None, metavar="P/Q",
        help="re-derive with this exact rational order in (0, 1]",
    )
    if fmt:
        sp.add_argument(
            "--format", choices=("csv", "json", "pretty"), default="pretty",
        )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fracseries",
        description="Fractional power series solutions of time-fractional PDEs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    for name, text in (("solve", "derive coefficients, print a report"),
                       ("coeffs", "print the coefficient list")):
        sp = sub.add_parser(name, help=text)
        _add_common(sp)
        sp.add_argument("--linear", action="store_true", help="require a linear right-hand side")
        sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("residual", help="check the series against the equation")
    _add_common(sp, fmt=False)
    sp.add_argument(
        "--corrupt-order", type=int, default=None, metavar="N",
        help="self-test hook: perturb coefficient N before checking",
    )
    sp.set_defaults(fn=_cmd_residual)

    sp = sub.add_parser("table", help="evaluate on a grid")
    _add_common(sp)
    sp.add_argument(
        "--grid", required=True, metavar='"x=a:b:step t=a:b:step"',
        help=f"evaluation grid, both ranges inclusive, at most {_MAX_GRID_POINTS} points",
    )
    sp.add_argument(
        "--exact", action="store_true",
        help="compare against the exact solution declared in the file",
    )
    sp.set_defaults(fn=_cmd_table)

    sp = sub.add_parser("eval", help="evaluate at one point")
    _add_common(sp, fmt=False)
    sp.add_argument("-x", type=float, required=True)
    sp.add_argument("-t", type=float, required=True)
    sp.set_defaults(fn=_cmd_eval)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except _Exit as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except FracError as exc:
        # anything a stage wrapper did not classify is an evaluation failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
