"""Varying the fractional order alpha by re-deriving at rational alphas.

Re-deriving the coefficients at another rational alpha is what the CLI's
--alpha flag does; the delay problem's coefficients genuinely depend on
alpha, so nothing less works.

1. The delay problem: how one coefficient changes with alpha.

2. The drift-diffusion file, whose coefficients are x + 1 at every alpha:
   the series is (x+1) * sum t^(k*alpha)/Gamma(1+k*alpha), the partial sum
   of a Mittag-Leffler profile, and tends to (x+1)*e^t as alpha -> 1.

    python3 demos/alpha_sweep.py
"""

import math
import pathlib
import sys
from dataclasses import replace
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fracseries import eval_solution, parse_problem_file, solve

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


def rational_sweep():
    prob = parse_problem_file(PROBLEMS / "burgers_delay.frac")
    print("delay problem, coefficient of t^(2 alpha) as alpha varies:")
    for a in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
        sol = solve(replace(prob, alpha=a), 3)
        print(f"  alpha = {a}:  coeff[2](x) = {sol.coeff(2).pretty()}")
    print()


def profile_sweep():
    prob = parse_problem_file(PROBLEMS / "kolmogorov.frac")
    x, t = 0.5, 0.8
    print(f"drift-diffusion at (x, t) = ({x}, {t}), alpha-free coefficients:")
    for a in (Fraction(3, 5), Fraction(7, 10), Fraction(4, 5), Fraction(9, 10), Fraction(1)):
        sol = solve(replace(prob, alpha=a), 8)
        v = eval_solution(sol, x, t)
        print(f"  alpha = {float(a):.1f}:  u = {v:.12f}")
    print(f"  alpha -> 1 target (x+1)*e^t = {(x + 1) * math.exp(t):.12f}")


if __name__ == "__main__":
    rational_sweep()
    profile_sweep()
