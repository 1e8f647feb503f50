"""Seeded inputs for the three benchmark workloads.

``generate(workload, seed, scale)`` returns a plain dict: everything the
worker feeds the library (problem files, alphas, orders, grids, parameter
bindings, single-point evaluations) is drawn here from ``seed`` and nothing
else, so one seed always gives one input set.  The draws are stratified so
that the amount of work, the exact size counts and the number of known
failures are the same for every seed; the seed moves the values, not the
cost.

Why these workloads:

* ``delay-sweep``: the Gamma-weighted delay problem at several rational
  alphas.  Cost sits in the Scalar ring (Gamma atoms from the series
  weights, prime atoms from (1/2)^(k*alpha)) and in the weight cache that
  fills once per alpha; the numeric layer does almost nothing.
* ``wave-params``: klein-gordon, products of exponential terms and
  Dx^4(psi^2) through FracSeries.pow, parameter atoms but hardly any Gamma
  atoms; then a parameter-bound error table and a json export.  The
  control for Gamma-targeted Scalar changes.
* ``dense-grid``: alpha = 1 problems whose coefficients collapse to x and
  x+1, so the symbolic work is small; dense error tables plus single-point
  evaluations at high order, which use the numeric layer in opposite ways
  (compile-once pays on a grid and costs on a point).  Orders past the
  numeric layer's overflow threshold stay in on purpose: they fail today
  and the failures are counted, not filtered out.
"""

from __future__ import annotations

import random

WORKLOADS = ("delay-sweep", "wave-params", "dense-grid")

PROBLEM_FILES = {
    "burgers-delay": "problems/burgers_delay.frac",
    "klein-gordon": "problems/klein_gordon.frac",
    "kolmogorov": "problems/kolmogorov.frac",
}

# Orders and grid sizes; "tiny" is for the self-test only.
SIZES = {
    "full": {"delay_K": 10, "sweep_K": 8, "delay_grid": 5, "wave_K": 12,
             "wave_grid": 25, "dense_K": 16, "dense_grid": 61, "evals_per_band": 4},
    "tiny": {"delay_K": 4, "sweep_K": 3, "delay_grid": 2, "wave_K": 4,
             "wave_grid": 4, "dense_K": 5, "dense_grid": 5, "evals_per_band": 1},
}

# Two seeded alpha slots with one denominator each: the exact sizes depend on
# the denominator only, so every seed derives the same number of monomials.
ALPHA_SLOTS = (("1/5", "2/5", "3/5", "4/5"), ("1/4", "3/4"))

# Single-point orders, in three bands: below the numeric layer's overflow
# threshold today (K <= 141, the Lanczos kernel's own limit), between it and
# the point where Gamma(1+K) itself leaves double range (K >= 171), and past
# that.  Fixing the kernel should clear the middle band, a log-space
# evaluator all three.
EVAL_BANDS = ((120, 141), (142, 170), (171, 260))


def _linspace(a: float, b: float, n: int) -> list[float]:
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _grid(rng: random.Random, n: int, x_range, t_range) -> dict:
    """n x n grid with seeded end points; the point count does not move."""
    xa = rng.uniform(*x_range[0])
    xb = rng.uniform(*x_range[1])
    ta = rng.uniform(*t_range[0])
    tb = rng.uniform(*t_range[1])
    return {"xs": _linspace(xa, xb, n), "ts": _linspace(ta, tb, n)}


def _stratified_ints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One draw from each of `count` equal slices of [lo, hi]."""
    width = (hi - lo + 1) / count
    return [int(lo + width * i + rng.random() * width) for i in range(count)]


def generate(workload: str, seed: int, scale: str = "full") -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES[scale]
    rng = random.Random(f"{workload}/{seed}")
    if workload == "delay-sweep":
        alphas = ["1/2"] + [rng.choice(slot) for slot in ALPHA_SLOTS]
        cases = []
        for i, alpha in enumerate(alphas):
            cases.append({
                "problem": "burgers-delay",
                "alpha": alpha,
                "K": size["delay_K"] if i == 0 else size["sweep_K"],
                "grid": _grid(rng, size["delay_grid"],
                              ((-1.5, -0.5), (0.5, 1.5)), ((0.05, 0.2), (0.3, 0.6))),
            })
        return {"workload": workload, "files": ["burgers-delay"], "cases": cases}
    if workload == "wave-params":
        params = {name: rng.uniform(0.5, 2.0) for name in ("nu", "omega", "lambda")}
        case = {
            "problem": "klein-gordon",
            "K": size["wave_K"],
            "params": params,
            "grid": _grid(rng, size["wave_grid"],
                          ((-2.0, -1.0), (1.0, 2.0)), ((0.0, 0.1), (0.5, 0.8))),
        }
        return {"workload": workload, "files": ["klein-gordon"], "cases": [case]}
    cases = []
    for name in ("kolmogorov", "burgers-delay"):
        cases.append({
            "problem": name,
            "alpha": "1",
            "K": size["dense_K"],
            "grid": _grid(rng, size["dense_grid"],
                          ((-1.0, -0.5), (0.5, 1.0)), ((0.0, 0.05), (0.8, 1.0))),
        })
    evals = []
    for lo, hi in EVAL_BANDS:
        for K in _stratified_ints(rng, lo, hi, size["evals_per_band"]):
            evals.append({"K": K, "x": rng.uniform(-1.0, 1.0), "t": rng.uniform(0.1, 1.0)})
    rng.shuffle(evals)
    return {"workload": workload, "files": ["kolmogorov", "burgers-delay"],
            "cases": cases, "evals": evals}
