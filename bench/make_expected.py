"""Regenerate expected.json, the committed coefficient values at alpha != 1.

Run from the repository root:  PYTHONPATH=src python3 bench/make_expected.py

Delay-problem values come from the benchmark's own float recurrence
(checks.burgers_scalars) and must agree with the library's coefficients;
klein-gordon values come from the library after its residual check passes.
The file therefore only changes when a derivation is wrong, never because a
coefficient's printed form changed.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402

PROBE_X = [-0.75, 0.35, 1.2]
PARAMS = {"nu": 1.3, "omega": 0.7, "lambda": 1.1}


def main() -> int:
    import fracseries as fs

    full = workloads.SIZES["full"]
    out = {"probe_x": PROBE_X, "params": PARAMS, "coefficients": {}}
    burgers = fs.parse_problem_file(workloads.PROBLEM_FILES["burgers-delay"])
    alphas = {"1/2": full["delay_K"]}
    alphas.update({a: full["sweep_K"] for slot in workloads.ALPHA_SLOTS for a in slot})
    for alpha, K in alphas.items():
        c = checks.burgers_scalars(float(Fraction(alpha)), K)
        values = [[ck * x for x in PROBE_X] for ck in c]
        sol = fs.solve(dataclasses.replace(burgers, alpha=Fraction(alpha)), K)
        for k, (coeff, want) in enumerate(zip(sol.coeffs, values)):
            got = [coeff.eval(x) for x in PROBE_X]
            scale = max(map(abs, want))
            if not all(checks.close(g, w, checks.COEFF_RTOL, scale) for g, w in zip(got, want)):
                raise SystemExit(f"burgers-delay@{alpha} coefficient {k}: {got} vs {want}")
        out["coefficients"][f"burgers-delay@{alpha}"] = values
    kg = fs.parse_problem_file(workloads.PROBLEM_FILES["klein-gordon"])
    sol = fs.solve(kg, full["wave_K"])
    if not all(ok for _, ok in fs.residual_orders(kg, sol)):
        raise SystemExit("klein-gordon residual check failed")
    out["coefficients"][f"klein-gordon@{kg.alpha}"] = [
        [coeff.eval(x, PARAMS) for x in PROBE_X] for coeff in sol.coeffs
    ]
    blocks = [
        f'  "{key}": [\n' + ",\n".join(f"   {json.dumps(row)}" for row in rows) + "\n  ]"
        for key, rows in out["coefficients"].items()
    ]
    text = (f'{{\n "probe_x": {json.dumps(PROBE_X)},\n "params": {json.dumps(PARAMS)},\n'
            ' "coefficients": {\n' + ",\n".join(blocks) + "\n }\n}\n")
    json.loads(text)
    checks.EXPECTED_PATH.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
