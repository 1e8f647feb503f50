"""Output checks that do not trust the code under test.

Every reference here is computed by the benchmark itself in plain floats
(partial exponential sums, the delay problem's scalar recurrence) or read
from ``expected.json``, a committed table of coefficient values at fixed
probe points.  Values, not printed forms, are compared, so a change of
canonical form still passes while a wrong number does not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Relative tolerances, pinned here next to what they guard.
PARTIAL_SUM_RTOL = 1e-12   # alpha = 1 cells and points against x*sum t^k/k!
COEFF_RTOL = 1e-9          # coefficient values against expected.json
SERIES_RTOL = 1e-9         # alpha != 1 cells against a sum of coefficient values


def burgers_scalars(alpha: float, K: int) -> list[float]:
    """c_0..c_K with phi_k(x) = c_k * x for the shipped delay problem.

    Substituting psi = sum c_k x t^(k a)/Gamma(1+k a) into
    D^a psi = psi_xx + psi_x(x, t/2) psi(x/2, t/2) + psi/2 (psi_xx = 0 for
    linear x) gives, on the Gamma-normalised grid,

        c_{k+1} = (1/2)^(k a + 1) sum_{i+j=k} W(i, j) c_i c_j + c_k / 2,
        W(i, j) = Gamma(1+k a) / (Gamma(1+i a) Gamma(1+j a)).
    """
    g = [math.gamma(1 + k * alpha) for k in range(K + 1)]
    c = [1.0]
    for k in range(K):
        conv = math.fsum(g[k] / (g[i] * g[k - i]) * c[i] * c[k - i] for i in range(k + 1))
        c.append(0.5 ** (k * alpha + 1) * conv + c[k] / 2)
    return c


def exp_partial_sum(t: float, K: int) -> float:
    """sum_{k=0..K} t^k / k!"""
    terms = [1.0]
    for k in range(1, K + 1):
        terms.append(terms[-1] * t / k)
    return math.fsum(terms)


def close(got: float, want: float, rtol: float, scale: float | None = None) -> bool:
    ref = abs(want) if scale is None else scale
    return abs(got - want) <= rtol * ref


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Counts checks; a run is correct when none of them failed."""

    def __init__(self):
        self.count = 0
        self.failed = 0
        self.messages: list[str] = []  # the first few failures, for the report

    def expect(self, ok: bool, message: str) -> bool:
        self.count += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)
        return ok
