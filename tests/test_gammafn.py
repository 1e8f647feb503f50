"""Oracle tests for the real gamma kernel.

The kernel is checked against frozen reference values, the stdlib's gamma
and the functional equation Gamma(r+1) = r*Gamma(r).
"""

import math
import random

import pytest

from fracseries.gammafn import gamma_real


def test_integers_match_factorials_exactly():
    for n in range(1, 21):
        assert gamma_real(float(n)) == float(math.factorial(n - 1))


def test_known_values():
    # frozen reference values, correctly rounded; kernel is a few ulps off at most
    cases = (
        (0.5, 1.7724538509055159),  # sqrt(pi)
        (1.5, 0.88622692545275805),
        (2.5, 1.3293403881791372),
        (1.0 / 3.0, 2.6789385347077479),
    )
    for arg, want in cases:
        assert abs(gamma_real(arg) - want) <= 4e-15 * want, arg


def test_against_stdlib_gamma():
    rng = random.Random(20260819)
    for _ in range(500):
        r = rng.uniform(1e-3, 60.0)
        want = math.gamma(r)
        got = gamma_real(r)
        assert abs(got - want) <= 1e-12 * abs(want), r


def test_recurrence_invariant_1000_points():
    # Gamma(r+1) = r*Gamma(r) to 1e-12 relative, both sides via this kernel
    rng = random.Random(77)
    for _ in range(1000):
        r = rng.uniform(0.1, 50.0)
        lhs = gamma_real(r + 1.0)
        rhs = r * gamma_real(r)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs), r


def test_small_argument_route():
    # small arguments, where Gamma grows like 1/r
    rng = random.Random(3)
    for _ in range(200):
        r = rng.uniform(1e-4, 0.5)
        assert abs(gamma_real(r) - math.gamma(r)) <= 1e-12 * math.gamma(r)


def test_domain_errors():
    for bad in (0.0, -1.0, -0.5, float("nan")):
        with pytest.raises(ValueError):
            gamma_real(bad)


def test_normalization_weights_are_finite_over_working_range():
    # k*alpha + 1 stays well inside the accurate range for any solver run
    for k in range(0, 64):
        for q in (1, 2, 3, 4):
            assert math.isfinite(gamma_real(1.0 + k / q))
