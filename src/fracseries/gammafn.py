"""Real gamma function for the numeric layer.

gamma_real is math.gamma behind a domain guard: the argument must be a
positive real. math.gamma is exact at integers up to 23 and a few ulps off
elsewhere; it raises OverflowError once Gamma(r) exceeds the float range
(r > 171.6). The numeric layer catches that per term and weights such a
term in log space instead.
"""

from __future__ import annotations

import math


def gamma_real(r: float) -> float:
    """Gamma(r) for real r > 0."""
    r = float(r)
    if math.isnan(r) or r <= 0.0:
        raise ValueError(f"gamma_real requires r > 0, got {r!r}")
    return math.gamma(r)
