"""Regularized incomplete gamma functions.

Thin scalar wrappers over scipy.special.cython_special.gammainc /
gammaincc. These are the same C kernels as the scipy.special ufuncs and
return the same bits, but called on one Python float they skip the ufunc
dispatch and cost about an eighth as much per call, which matters because
every coverage evaluates them; integrands on whole rules call the ufuncs
(distributions.scale_tail_array). The wrappers
add what the coverage formulas rely on: argument checks that reject NaN
loudly instead of passing it through, exact values at x = 0 and x = inf,
and plain Python floats out. The range that matters here is a = 2/alpha
with alpha > 2 (so 0 < a < 1) and x >= 0.

Also provides a cancellation-free difference P(a, x_hi) - P(a, x_lo), which
the annulus (edge receiver) geometry needs: for large arguments both P
values sit next to 1, so subtracting them directly would wipe out every
significant digit. Past x = a + 1 the difference is formed from the upper
tails instead, Q(a, x_lo) - Q(a, x_hi), whose values are small and decay
geometrically apart.
"""

from __future__ import annotations

import math

from scipy.special.cython_special import gammainc, gammaincc


def _check(a: float, x: float) -> None:
    # the negated comparisons also catch NaN
    if not a > 0.0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if not x >= 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")


def reg_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), in [0, 1]."""
    _check(a, x)
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    return gammainc(a, x)


def reg_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    _check(a, x)
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    return gammaincc(a, x)


def reg_lower_diff(a: float, x_lo: float, x_hi: float) -> float:
    """P(a, x_hi) - P(a, x_lo) for 0 <= x_lo <= x_hi, computed stably.

    When both arguments are in the upper regime the result is formed as
    Q(a, x_lo) - Q(a, x_hi); the two Q values decay geometrically apart,
    so no catastrophic cancellation occurs even when both P values round
    to 1.
    """
    if x_lo > x_hi:
        return -reg_lower_diff(a, x_hi, x_lo)
    if x_lo == x_hi:
        return 0.0
    if x_lo >= a + 1.0:
        return reg_upper(a, x_lo) - reg_upper(a, x_hi)
    # below a + 1 at least P(x_lo) stays comfortably below 1, so the
    # direct difference keeps its digits
    return reg_lower(a, x_hi) - reg_lower(a, x_lo)
