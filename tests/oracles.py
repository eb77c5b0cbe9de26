"""Numerical oracles that only the tests use, kept out of the package."""

from __future__ import annotations

import math
from typing import Callable

from scipy import integrate

from rscache.quadrature import _LIMIT, DEFAULT_RTOL, _check


def integrate_interval(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    rtol: float = DEFAULT_RTOL,
    open_upper: bool = False,
) -> float:
    """Integrate fn over (lo, hi) in the variable itself; hi may be math.inf.

    With ``open_upper`` a finite hi is treated as an open support bound
    hiding structure at scales far below the interval width (a density
    spike hugging it): the substitution t = hi - (hi - lo) e^{-v} walks
    into the bound exponentially, resolving features of any relative
    magnitude. Without it the interval is integrated directly, which is
    the right call for integrands already in exponential-decay form.
    """
    if hi <= lo:
        return 0.0
    if math.isinf(hi):
        res = integrate.quad(fn, lo, math.inf, epsabs=0.0, epsrel=rtol, limit=_LIMIT, full_output=1)
        return _check(res, rtol, "infinite-interval quadrature failed")
    if not open_upper:
        res = integrate.quad(
            fn, lo, hi, epsabs=0.0, epsrel=rtol, limit=_LIMIT, full_output=1
        )
        return _check(res, rtol, "finite-interval quadrature failed")
    span = hi - lo

    def with_endpoint_pulled_out(v: float) -> float:
        w = span * math.exp(-v)
        return fn(hi - w) * w

    res = integrate.quad(
        with_endpoint_pulled_out, 0.0, math.inf, epsabs=0.0, epsrel=rtol, limit=_LIMIT, full_output=1
    )
    return _check(res, rtol, "open-bound quadrature failed")
