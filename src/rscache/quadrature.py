"""Adaptive quadrature wrapper for integrals of SINR functionals.

All achieved-rate expressions reduce to integrals of smooth integrands over
(lo, hi) where hi is either a finite support endpoint or infinite. They
are taken in logarithmic coordinates, where the decades an SINR measure
spans become a linear axis that QUADPACK resolves.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy import integrate

DEFAULT_RTOL = 1e-9
#: a roundoff warning with the error bound below this fraction of the
#: conditioning probability is still a success: deep-outage tails sit near
#: the double-precision underflow boundary where the relative target is
#: unattainable. Rates are these integrals divided by that probability, so
#: the floor is scaled by it (``scale``) and bounds the rate's own error
_ABS_TOL = 1e-15
_LIMIT = 200


class QuadratureError(RuntimeError):
    """An integral failed to converge to the requested tolerance."""


def _check(result, rtol: float, message: str, scale: float = 1.0) -> float:
    value, abserr = result[0], result[1]
    if len(result) > 3 and abserr > max(rtol * abs(value), _ABS_TOL * scale):
        raise QuadratureError(f"{message}: {result[3]}")
    if not math.isfinite(value):
        raise QuadratureError(f"{message}: non-finite value {value}")
    return value


def integrate_log_scaled(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    rtol: float = DEFAULT_RTOL,
    scale: float = 1.0,
) -> float:
    """Integrate fn over (lo, hi), 0 < lo, in logarithmic coordinates.

    The right tool when fn mixes power-law stretches with an exponential
    cutoff across many decades (scale-coordinate SINR measures do): the
    decades become a linear axis and the quadrature sees a tame shape.
    ``scale`` is the probability the result will be divided by; the
    absolute error floor shrinks with it.
    """
    if hi <= lo:
        return 0.0
    if lo <= 0.0:
        raise ValueError("log-scaled integration needs a positive lower limit")

    log_lo = math.log(lo)

    def scaled(v: float) -> float:
        log_s = log_lo + v
        if log_s > 709.0:
            return 0.0
        s = math.exp(log_s)
        val = fn(s)
        if val == 0.0:
            return 0.0
        return val * s

    span = math.inf if math.isinf(hi) else math.log(hi / lo)
    res = integrate.quad(
        scaled, 0.0, span, epsabs=0.0, epsrel=rtol, limit=_LIMIT, full_output=1
    )
    return _check(res, rtol, "log-scaled quadrature failed", scale)
