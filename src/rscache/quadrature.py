"""Adaptive Gauss–Kronrod quadrature for integrals of SINR functionals.

All achieved-rate expressions reduce to integrals of smooth integrands over
(lo, hi) where hi is either a finite support endpoint or infinite. They
are taken in logarithmic coordinates, where the decades an SINR measure
spans become a linear axis.

The integrator is globally adaptive: a 21-point Kronrod rule with its
embedded 10-point Gauss rule gives each interval an integral and an error
estimate, and the interval with the largest error is bisected until the
errors sum to the relative target. The error estimate, the roundoff tests
and the map of an infinite range onto (0, 1] follow QUADPACK's QAG and QAGI
(Piessens et al. 1983); QAGS's extrapolation is left out, since the
log-axis integrands have no endpoint singularity for it to accelerate.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable

DEFAULT_RTOL = 1e-9
#: a roundoff warning with the error bound below this fraction of the
#: conditioning probability is still a success: deep-outage tails sit near
#: the double-precision underflow boundary where the relative target is
#: unattainable. Rates are these integrals divided by that probability, so
#: the floor is scaled by it (``scale``) and bounds the rate's own error
_ABS_TOL = 1e-15
_LIMIT = 200

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min

# Kronrod abscissae on [-1, 1] (positive half, the centre last); the odd
# entries are the 10-point Gauss abscissae. Weights as in QUADPACK's QK21.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208686299251,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


class QuadratureError(RuntimeError):
    """An integral failed to converge to the requested tolerance."""


def _gk21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float, float]:
    """(integral, error estimate, integral of |f|, integral of |f - mean|) on (a, b).

    Written out node by node: as a loop over the node pairs it costs
    CPython about a third more per rule, which showed in the sweep times.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, _ = _XGK
    w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, wc = _WGK
    g1, g3, g5, g7, g9 = _WG
    fc = f(centr)
    d = hlgth * x0
    l0, r0 = f(centr - d), f(centr + d)
    d = hlgth * x1
    l1, r1 = f(centr - d), f(centr + d)
    d = hlgth * x2
    l2, r2 = f(centr - d), f(centr + d)
    d = hlgth * x3
    l3, r3 = f(centr - d), f(centr + d)
    d = hlgth * x4
    l4, r4 = f(centr - d), f(centr + d)
    d = hlgth * x5
    l5, r5 = f(centr - d), f(centr + d)
    d = hlgth * x6
    l6, r6 = f(centr - d), f(centr + d)
    d = hlgth * x7
    l7, r7 = f(centr - d), f(centr + d)
    d = hlgth * x8
    l8, r8 = f(centr - d), f(centr + d)
    d = hlgth * x9
    l9, r9 = f(centr - d), f(centr + d)
    s1, s3, s5, s7, s9 = l1 + r1, l3 + r3, l5 + r5, l7 + r7, l9 + r9
    resg = g1 * s1 + g3 * s3 + g5 * s5 + g7 * s7 + g9 * s9
    resk = (
        wc * fc + w0 * (l0 + r0) + w1 * s1 + w2 * (l2 + r2) + w3 * s3 + w4 * (l4 + r4)
        + w5 * s5 + w6 * (l6 + r6) + w7 * s7 + w8 * (l8 + r8) + w9 * s9
    )
    resabs = (
        wc * abs(fc) + w0 * (abs(l0) + abs(r0)) + w1 * (abs(l1) + abs(r1))
        + w2 * (abs(l2) + abs(r2)) + w3 * (abs(l3) + abs(r3)) + w4 * (abs(l4) + abs(r4))
        + w5 * (abs(l5) + abs(r5)) + w6 * (abs(l6) + abs(r6)) + w7 * (abs(l7) + abs(r7))
        + w8 * (abs(l8) + abs(r8)) + w9 * (abs(l9) + abs(r9))
    )
    m = 0.5 * resk
    resasc = (
        wc * abs(fc - m) + w0 * (abs(l0 - m) + abs(r0 - m)) + w1 * (abs(l1 - m) + abs(r1 - m))
        + w2 * (abs(l2 - m) + abs(r2 - m)) + w3 * (abs(l3 - m) + abs(r3 - m))
        + w4 * (abs(l4 - m) + abs(r4 - m)) + w5 * (abs(l5 - m) + abs(r5 - m))
        + w6 * (abs(l6 - m) + abs(r6 - m)) + w7 * (abs(l7 - m) + abs(r7 - m))
        + w8 * (abs(l8 - m) + abs(r8 - m)) + w9 * (abs(l9 - m) + abs(r9 - m))
    )
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs *= dhlgth
    resasc *= dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        abserr = max(50.0 * _EPS * resabs, abserr)
    return result, abserr, resabs, resasc


_ROUNDOFF = "roundoff error prevents the requested tolerance"


def _totals(heap: list) -> tuple[float, float]:
    """Exactly rounded (integral, error) sums over the heap's intervals."""
    return math.fsum(item[3] for item in heap), math.fsum(-item[0] for item in heap)


def _adapt(
    f: Callable[[float], float], a: float, b: float, rtol: float
) -> tuple[float, float, str]:
    """Globally adaptive G10K21 integral of f over (a, b), a < b finite.

    Returns (value, error estimate, failure), where failure is empty when
    the estimate met rtol and names the reason the bisection stopped
    otherwise (QAG's roundoff test or the subdivision limit).
    """
    result, abserr, resabs, resasc = _gk21(f, a, b)
    if abserr == 0.0 or (abserr <= rtol * abs(result) and abserr != resasc):
        return result, abserr, ""
    if abserr <= 50.0 * _EPS * resabs:
        return result, abserr, _ROUNDOFF
    # max-heap on the error: (-error, left, right, integral)
    heap = [(-abserr, a, b, result)]
    area, errsum = result, abserr
    iroff1 = iroff2 = 0
    while True:
        neg_err, left, right, value = heap[0]
        mid = 0.5 * (left + right)
        area1, error1, _, defab1 = _gk21(f, left, mid)
        area2, error2, _, defab2 = _gk21(f, mid, right)
        area12 = area1 + area2
        erro12 = error1 + error2
        errmax = -neg_err
        errsum = errsum - errmax + erro12
        area = area - value + area12
        if defab1 != error1 and defab2 != error2:
            if abs(value - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                iroff1 += 1
            if len(heap) > 10 and erro12 > errmax:
                iroff2 += 1
        heapq.heapreplace(heap, (-error1, left, mid, area1))
        heapq.heappush(heap, (-error2, mid, right, area2))
        if errsum <= rtol * abs(area):
            # the running sums lose what is tiny beside the interval just
            # split; confirm convergence on exact sums before stopping
            area, errsum = _totals(heap)
            if errsum <= rtol * abs(area):
                return area, errsum, ""
        if iroff1 >= 6 or iroff2 >= 20:
            return (*_totals(heap), _ROUNDOFF)
        if len(heap) >= _LIMIT:
            return (*_totals(heap), f"the {_LIMIT}-interval subdivision limit was reached")


def _check(
    value: float, abserr: float, failure: str, rtol: float, message: str, scale: float = 1.0
) -> float:
    if failure and abserr > max(rtol * abs(value), _ABS_TOL * scale):
        raise QuadratureError(f"{message}: {failure}")
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
    An infinite hi maps the log axis v in (0, inf) onto t in (0, 1] by
    v = (1 - t) / t, as QUADPACK's QAGI does. ``scale`` is the probability
    the result will be divided by; the absolute error floor shrinks with it.
    """
    if hi <= lo:
        return 0.0
    if lo <= 0.0:
        raise ValueError("log-scaled integration needs a positive lower limit")

    log_lo = math.log(lo)

    exp = math.exp

    def scaled(v: float) -> float:
        log_s = log_lo + v
        if log_s > 709.0:
            return 0.0
        s = exp(log_s)
        return fn(s) * s

    def mapped(t: float) -> float:
        # scaled((1 - t) / t) / t^2, written out to save a call per node
        log_s = log_lo + (1.0 - t) / t
        if log_s > 709.0:
            return 0.0
        s = exp(log_s)
        return fn(s) * s / t / t

    if math.isinf(hi):
        res = _adapt(mapped, 0.0, 1.0, rtol)
    else:
        res = _adapt(scaled, 0.0, math.log(hi / lo), rtol)
    return _check(*res, rtol, "log-scaled quadrature failed", scale)
