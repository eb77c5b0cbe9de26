"""Fixed piecewise Gauss–Kronrod quadrature for integrals of SINR functionals.

All achieved-rate expressions reduce to smooth integrals whose shape the
caller knows in advance: where the integrand bends, and how many e-folds
its exponential factors fall over. The caller cuts the range into pieces
at those places and the G7K15 rule (QUADPACK's QK15, Piessens et al. 1983)
takes every piece in one numpy evaluation of the integrand. The pieces of
many integrals can share that evaluation; each piece's sums depend on its
own nodes alone, so sharing changes no bit. There is no refinement: the
rule's error estimate, the difference between its 15-point Kronrod and
embedded 7-point Gauss sums, either meets the relative target
DEFAULT_RTOL or the result is refused with a QuadratureError (_check).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

#: the relative target every rate integral's error estimate must meet
DEFAULT_RTOL = 1e-9
#: an error estimate below this fraction of the conditioning probability is
#: still a success: deep-outage tails sit near the double-precision
#: underflow boundary where the relative target is unattainable. Rates are
#: these integrals divided by that probability, so the floor is scaled by
#: it (``scale``) and bounds the rate's own error
_ABS_TOL = 1e-15

# G7K15 on [-1, 1]: the Kronrod abscissae and weights, positive half with
# the centre last, and the weights of the embedded 7-point Gauss rule,
# whose nodes are every second Kronrod one (x1, x3, x5 and the centre)
_XK15 = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WK15 = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG7 = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
_NODES = np.array([-x for x in _XK15[:-1]] + list(_XK15[::-1]))
_K15 = np.array(_WK15[:-1] + _WK15[::-1])
_G7 = np.zeros(15)
_G7[1::2] = _WG7[:-1] + _WG7[::-1]
# K15 minus G7: the |sum| of a piece's values times these, times its
# half-width, is the piece's error estimate
_K15_G7 = _K15 - _G7


class QuadratureError(RuntimeError):
    """An integral failed to converge to the requested tolerance."""


def gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray], left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """G7K15 integrals of f over the pieces (left[i], right[i]) and their error estimates.

    f is called once, on the (pieces, 15) array of nodes, and returns its
    values there; row i of the nodes spans piece i. The rates hand it the
    pieces of every integral a call of theirs still needs, in blocks of a
    fixed size (rates._BLOCK). Each error estimate is |K15 - G7| on its
    piece. Both sums reduce a piece's own row in a fixed order, so neither
    a value nor an error estimate, nor a verdict of _check on them, depends
    on which other pieces share the call.
    """
    left, right = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
    if not np.all(left < right) or not np.all(np.isfinite(right - left)):
        raise ValueError("quadrature pieces need finite limits with left < right")
    half = 0.5 * (right - left)
    values = f((left + half)[:, None] + half[:, None] * _NODES)
    return (values * _K15).sum(axis=1) * half, np.abs((values * _K15_G7).sum(axis=1)) * half


def _check(value: float, abserr: float, message: str, scale: float = 1.0) -> float:
    """value, unless not finite or abserr misses DEFAULT_RTOL (read per call) and the floor."""
    if not math.isfinite(value):
        raise QuadratureError(f"{message}: non-finite value {value}")
    if not abserr <= max(DEFAULT_RTOL * abs(value), _ABS_TOL * scale):
        raise QuadratureError(f"{message}: error estimate {abserr:.3g} over the tolerance")
    return value
