"""Independent reference for the served probability of one receiver.

A receiver is served when it decodes the common stream or, failing that,
its private stream with the common stream left in the interference. For a
receiver at distance d with fade h ~ Exp(1), each of the two events is
h > c_x (1 + d^alpha) for a constant c_x read off the SINR definitions, so

    P[served] = E_d[exp(-c (1 + d^alpha))],  c = min(c_common, c_private),

a one-dimensional integral over the disk or the annulus. It is evaluated
with mpmath and shares no code with the package: the pre-log factors,
thresholds and stream powers are re-derived here from the parameters.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath

STOCK = dict(
    P=10.0, sigma2=1e-5, alpha=4.0, r_c=50.0, r_e=60.0, r_0=70.0,
    K=5, M=30, N=50, zeta=0.5, xi=1.0,
)


def prelog(technique: str, K: int, M: int, N: int) -> float:
    """Pre-log factor of a delivery technique (efr, pfr or xor)."""
    kept = 1.0 - M / N
    return {"efr": 1.0, "pfr": 1.0 / kept, "xor": (1.0 + M * K / N) / kept}[technique]


def _scale(signal: float, interference: float, target: float, sigma2: float) -> float:
    # signal h g / (interference h g + sigma2) > target, g = 1 / (1 + d^alpha),
    # holds iff h > target sigma2 (1 + d^alpha) / (signal - target interference)
    margin = signal - target * interference
    return target * sigma2 / margin if margin > 0.0 else math.inf


def served_scale(
    center: bool, iic: bool, P: float, beta: float, rho: float,
    omega: float, zeta: float, xi: float, sigma2: float,
) -> float:
    """The constant c of the served event h > c (1 + d^alpha)."""
    p0 = beta * P
    pc = rho * (1.0 - beta) * P
    pe = (1.0 - rho) * (1.0 - beta) * P
    own, other = (pc, pe) if center else (pe, pc)
    xi_t = (1.0 + xi) ** (1.0 / omega) - 1.0
    if iic:  # the other class's private stream is cancelled from cache
        common = _scale(p0, own, zeta, sigma2)
        private = _scale(own, p0, xi_t, sigma2)
    else:
        common = _scale(p0, own + other, zeta, sigma2)
        private = _scale(own, p0 + other, xi_t, sigma2)
    return min(common, private)


@lru_cache(maxsize=None)
def served_probability(c: float, r_in: float, r_out: float, alpha: float) -> float:
    """E[exp(-c (1 + d^alpha))] for d uniform over the ring r_in <= d <= r_out.

    r_in = 0 gives the disk. The area element is uniform in v = d^2.
    """
    if math.isinf(c):
        return 0.0
    with mpmath.workdps(30):
        c_mp = mpmath.mpf(c)
        half = mpmath.mpf(alpha) / 2
        v_lo, v_hi = mpmath.mpf(r_in) ** 2, mpmath.mpf(r_out) ** 2
        # split where c v^(alpha/2) crosses 1, 10, 100, so the quadrature
        # resolves the decay however steep it is
        cuts = [v_lo]
        for level in (1, 10, 100):
            v = (level / c_mp) ** (1 / half) if c > 0.0 else v_hi
            if v_lo < v < v_hi:
                cuts.append(v)
        cuts.append(v_hi)
        total = mpmath.quad(lambda v: mpmath.exp(-c_mp * (1 + v**half)), cuts)
        return float(total / (v_hi - v_lo))
