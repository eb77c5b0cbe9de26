"""Closed-form SINR distributions over fading and receiver position.

Every SINR kind eta seen by a receiver has the shape
eta = num / (den + sigma2 / L) with L = h (1 + d^alpha)^-1, h ~ Exp(1),
so the coverage probability P[eta > t] reduces to E_d[exp(-s (1 + d^alpha))]
with a single scale s(t) = sigma2 t / (d1 - d2 t), where d1 is the stream
power and d2 collects the interfering powers. The position average has a
closed form in the lower incomplete gamma for both geometries:

  disk of radius r_c      2 e^-s gamma(a, s r_c^alpha) / (alpha r_c^2 s^a)
  annulus (r_e, r_0)      same structure with the gamma evaluated at both
                          radii and divided by r_0^2 - r_e^2

with a = 2/alpha. The density is the (negative) t-derivative of the
coverage; it is implemented in closed form and checked in the tests against
a central-difference derivative of the coverage, which is the authoritative
orientation reference (the density factor 1/(t (theta t - 1)) sometimes
quoted for this model has the wrong sign/scale and is replaced here by the
correct ds/dt chain factor).

In scale coordinates the density is 2 e^-s B(s) / (alpha R^2 s), with R^2
the area normaliser and B the radius bracket (s + a) gamma(a, x) / s^a -
r^2 e^-x at x = s r^alpha. The annulus takes the bracket at r_0 minus the
bracket at r_e. Once x_in = s r_e^alpha reaches a + 1 both brackets are
about (s + a) Gamma(a) / s^a and their difference would cancel to rounding
noise, so there the difference is taken inside the gamma instead:

  (s + a) Gamma(a) [P(a, x_out) - P(a, x_in)] / s^a
      - (r_0^2 e^-x_out - r_e^2 e^-x_in)

with the P difference formed from the upper tails (incgamma.reg_lower_diff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .incgamma import reg_lower, reg_lower_diff
from .model import PowerSplit, ReceiverClass, SinrKind, StreamPowers, SystemParams

# exp(-s) underflows to zero past this point; coverage and density are then
# far below anything observable and are clamped to exactly zero.
_EXP_UNDERFLOW = 745.0


@dataclass(frozen=True)
class SinrDist:
    """Distribution of one SINR kind at one receiver class.

    The scale map is s(t) = sigma2 * t / (d1 - d2 * t); the distribution has
    support (0, theta) with theta = d1/d2 (infinite when nothing interferes).
    """

    kind: SinrKind
    cls: ReceiverClass
    d1: float
    d2: float
    sigma2: float

    @property
    def theta(self) -> float:
        if self.d2 == 0.0:
            return math.inf
        if self.d1 == 0.0:
            return 0.0
        return self.d1 / self.d2

    def _s(self, t: float) -> float:
        den = self.d1 - self.d2 * t
        if den <= 0.0:
            return math.inf
        return self.sigma2 * t / den

    def _s_prime(self, t: float) -> float:
        den = self.d1 - self.d2 * t
        if den <= 0.0 or self.d1 == 0.0:
            return math.inf
        return self.sigma2 * self.d1 / (den * den)


def dist_spec(
    kind: SinrKind,
    cls: ReceiverClass,
    powers: StreamPowers,
    params: SystemParams,
) -> SinrDist:
    """Build the distribution of a SINR kind from the stream powers."""
    pn = powers.own(cls)
    pk = powers.other(cls)
    p0 = powers.p0
    if kind is SinrKind.COMMON:
        d1, d2 = p0, pn + pk
    elif kind is SinrKind.PRIVATE:
        d1, d2 = pn, pk
    elif kind is SinrKind.PRIVATE_INTERF:
        d1, d2 = pn, p0 + pk
    elif kind is SinrKind.COMMON_IIC:
        d1, d2 = p0, pn
    elif kind is SinrKind.PRIVATE_IIC:
        d1, d2 = pn, 0.0
    else:  # PRIVATE_INTERF_IIC
        d1, d2 = pn, p0
    return SinrDist(kind=kind, cls=cls, d1=d1, d2=d2, sigma2=params.sigma2)


def coverage_tail(spec: SinrDist, params: SystemParams) -> Callable[[float], float]:
    """P[eta > t] for the positioned receiver, as t -> P; see coverage.

    The support bound theta, the scale map's d1, d2 and sigma2 and the
    receiver geometry (a = 2/alpha, Gamma(a), r^alpha and the area
    normaliser) are bound here once, so an integrand that asks for the
    tail at every quadrature point pays for them once.
    """
    theta = spec.theta
    d1, d2, sigma2 = spec.d1, spec.d2, spec.sigma2
    alpha = params.alpha
    a = 2.0 / alpha
    gamma_a = math.gamma(a)
    annulus = spec.cls is ReceiverClass.EDGE
    if annulus:
        r_out, r_in = params.r_0, params.r_e
        norm = alpha * (r_out * r_out - r_in * r_in)
    else:
        r_out, r_in = params.r_c, 0.0
        norm = alpha * r_out * r_out
    out_alpha, in_alpha = r_out**alpha, r_in**alpha

    def tail(t: float) -> float:
        if t <= 0.0:
            return 1.0
        if t >= theta:
            return 0.0
        # spec._s(t) inline; a nonpositive denominator means s = inf
        den = d1 - d2 * t
        if den <= 0.0:
            return 0.0
        s = sigma2 * t / den
        if not math.isfinite(s) or s > _EXP_UNDERFLOW:
            return 0.0
        if annulus:
            p = reg_lower_diff(a, s * in_alpha, s * out_alpha)
        else:
            p = reg_lower(a, s * out_alpha)
        val = 2.0 * math.exp(-s) * gamma_a * p / (norm * s**a)
        return min(max(val, 0.0), 1.0)

    return tail


def coverage(spec: SinrDist, t: float, params: SystemParams) -> float:
    """P[eta > t] for the positioned receiver, exactly zero for t >= theta."""
    return coverage_tail(spec, params)(t)


def _pdf_bracket(a: float, s: float, x: float, r2: float, gamma_a: float) -> float:
    """s^-a (s + a) gamma(a, x) - r^2 e^-x, the radius term of the density.

    r2 is the squared radius with x = s r^alpha, gamma_a is Gamma(a). For
    small x the two parts nearly cancel; the difference is expanded as an
    all-positive series r^2 e^-x (s/a + (s+a) sum_k>=1 x^k / prod(a+j)).
    """
    if x < a + 1.0:
        term = 1.0 / a
        total = 0.0
        for k in range(1, 600):
            term *= x / (a + k)
            total += term
            if term < (total + 1e-30) * 1e-17:
                break
        return r2 * math.exp(-x) * (s / a + (s + a) * total)
    gamma_part = gamma_a * reg_lower(a, x)
    return (s + a) * gamma_part / s**a - r2 * math.exp(-x)


def scale_measure(spec: SinrDist, params: SystemParams) -> Callable[[float], float]:
    """Density of the SINR pushed forward to scale coordinates, as s -> m(s).

    m(s) ds = g(t) dt under t = level_of_s(s); the chain factor ds/dt
    cancels, leaving the bare exponential-decay shape. Integrating rate
    functionals in s avoids both the density spike at the support bound
    and the precision loss of d1 - d2 t near it.

    Everything that depends only on the receiver geometry (a = 2/alpha,
    r^alpha, r^2, Gamma(a) and the area normaliser) is bound here once, so
    a quadrature that evaluates m thousands of times pays for it once.

    For the annulus with x_in = s r_e^alpha >= a + 1 the two radius
    brackets are subtracted inside the gamma (the upper-regime form in the
    module docstring); below a + 1 their plain difference keeps its digits.
    """
    alpha = params.alpha
    a = 2.0 / alpha
    gamma_a = math.gamma(a)
    annulus = spec.cls is ReceiverClass.EDGE
    if annulus:
        r_out, r_in = params.r_0, params.r_e
        norm = alpha * (r_out * r_out - r_in * r_in)
    else:
        r_out, r_in = params.r_c, 0.0
        norm = alpha * r_out * r_out
    out_alpha, out_sq = r_out**alpha, r_out * r_out
    in_alpha, in_sq = r_in**alpha, r_in * r_in

    def measure(s: float) -> float:
        # past the underflow point, and off (0, inf), the density is zero
        if not 0.0 < s <= _EXP_UNDERFLOW:
            return 0.0
        x_out, x_in = s * out_alpha, s * in_alpha
        if annulus and x_in >= a + 1.0:
            # both brackets are ~ (s+a) Gamma(a) / s^a here and their
            # difference would cancel; subtract inside the gamma instead
            bracket = (s + a) * gamma_a * reg_lower_diff(a, x_in, x_out) / s**a - (
                out_sq * math.exp(-x_out) - in_sq * math.exp(-x_in)
            )
        else:
            bracket = _pdf_bracket(a, s, x_out, out_sq, gamma_a)
            if annulus:
                bracket = bracket - _pdf_bracket(a, s, x_in, in_sq, gamma_a)
        return max(2.0 * math.exp(-s) * bracket / (norm * s), 0.0)

    return measure


def pdf(spec: SinrDist, t: float, params: SystemParams) -> float:
    """Density of the SINR at level t (zero outside the open support)."""
    if t <= 0.0 or t >= spec.theta:
        return 0.0
    return scale_measure(spec, params)(spec._s(t)) * spec._s_prime(t)


def level_of_s(spec: SinrDist, s: float) -> float:
    """Inverse of the scale map: the SINR level whose threshold scale is s.

    t(s) = d1 s / (sigma2 + d2 s) involves no cancellation, so levels
    arbitrarily close to the support bound are produced exactly; s = inf
    maps to the bound itself.
    """
    if s <= 0.0:
        return 0.0
    if math.isinf(s):
        return spec.theta
    return spec.d1 * s / (spec.sigma2 + spec.d2 * s)


def pdf_s_measure(spec: SinrDist, s: float, params: SystemParams) -> float:
    """One value of the scale-coordinate density; see scale_measure."""
    return scale_measure(spec, params)(s)


def outage_region(
    kind: SinrKind, cls: ReceiverClass, t: float, split: PowerSplit
) -> bool:
    """True iff the coverage of this kind is identically zero at level t.

    Direct power-split inequalities, equivalent to t >= theta for the
    bounded kinds. The cache-cancelled private stream has no SINR ceiling,
    so its coverage vanishes only when its own power allocation is zero.
    """
    if t <= 0.0:
        raise ValueError("SINR level must be positive")
    beta, rho = split.beta, split.rho
    if cls is ReceiverClass.CENTER:
        if kind is SinrKind.COMMON:
            return beta <= t / (1.0 + t)
        if kind is SinrKind.PRIVATE:
            return rho <= t / (1.0 + t)
        if kind is SinrKind.PRIVATE_INTERF:
            if beta > 1.0 / (1.0 + t):
                return True
            return rho <= -t / (beta * t + beta - t - 1.0)
        if kind is SinrKind.COMMON_IIC:
            return beta <= rho * t / (1.0 + rho * t)
        if kind is SinrKind.PRIVATE_IIC:
            return (1.0 - beta) * rho == 0.0
        # PRIVATE_INTERF_IIC
        if rho == 0.0:
            return beta > 0.0
        return beta >= rho / (rho + t)
    else:
        if kind is SinrKind.COMMON:
            return beta <= t / (1.0 + t)
        if kind is SinrKind.PRIVATE:
            return rho >= 1.0 / (1.0 + t)
        if kind is SinrKind.PRIVATE_INTERF:
            if beta > 1.0 / (1.0 + t):
                return True
            return rho >= (beta * t + beta - 1.0) / (beta * t + beta - t - 1.0)
        if kind is SinrKind.COMMON_IIC:
            return beta <= (rho * t - t) / (rho * t - t - 1.0)
        if kind is SinrKind.PRIVATE_IIC:
            return (1.0 - beta) * (1.0 - rho) == 0.0
        # PRIVATE_INTERF_IIC
        if rho == 1.0:
            return beta > 0.0
        return beta >= (rho - 1.0) / (rho - t - 1.0)
