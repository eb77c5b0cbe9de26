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

with a = 2/alpha. Below x_out = s r_out^alpha = 2^-55 the average of
e^(-s d^alpha) lies in [e^-x_out, 1], which rounds to 1, so the coverage is
e^-s there. The density is the (negative) t-derivative of the
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

import numpy as np
from scipy.special import gammainc, gammaincc

from .incgamma import reg_lower, reg_lower_diff
from .model import ReceiverClass, SinrKind, StreamPowers, SystemParams, _ratio, sinr_powers

# exp(-s) underflows to zero past this point; coverage and density are then
# far below anything observable and are clamped to exactly zero.
_EXP_UNDERFLOW = 745.0

# below this x_out = s r_out^alpha the tail is e^-s (module docstring)
_FLAT_POSITION = 2.0**-55


@dataclass(frozen=True)
class SinrDist:
    """Distribution of one SINR kind at one receiver class.

    d1 and d2 are the kind's signal and interference powers (model's SINR
    table). The scale map is s(t) = sigma2 * t / (d1 - d2 * t); the
    distribution has support (0, theta) with theta = d1/d2, the kind's
    noise-free bound (infinite when nothing interferes).
    """

    kind: SinrKind
    cls: ReceiverClass
    d1: float
    d2: float
    sigma2: float

    @property
    def theta(self) -> float:
        return _ratio(self.d1, self.d2)

    def _s(self, t: float) -> float:
        den = self.d1 - self.d2 * t
        if den <= 0.0:
            return math.inf
        return self.sigma2 * t / den


def dist_spec(
    kind: SinrKind,
    cls: ReceiverClass,
    powers: StreamPowers,
    params: SystemParams,
) -> SinrDist:
    """Build the distribution of a SINR kind from the stream powers."""
    d1, d2 = sinr_powers(kind, cls, powers)
    return SinrDist(kind=kind, cls=cls, d1=d1, d2=d2, sigma2=params.sigma2)


def radii(cls: ReceiverClass, params: SystemParams) -> tuple[float, float]:
    """(r_in, r_out) of the receiver's position law: the edge ring or the centre disk."""
    if cls is ReceiverClass.EDGE:
        return params.r_e, params.r_0
    return 0.0, params.r_c


def geometry(
    cls: ReceiverClass, params: SystemParams
) -> tuple[float, float, bool, float, float, float, float, float]:
    """Position-average constants of one receiver class.

    (a, Gamma(a), annulus, norm, r_out^alpha, r_in^alpha, r_out^2, r_in^2)
    with a = 2/alpha, annulus true for the edge class's ring (r_in = 0 for
    the center disk) and norm = alpha (r_out^2 - r_in^2).
    """
    alpha = params.alpha
    a = 2.0 / alpha
    annulus = cls is ReceiverClass.EDGE
    r_in, r_out = radii(cls, params)
    norm = alpha * (r_out * r_out - r_in * r_in) if annulus else alpha * r_out * r_out
    return (
        a, math.gamma(a), annulus, norm,
        r_out**alpha, r_in**alpha, r_out * r_out, r_in * r_in,
    )


def tail_at(spec: SinrDist, s: float, params: SystemParams) -> float:
    """The coverage at scale s, E_d[exp(-s (1 + d^alpha))]; see coverage.

    Past the underflow point, and at s = inf or NaN, it is 0; below
    s r_out^alpha = 2^-55 it is e^-s (module docstring), so 1 at s = 0.
    """
    a, gamma_a, annulus, norm, out_alpha, in_alpha, _, _ = geometry(spec.cls, params)
    if not s <= _EXP_UNDERFLOW:
        return 0.0
    if s * out_alpha < _FLAT_POSITION:
        return math.exp(-s)
    if annulus:
        p = reg_lower_diff(a, s * in_alpha, s * out_alpha)
    else:
        p = reg_lower(a, s * out_alpha)
    val = 2.0 * math.exp(-s) * gamma_a * p / (norm * s**a)
    return min(max(val, 0.0), 1.0)


def tail_parameters(spec: SinrDist, params: SystemParams) -> tuple[float, ...]:
    """(a, Gamma(a), norm, r_out^alpha, r_in^alpha) of the spec's position law (geometry).

    What scale_tail_array takes of a law, as one row's columns; the centre
    disk has r_in^alpha = 0.
    """
    a, gamma_a, _, norm, out_alpha, in_alpha, _, _ = geometry(spec.cls, params)
    return a, gamma_a, norm, out_alpha, in_alpha


def power_by_exponent(x: np.ndarray, e: np.ndarray | float) -> np.ndarray:
    """x ** e, elementwise over their broadcast, each element as a scalar exponent gives it.

    A scalar exponent of 0.5 (a = 2/alpha at alpha = 4) is numpy's sqrt and
    an array of exponents is pow, which can differ in the last bit; so each
    distinct exponent is applied as a scalar to the elements it goes with.
    """
    e = np.asarray(e)
    first = float(e.flat[0])
    if (e == first).all():
        return x**first
    x, e = np.broadcast_arrays(x, e)
    out = np.empty(x.shape)
    for value in np.unique(e):
        at = e == value
        out[at] = x[at] ** float(value)
    return out


def scale_tail_array(s: np.ndarray, a, gamma_a, norm, out_alpha, in_alpha) -> np.ndarray:
    """tail_at on an array of scales, each under the law whose tail_parameters broadcast to it.

    Given as (rows, 1) columns against (rows, nodes) scales, the parameters
    put each row under its own law, so one evaluation serves the laws of
    many integrals; given as numbers, one law. The same arithmetic as
    tail_at on the incomplete gamma ufuncs, with the annulus's Q - Q
    difference past x_in = a + 1 (incgamma.reg_lower_diff); the disk's
    x_in is 0, where the P - P form is P(a, x_out) exactly.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_out = s * out_alpha
        x_in = s * in_alpha
        low = x_in < a + 1.0
        high = ~low
        each_a = np.broadcast_to(a, s.shape)
        p = np.empty(s.shape)
        p[low] = gammainc(each_a[low], x_out[low]) - gammainc(each_a[low], x_in[low])
        p[high] = gammaincc(each_a[high], x_in[high]) - gammaincc(each_a[high], x_out[high])
        decay = np.exp(-s)
        val = np.clip(2.0 * decay * gamma_a * p / (norm * power_by_exponent(s, a)), 0.0, 1.0)
    return np.where(s <= _EXP_UNDERFLOW, np.where(x_out < _FLAT_POSITION, decay, val), 0.0)


def coverage(spec: SinrDist, t: float, params: SystemParams) -> float:
    """P[eta > t] for the positioned receiver, exactly zero for t >= theta."""
    if t <= 0.0:
        return 1.0
    if t >= spec.theta:
        return 0.0
    return tail_at(spec, spec._s(t), params)


def _pdf_bracket(a: float, s: float, x: float, r2: float, gamma_a: float) -> float:
    """s^-a (s + a) gamma(a, x) - r^2 e^-x, the radius term of the density.

    r2 is the squared radius with x = s r^alpha, gamma_a is Gamma(a). For
    small x the two parts nearly cancel. Since r^2 = x^a / s^a and
    gamma(a + 1, x) = a gamma(a, x) - x^a e^-x, the difference is the
    all-positive Gamma(a) (s P(a, x) + a P(a + 1, x)) / s^a, used there.
    """
    if x < a + 1.0:
        return gamma_a * (s * reg_lower(a, x) + a * reg_lower(a + 1.0, x)) / s**a
    gamma_part = gamma_a * reg_lower(a, x)
    return (s + a) * gamma_part / s**a - r2 * math.exp(-x)


def scale_measure(spec: SinrDist, params: SystemParams) -> Callable[[float], float]:
    """Density of the SINR pushed forward to scale coordinates, as s -> m(s).

    m(s) ds = g(t) dt under t = d1 s / (sigma2 + d2 s); the chain factor ds/dt
    cancels, leaving the bare exponential-decay shape. Integrating rate
    functionals in s avoids both the density spike at the support bound
    and the precision loss of d1 - d2 t near it.

    The receiver geometry is bound here once, so a quadrature
    that evaluates m thousands of times pays for it once.

    For the annulus with x_in = s r_e^alpha >= a + 1 the two radius
    brackets are subtracted inside the gamma (the upper-regime form in the
    module docstring); below a + 1 their plain difference keeps its digits.
    """
    a, gamma_a, annulus, norm, out_alpha, in_alpha, out_sq, in_sq = geometry(spec.cls, params)

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


def pdf_s_measure(spec: SinrDist, s: float, params: SystemParams) -> float:
    """One value of the scale-coordinate density; see scale_measure."""
    return scale_measure(spec, params)(s)
