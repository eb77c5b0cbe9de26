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
The density is one function of a law and a scale, pdf_s_measure, with no
closure bound per law: each law carries its position constants, which
dist_spec computes once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

from .incgamma import reg_lower, reg_lower_diff
from .model import ReceiverClass, SinrKind, StreamPowers, SystemParams, _ratio, sinr_powers

# exp(-s) underflows to zero past this point; coverage and density are then
# far below anything observable and are clamped to exactly zero.
_EXP_UNDERFLOW = 745.0

# below this x_out = s r_out^alpha the tail is e^-s (module docstring)
_FLAT_POSITION = 2.0**-55


# hashed by value, but not frozen: a law is built for each working point,
# and a frozen init of its 14 fields costs about ten times a plain one
@dataclass(slots=True, unsafe_hash=True)
class SinrDist:
    """Distribution of one SINR kind at one receiver class, over that class's position law.

    d1 and d2 are the kind's signal and interference powers (model's SINR
    table). The scale map is s(t) = sigma2 * t / (d1 - d2 * t); the
    distribution has support (0, theta) with theta = d1/d2, the kind's
    noise-free bound (infinite when nothing interferes).

    The position law is uniform over the edge ring (r_in, r_out) or the
    centre disk (r_in = 0) at path-loss exponent alpha; a = 2/alpha, gamma_a
    = Gamma(a), norm = alpha (r_out^2 - r_in^2) and out_alpha, in_alpha are
    r_out^alpha, r_in^alpha. tail holds (a, gamma_a, norm, out_alpha,
    in_alpha), the columns scale_tail_array takes of a law.
    """

    kind: SinrKind
    cls: ReceiverClass
    d1: float
    d2: float
    sigma2: float
    alpha: float
    r_in: float
    r_out: float
    a: float
    gamma_a: float
    norm: float
    out_alpha: float
    in_alpha: float
    tail: tuple[float, float, float, float, float]

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
    """Build the distribution of a SINR kind from the stream powers and its class's position law."""
    d1, d2 = sinr_powers(kind, cls, powers)
    alpha = params.alpha
    if cls is ReceiverClass.EDGE:
        r_in, r_out = params.r_e, params.r_0
        norm = alpha * (r_out * r_out - r_in * r_in)
    else:
        r_in, r_out = 0.0, params.r_c
        norm = alpha * r_out * r_out
    a = 2.0 / alpha
    tail = (a, math.gamma(a), norm, r_out**alpha, r_in**alpha)
    return SinrDist(kind, cls, d1, d2, params.sigma2, alpha, r_in, r_out, *tail, tail)


def tail_at(spec: SinrDist, s: float) -> float:
    """The coverage at scale s, E_d[exp(-s (1 + d^alpha))]; see coverage.

    Past the underflow point, and at s = inf or NaN, it is 0; below
    s r_out^alpha = 2^-55 it is e^-s (module docstring), so 1 at s = 0.
    """
    if not s <= _EXP_UNDERFLOW:
        return 0.0
    a, x_out = spec.a, s * spec.out_alpha
    if x_out < _FLAT_POSITION:
        return math.exp(-s)
    if spec.cls is ReceiverClass.EDGE:
        p = reg_lower_diff(a, s * spec.in_alpha, x_out)
    else:
        p = reg_lower(a, x_out)
    val = 2.0 * math.exp(-s) * spec.gamma_a * p / (spec.norm * s**a)
    return min(max(val, 0.0), 1.0)


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
    """tail_at on an array of scales, each under the law whose tail columns broadcast to it.

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


def coverage(spec: SinrDist, t: float) -> float:
    """P[eta > t] for the positioned receiver, exactly zero for t >= theta."""
    if t <= 0.0:
        return 1.0
    if t >= spec.theta:
        return 0.0
    return tail_at(spec, spec._s(t))


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


def pdf_s_measure(spec: SinrDist, s: float) -> float:
    """Density of the SINR pushed forward to scale coordinates, at scale s.

    m(s) ds = g(t) dt under t = d1 s / (sigma2 + d2 s); the chain factor ds/dt
    cancels, leaving the bare exponential-decay shape. Integrating rate
    functionals in s avoids both the density spike at the support bound
    and the precision loss of d1 - d2 t near it.

    For the annulus with x_in = s r_e^alpha >= a + 1 the two radius
    brackets are subtracted inside the gamma (the upper-regime form in the
    module docstring); below a + 1 their plain difference keeps its digits.
    """
    # past the underflow point, and off (0, inf), the density is zero
    if not 0.0 < s <= _EXP_UNDERFLOW:
        return 0.0
    a, gamma_a = spec.a, spec.gamma_a
    out_sq, in_sq = spec.r_out * spec.r_out, spec.r_in * spec.r_in
    annulus = spec.cls is ReceiverClass.EDGE
    x_out, x_in = s * spec.out_alpha, s * spec.in_alpha
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
    return max(2.0 * math.exp(-s) * bracket / (spec.norm * s), 0.0)
