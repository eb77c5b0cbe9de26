"""Closed-form achieved rates for the two-receiver rate-splitting downlink.

Everything here conditions on the receiver being served at all: a receiver
counts as served when it decodes the common stream, or, failing that, when
its private stream survives with the common signal treated as interference.
Per receiver the served rate is assembled from

  * the common-stream term, time-shared when both receivers decode it
    (the slower of the two conditional SINRs sets the rate) and enjoyed
    alone otherwise,
  * the private-stream term after common-stream removal,
  * the fallback private-stream term with the common stream buried in
    the interference.

Which mixture applies depends on how the decode thresholds order against
the SINR support bounds; the dispatch below enumerates the four live
regimes (B1..B4) plus the dead zone (Z). A receiver whose cache holds the
other class's content ahead of time cancels that stream instead of
treating it as noise, which swaps every distribution on its side for the
cancellation variant (model.seen_kind) and raises its support bound. The
dispatch hands back the terms it used, so a report carries them as
components without evaluating them again.

The subcases at one working point differ only in their pre-logs and in
which receiver cancels, so a report is fixed by its slot (the point, the
receiver that cancels and the two pre-logs). evaluate_points builds the
reports of every slot at a point from one table of the point (_Point);
evaluate_subcase is its one-slot case. The table is this module's one memo
and lives for the process: it memoises the integral functionals and the
receiver dispatch, and hands each the table as its first argument.
asymptotic_report gives a slot's high-power limits.

An integral functional returns its closed-form value where it has one
and otherwise a request (_LogRate, _MinRate) that carries its own pieces
of the fixed piecewise G7K15 rule of quadrature.gauss_kronrod, placed by
this module, and a finish that reduces their sums to the value. The table
makes the entries a call asks for together (_fill): evaluate_points asks
for every integral of all of its slots, at all of their points, before it
makes a report, and a lone lookup is a batch of one. _integrate evaluates
the rule once per request kind, over the pieces of every request of that
kind, in blocks of _BLOCK pieces, and hands each request its slice; no
piece's value or error estimate depends on what shares its evaluation.
finish refuses a request (QuadratureError, naming its functional,
receiver, pre-log and working point) when its error estimate misses the
one fixed relative target, 1e-9. The single-receiver expectations are
closed-form over the fading: at a fixed distance the Exp(1) gain clears a
level exactly above one threshold, and integrating log(1 + SINR) by parts
against e^-h leaves the exponential integral e^x E1(x) (Abramowitz &
Stegun 5.1) and, at each end t of the range, ln(1 + t) times the coverage
at t, which the point's table holds. What is left is a smooth average over
the receiver's position (_mean_lograte), cut at each doubling of d, where
ln(1 + d^alpha) bends, and each e-fold of the fading factor. The time-shared
min-rate integrates the product of the two receivers' closed-form tails
instead, with no density, in scale coordinates on a log-s axis cut at the
e-folds of both tails (integrate_log_scaled).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import exp1

from .caching import Subcase
from .distributions import (
    SinrDist,
    coverage,
    dist_spec,
    geometry,
    power_by_exponent,
    radii,
    scale_tail_array,
    tail_parameters,
)
# not called here: bench/tracer.py hooks the name rscache.rates.pdf_s_measure
from .distributions import pdf_s_measure  # noqa: F401
from .model import (
    PowerSplit,
    ReceiverClass,
    SinrKind,
    SystemParams,
    prelog_factors,
    private_sinr_threshold,
    seen_kind,
    sinr_bound,
    stream_powers,
)
from .quadrature import QuadratureError, _check, gauss_kronrod


def lograte(omega: float, t: float) -> float:
    """Spectral efficiency of a stream with pre-log omega at SINR t."""
    if t <= 0.0:
        return 0.0
    return omega * math.log2(1.0 + t)


def _inv(x: float) -> float:
    """Reciprocal on [0, inf] with the conventions 1/0 = inf, 1/inf = 0."""
    if x == 0.0:
        return math.inf
    if math.isinf(x):
        return 0.0
    return 1.0 / x


def _mul(a: float, b: float) -> float:
    """Product with 0 * inf = 0 (vanishing factors win)."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _share(params: SystemParams, cls: ReceiverClass) -> float:
    """The class's part of a time-shared common stream: u to the center, 1 - u to the edge."""
    return params.u if cls is ReceiverClass.CENTER else 1.0 - params.u


def omegas(params: SystemParams, subcase: Subcase) -> tuple[float, float]:
    """(omega_c, omega_e): the pre-logs of a subcase's center and edge streams.

    The coded-cache factors are built once, and only when a stream needs
    them: index 1 (EFR) never needs a valid coded-cache geometry.
    """
    i_c, i_e = (subcase.prelog_index(cls) for cls in (ReceiverClass.CENTER, ReceiverClass.EDGE))
    if i_c == i_e == 1:
        return 1.0, 1.0
    by_index = prelog_factors(params.K, params.M, params.N).by_index
    return by_index(i_c), by_index(i_e)


#: what fixes a subcase's report, by either method: the working point, the
#: receiver that cancels (None if neither) and the pre-logs omega_c, omega_e
Slot = tuple[SystemParams, PowerSplit, ReceiverClass | None, float, float]


def slot(subcase: Subcase, params: SystemParams, split: PowerSplit) -> Slot:
    """The slot of one subcase at one working point."""
    return (params, split, subcase.iic_at, *omegas(params, subcase))


#: e-folds y = s (d^alpha - r_in^alpha) of the fading factor from the
#: inner radius; the rule cuts the radius range at each, and at every
#: doubling of the distance from 2^-2 up, where ln(1 + d^alpha) bends, and
#: drops what lies past the last e-fold (a share of about e^-48 of the mass)
_EFOLDS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0)

#: from this argument up, e^x E1(x) = int_0^inf e^-v / (x + v) dv is taken
#: as its 16-node Gauss-Laguerre sum, within 5e-16 of it there; below, from
#: scipy's exp1, whose continued fraction costs several times as much per
#: point in the range the position averages visit most
_PHI_LAGUERRE = 12.0
_LAGUERRE_NODES, _LAGUERRE_WEIGHTS = np.polynomial.laguerre.laggauss(16)


def _phi(x: np.ndarray) -> np.ndarray:
    """e^x E1(x) for x > 0, elementwise, each value from its own argument alone."""
    out = np.empty_like(x)
    near = x < _PHI_LAGUERRE
    x_near = x[near]
    out[near] = np.exp(x_near) * exp1(x_near)
    x_far = x[~near]
    # term by term, smallest first: a matrix product's sums could depend on
    # the length of the array
    far = np.zeros_like(x_far)
    for node, weight in zip(_LAGUERRE_NODES[::-1], _LAGUERRE_WEIGHTS[::-1]):
        far += weight / (x_far + node)
    out[~near] = far
    return out


def _pieces(s: float, r_in: float, r_out: float, alpha: float, in_alpha: float) -> list[float]:
    """Edges of the rule's pieces over (r_in, r_out): the doublings and the e-folds at scale s."""
    cuts = [2.0**k for k in range(-2, math.frexp(r_out)[1]) if r_in < 2.0**k < r_out]
    if s > 0.0:
        for y in _EFOLDS:
            d = (in_alpha + y / s) ** (1.0 / alpha)
            if not d < r_out:
                break
            if d > r_in:
                cuts.append(d)
    # an e-fold can land on a doubling, which must not leave a zero-width piece
    return [r_in, *sorted(set(cuts)), r_out]


def _fading_integrand(d, s, alpha, in_alpha, tau1, tau2) -> np.ndarray:
    """The E1 form's position integrand at distances d, each row at its own scale and law.

    A row with nothing interfering has tau2 = inf, where phi is exactly 0.
    """
    d_alpha = power_by_exponent(d, alpha)
    big_d = 1.0 + d_alpha
    with np.errstate(over="ignore"):  # an inf product is exact: phi(inf) = 0
        out = _phi(big_d * (s + tau1)) - _phi(big_d * (s + tau2))
    # times d of the position density 2 d / area; the 2 and the area are in weight
    return out * (np.exp(-s * (d_alpha - in_alpha)) * d)


@dataclass(eq=False)
class _LogRate:
    """What a _mean_lograte still needs: its position pieces' G7K15 sums, then finish.

    parts are (edges, columns) as _fading_integrand takes them, one per
    finite end scale; weights are their pieces' factors and ends the end
    terms ln(1 + t) P(t) at lo and, if its scale is finite, hi.
    """

    cls: ReceiverClass
    omega: float
    lo: float
    hi: float
    norm: float
    parts: list[tuple[list[float], tuple[float, ...]]]
    weights: np.ndarray
    ends: tuple[float, ...]

    @property
    def receiver(self) -> str:
        return f"{self.cls.value} receiver"

    def finish(self, pieces: tuple[np.ndarray, np.ndarray]) -> float:
        """The mean rate from its pieces' integrals and error estimates.

        The end terms are added, and the sum is checked and clamped.
        """
        values, errors = pieces
        sizes = np.abs(self.weights)
        integral = float(values @ self.weights)
        error = float(errors @ sizes)
        size = float(values @ sizes)
        for edge, sign in zip(self.ends, (1.0, -1.0)):
            integral += sign * edge
            size += edge
        # the error is held to the size of the terms: their difference can
        # cancel (see _mean_lograte), and then it is rounding, not the rule,
        # that errs
        omega, norm = self.omega, self.norm
        scale = omega / math.log(2.0)
        _check(scale * size, scale * error, "position-averaged E1 rule failed", min(norm, 1.0))
        rate = scale * integral / norm
        return min(max(rate, lograte(omega, self.lo)), lograte(omega, self.hi))


def _mean_lograte(
    point: _Point,
    kind: SinrKind,
    cls: ReceiverClass,
    iic: bool,
    omega: float,
    lo: float,
    hi: float,
    norm: float,
) -> float | _LogRate:
    """(1/norm) * integral of omega*log2(1+t) g(t) dt over (lo, min(hi, theta)).

    g is the density of the point's (kind, cls, iic) law. 0.0 where the
    range or the normaliser is empty; else the request for its one
    integral, which _integrate evaluates and _LogRate.finish turns into the
    value. Closed form over the fading, one fixed rule over the position.
    At a fixed distance d the level t is reached at the fade h = s(t) D,
    with D = 1 + d^alpha and s the scale map, so the part of the integral
    above lo is, by parts,

      ln(1 + lo) e^-s_lo D + e^-s_lo D (phi(D (s_lo + tau1)) - phi(D (s_lo + tau2)))

    with phi(x) = e^x E1(x), tau1 = sigma2/(d1 + d2), tau2 = sigma2/d2
    (inf, and no tau2 term, when nothing interferes). Over the position the
    first term is ln(1 + lo) times the coverage at lo, from the point's
    table. The second, A(s_lo) = E_d[e^-s_lo D (...)] >= 0, is the G7K15
    sum over the request's pieces; the fading factor is formed relative to
    the inner radius, e^-s D = e^-s D_in e^-y, so no node underflows before
    the coverage does. The part above a finite hi is subtracted the same way.

    The rule's error estimate must meet the fixed relative target
    quadrature.DEFAULT_RTOL (1e-9), with the absolute floor scaled by the
    normaliser, or QuadratureError is raised. The result is a mean of
    omega log2(1 + t) over (lo, hi) and is held inside that bracket: when
    hi - lo is a sliver of two near-1 coverages (high power) the
    difference of the two ends keeps no digits.
    """
    if norm < sys.float_info.min:
        # zero, or so deep in outage that the error floor would underflow
        return 0.0
    spec = point.law(kind, cls, iic)
    theta = spec.theta
    hi = min(hi, theta)
    if not hi > lo:
        return 0.0
    s_lo = spec._s(lo)
    if not math.isfinite(s_lo):
        return 0.0
    s_hi = math.inf if hi >= theta else spec._s(hi)
    params = point.params
    alpha = params.alpha
    r_in, r_out = radii(cls, params)
    *_, in_alpha, out_sq, in_sq = geometry(cls, params)
    area = out_sq - in_sq
    tau2 = spec.sigma2 / spec.d2 if spec.d2 > 0.0 else math.inf
    taus = spec.sigma2 / (spec.d1 + spec.d2), tau2
    parts, weights, ends = [], [], []
    for t, s, sign in ((lo, s_lo, 1.0), (hi, s_hi, -1.0)):
        if math.isinf(s):
            continue
        ends.append(math.log1p(t) * point.cover(kind, cls, iic, t))
        edges = _pieces(s, r_in, r_out, alpha, in_alpha)
        parts.append((edges, (s, alpha, in_alpha, *taus)))
        # the e^-s D_in factor over the area of the position law, and the
        # 2 of its density 2 d / area, for each of the scale's pieces
        factor = sign * math.exp(-s * (1.0 + in_alpha)) / area
        weights += [2.0 * factor] * (len(edges) - 1)
    return _LogRate(cls, omega, lo, hi, norm, parts, np.array(weights), tuple(ends))


def gap_thresholds(point: _Point, cls: ReceiverClass) -> tuple[float, float]:
    """Thresholds comparing the private decode event to the common one.

    Returns (after_common, with_interference): the private target at which
    the channel-gain threshold of the private event equals that of the
    common event at target zeta. Identical algebra covers the plain and
    cancellation variants because the bound ratio collapses either way.
    Only meaningful while zeta sits below the relevant common bound.
    """
    common_iic = sinr_bound(SinrKind.COMMON_IIC, cls, point.powers)
    r = _mul(common_iic, _inv(point.params.zeta))
    after = _inv(r - 1.0) if r > 1.0 else math.inf
    with_i = _inv(r + common_iic - 1.0) if r + common_iic > 1.0 else math.inf
    return after, with_i


def common_rate_single(point: _Point, cls: ReceiverClass, iic: bool) -> float:
    """E[log2(1 + common SINR) | it clears zeta] for one receiver, pre-log free."""
    z = point.params.zeta
    pi = point.cover(SinrKind.COMMON, cls, iic, z)
    return _mean_lograte(point, SinrKind.COMMON, cls, iic, 1.0, z, math.inf, pi)


#: e-folds y of the min-rate's two tails from where its integral starts;
#: the log-s pieces are cut at each, and the integral ends _TAIL_END
#: e-folds into the steeper tail (dropping a share of about e^-56). Between
#: cuts the pieces are at most _TAIL_WIDTH wide: on unit-wide pieces the
#: error estimate reached 5% of the 1e-9 target at analytic-roster points,
#: where half-wide ones stay under 0.1% at about the same cost
_TAIL_EFOLDS = (0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 40.0, 48.0)
_TAIL_END = 56.0
_TAIL_WIDTH = 0.5


def _tail_pieces(s_lo: float, fall_in: float, fall_out: float, partner, reach) -> list[float]:
    """Log-s edges of the min-rate's pieces: cut at both tails' e-folds, then split evenly.

    A tail at scale s is at most e^(-(s - s0) fall) times its value at s0,
    with fall = 1 + r_in^alpha of its position law. The inner tail runs at
    s; the partner at partner(s), which reach inverts (inf for a level the
    partner's scale never reaches).
    """
    level = partner(s_lo)
    cuts = [s_lo + y / fall_in for y in _TAIL_EFOLDS]
    cuts += [reach(level + y / fall_out) for y in _TAIL_EFOLDS]
    end = s_lo + _TAIL_END / fall_in
    partner_end = reach(level + _TAIL_END / fall_out)
    if s_lo < partner_end < end:
        end = partner_end
    knots = sorted({math.log(s_lo), math.log(end), *(math.log(c) for c in cuts if s_lo < c < end)})
    edges = knots[:1]
    for left, right in zip(knots[:-1], knots[1:]):
        n = math.ceil((right - left) / _TAIL_WIDTH)
        edges += [left + (right - left) * k / n for k in range(1, n)] + [right]
    return edges


def integrate_log_scaled(
    fn: Callable[[np.ndarray], np.ndarray], left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """G7K15 integrals of fn(s) ds over the pieces (e^left[i], e^right[i]) and error estimates.

    fn takes an array of scales. The rule runs on the log axis, where the
    decades of a scale-coordinate integrand become a linear one; a caller
    sums its pieces and checks the sum's error (_MinRate.finish).
    """

    def scaled(v: np.ndarray) -> np.ndarray:
        s = np.exp(v)
        return fn(s) * s

    return gauss_kronrod(scaled, left, right)


def _min_rate_integrand(s, d1, d2, sigma2, e1, cross, *tails) -> np.ndarray:
    """common_rate_both's integrand at scales s, each row under its own request's columns.

    The slope of the inner receiver's scale times its tail at s, times the
    outer tail at the partner's scale; tails holds the two laws'
    tail_parameters, inner first.
    """
    # the partner's scale, without the product e1 sigma2 in the rows where
    # it underflows (d1 s / e1 there when cross is 0)
    under = ~(e1[:, 0] * sigma2[:, 0] >= sys.float_info.min)
    if under.any():
        partner = np.empty_like(s)
        on = ~under
        partner[on] = sigma2[on] * d1[on] * s[on] / (e1[on] * sigma2[on] + cross[on] * s[on])
        partner[under] = d1[under] / (e1[under] / s[under] + cross[under] / sigma2[under])
    else:
        partner = sigma2 * d1 * s / (e1 * sigma2 + cross * s)
    # two factors, since their product underflows for a tiny sigma2
    slope = d1 / (sigma2 + (d1 + d2) * s) * (sigma2 / (sigma2 + d2 * s))
    return slope * scale_tail_array(s, *tails[:5]) * scale_tail_array(partner, *tails[5:])


@dataclass(eq=False)
class _MinRate:
    """What a common_rate_both still needs: its log-s pieces' G7K15 sums, then finish.

    Its one part is (edges, columns), the columns (d1, d2, sigma2, e1,
    cross, *inner tail, *outer tail) as _min_rate_integrand takes them.
    """

    zeta: float
    norm: float
    parts: list[tuple[list[float], tuple[float, ...]]]
    receiver = "both receivers"
    omega = 1.0

    def finish(self, pieces: tuple[np.ndarray, np.ndarray]) -> float:
        """The min-rate from its pieces' integrals and error estimates, checked."""
        values, errors = pieces
        integral = _check(
            float(values.sum()), float(errors.sum()), "log-scaled quadrature failed", self.norm
        )
        return math.log2(1.0 + self.zeta) + integral / (math.log(2.0) * self.norm)


def common_rate_both(point: _Point, iic_at: ReceiverClass | None) -> float | _MinRate:
    """E[log2(1 + min of the two common SINRs) | both clear zeta], pre-log free.

    0.0 when the normaliser is empty; else the request for its one
    integral, which _integrate evaluates and _MinRate.finish turns into the
    value. The gains are independent, so the min clears a level t with the
    product of the two tails, and integration by parts leaves one integral
    of it:

      log2(1 + zeta) + int_zeta^inf P_c(t) P_e(t) dt / (1 + t) / (ln 2 pi_c pi_e).

    It runs in the scale s of the receiver with the lower bound, where
    dt / (1 + t) = slope(s) ds: there its own tail decays exponentially as
    s -> inf and the partner's level stays inside the partner's support.
    (In the other receiver's scale the range would end at the lower bound,
    where that tail vanishes like a root of the distance.) The partner's
    scale is formed from s directly, not from the level t(s), whose
    distance to a shared bound cancels at high power.
    """
    params = point.params
    z = params.zeta
    spec_c, spec_e = (point.law(SinrKind.COMMON, cls, iic_at is cls) for cls in ReceiverClass)
    pi_c, pi_e = (point.cover(SinrKind.COMMON, cls, iic_at is cls, z) for cls in ReceiverClass)
    norm = pi_c * pi_e
    if norm < sys.float_info.min:
        # zero, or so deep in outage that the error floor would underflow
        return 0.0
    if spec_c.d1 * spec_e.d2 <= spec_e.d1 * spec_c.d2:
        inner, outer = spec_c, spec_e
    else:
        inner, outer = spec_e, spec_c
    d1, d2, sigma2, e1 = inner.d1, inner.d2, inner.sigma2, outer.d1
    # >= 0 by that choice, and exactly 0 for a partner with the same powers
    cross = e1 * d2 - outer.d2 * d1

    def partner(s: float) -> float:
        # _min_rate_integrand's partner scale at one s
        if e1 * sigma2 >= sys.float_info.min:
            return sigma2 * d1 * s / (e1 * sigma2 + cross * s)
        return d1 / (e1 / s + cross / sigma2)

    def reach(level: float) -> float:
        # partner's inverse; its scale saturates at sigma2 d1 / cross
        den = sigma2 * d1 - cross * level
        return e1 * sigma2 * level / den if den > 0.0 else math.inf

    # a scale that underflows to 0 (sigma2 zeta / d1 below the least float,
    # say zeta = 1e-300 at P = 1e30) starts the log axis at the least float, where
    # the integrand vanishes like s
    s_lo = max(inner._s(z), math.ulp(0.0))
    tails = tail_parameters(inner, params), tail_parameters(outer, params)
    # tail_parameters end in r_in^alpha; a tail's fall is 1 + r_in^alpha
    edges = _tail_pieces(s_lo, *(1.0 + tail[4] for tail in tails), partner, reach)
    return _MinRate(z, norm, [(edges, (d1, d2, sigma2, e1, cross, *tails[0], *tails[1]))])


def common_stream_rate(
    point: _Point, cls: ReceiverClass, omega: float, iic_at: ReceiverClass | None
) -> float:
    """Common-stream contribution for one receiver, given it decodes.

    With probability that the other receiver also decodes, the stream is
    time-shared (fraction u to the center class) at the min SINR;
    otherwise this receiver gets the full slot at its own SINR.
    """
    params = point.params
    pi_other = point.cover(SinrKind.COMMON, cls.other, iic_at is cls.other, params.zeta)
    both = point.at(common_rate_both, iic_at)
    alone = point.at(common_rate_single, cls, iic_at is cls)
    return omega * (pi_other * _share(params, cls) * both + (1.0 - pi_other) * alone)


def private_rate_after_common(
    point: _Point, cls: ReceiverClass, omega: float, iic: bool
) -> float:
    """Private-stream rate when the common stream was decoded and removed.

    Conditioning depends on whether the private decode event is implied by
    the common one: if the private threshold sits at or above the
    equal-gain point, condition on the private event itself; below it,
    the common event is the binding one and the integral starts there.
    """
    params = point.params
    if point.powers.own(cls) == 0.0:
        return 0.0
    z = params.zeta
    if not z < point.law(SinrKind.COMMON, cls, iic).theta:
        return 0.0
    xi_t = private_sinr_threshold(omega, params.xi)
    bound = point.law(SinrKind.PRIVATE, cls, iic).theta
    if xi_t >= bound:
        return 0.0
    after, _ = point.at(gap_thresholds, cls)
    if xi_t >= after:
        norm = point.cover(SinrKind.PRIVATE, cls, iic, xi_t)
        return _mean_lograte(point, SinrKind.PRIVATE, cls, iic, omega, xi_t, bound, norm)
    norm = point.cover(SinrKind.COMMON, cls, iic, z)
    return _mean_lograte(point, SinrKind.PRIVATE, cls, iic, omega, after, bound, norm)


def private_rate_with_interference(
    point: _Point, cls: ReceiverClass, omega: float, iic: bool
) -> float:
    """Private-stream rate with the common stream left in the interference.

    Above the common bound this is the only way the receiver is ever
    served. Below it the conditioning carves out the gap where the private
    stream survives but the common decode failed.
    """
    params = point.params
    if point.powers.own(cls) == 0.0:
        return 0.0
    z = params.zeta
    xi_t = private_sinr_threshold(omega, params.xi)
    bound = point.law(SinrKind.PRIVATE_INTERF, cls, iic).theta
    if z >= point.law(SinrKind.COMMON, cls, iic).theta:
        # at or above the ceiling the common decode never happens, so the
        # interference route carries the whole conditioning
        if xi_t >= bound:
            return 0.0
        norm = point.cover(SinrKind.PRIVATE_INTERF, cls, iic, xi_t)
        return _mean_lograte(point, SinrKind.PRIVATE_INTERF, cls, iic, omega, xi_t, bound, norm)
    _, with_i = point.at(gap_thresholds, cls)
    if not xi_t < with_i:
        return 0.0
    norm = point.cover(SinrKind.PRIVATE_INTERF, cls, iic, xi_t)
    norm -= point.cover(SinrKind.COMMON, cls, iic, z)
    if norm <= 0.0:
        return 0.0
    return _mean_lograte(point, SinrKind.PRIVATE_INTERF, cls, iic, omega, xi_t, with_i, norm)


@dataclass(frozen=True)
class ReceiverRate:
    """Served rate of one receiver, its regime tag and serving probability.

    rs0, rp and rpi are the common-stream, private and interference-route
    terms the rate was assembled from; a term the branch does not use is
    zero, which is also what its functional gives there.
    """

    rate: float
    q: float
    branch: str
    rs0: float = 0.0
    rp: float = 0.0
    rpi: float = 0.0


class _Point:
    """One working point's table, each entry made on first use; made and kept by _point.

    The stream powers, each (SINR kind, class, cancels) law and (law, threshold) coverage,
    and, through at or _fill, each value of a function of the table by its own further
    arguments: the gap thresholds (class), the four integral functionals (class, omega,
    cancels) and the receiver dispatch (class, omega, iic_at). The table is the module's one
    memo and lives for the process.
    """

    def __init__(self, params: SystemParams, split: PowerSplit) -> None:
        self.params = params
        self.split = split
        self.powers = stream_powers(params.P, split)
        self._made: dict[tuple, object] = {}

    def _once(self, key: tuple, make: Callable, *args):  # no entry is None
        made = self._made.get(key)
        if made is None:
            made = self._made[key] = make(*args)
        return made

    def law(self, kind: SinrKind, cls: ReceiverClass, iic: bool) -> SinrDist:
        args = seen_kind(kind, iic), cls, self.powers, self.params
        return self._once(("law", kind, cls, iic), dist_spec, *args)

    def cover(self, kind: SinrKind, cls: ReceiverClass, iic: bool, t: float) -> float:
        return self._once(("cover", kind, cls, iic, t), self._cover, kind, cls, iic, t)

    def _cover(self, kind: SinrKind, cls: ReceiverClass, iic: bool, t: float) -> float:
        # the module's coverage, looked up at each call, so a hook on it sees every miss
        return coverage(self.law(kind, cls, iic), t, self.params)

    def at(self, fn: Callable, *args):
        # fn(self, *args), made as a batch of one; callers pass the module's
        # name for fn, looked up at each call, so a hook on it sees every miss
        key = (fn, *args)
        made = self._made.get(key)
        if made is None:
            _fill([(self, key)])
            made = self._made[key]
        return made


#: pieces per evaluation of an integrand in _integrate: bounds a batch's
#: temporaries at a few hundred KB however many integrals share it
_BLOCK = 256


def _integrate(requests: Sequence[_LogRate | _MinRate]) -> list:
    """What each request's finish takes, in order: its pieces' (values, errors).

    The requests of a kind share one evaluation of their rule over all of
    their parts' pieces, _BLOCK pieces a call. A part is (edges, columns):
    its pieces lie between consecutive edges, and the integrand gets a
    block's nodes and each column as a (pieces, 1) array, so each piece is
    integrated under its own part's parameters.
    """
    done = {}
    for kind, rule, integrand in (
        (_LogRate, gauss_kronrod, _fading_integrand),
        (_MinRate, integrate_log_scaled, _min_rate_integrand),
    ):
        own = [request for request in requests if isinstance(request, kind)]
        left, right, counts, columns, ends = [], [], [], [], []
        for request in own:
            for edges, row in request.parts:
                left += edges[:-1]
                right += edges[1:]
                counts.append(len(edges) - 1)
                columns.append(row)
            ends.append(len(left))
        if not left:
            continue
        left, right = np.array(left), np.array(right)
        columns = np.repeat(np.array(columns), counts, axis=0).T
        pieces = []
        for start in range(0, len(left), _BLOCK):
            block = slice(start, start + _BLOCK)
            args = [column[block, None] for column in columns]
            pieces.append(rule(lambda x, args=args: integrand(x, *args), left[block], right[block]))
        values, errors = (np.concatenate(each) for each in zip(*pieces))
        for request, start, end in zip(own, [0, *ends], ends):
            done[request] = values[start:end], errors[start:end]
    return [done[request] for request in requests]


def _fill(wanted: Iterable[tuple[_Point, tuple]]) -> None:
    """Make each (table, key) entry that its table lacks; the key (fn, *args) is fn(table, *args).

    The integrals that the new entries' functionals ask for are evaluated
    together (_integrate), then each is finished into its entry. A failure
    names the functional, receiver, pre-log and working point.
    """
    asked: dict[tuple[_Point, tuple], object] = {}
    for point, key in wanted:
        if key not in point._made and (point, key) not in asked:
            fn, *args = key
            asked[point, key] = fn(point, *args)
    requests = []
    for (point, key), made in asked.items():
        if isinstance(made, (_LogRate, _MinRate)):
            requests.append((point, key, made))
        else:
            point._made[key] = made
    if not requests:
        return
    for (point, key, request), raw in zip(requests, _integrate([r for *_, r in requests])):
        try:
            point._made[key] = request.finish(raw)
        except QuadratureError as err:
            split, name = point.split, key[0].__name__
            where = f"beta={split.beta:g}, rho={split.rho:g}, P={point.params.P:g}"
            raise QuadratureError(
                f"{name} ({request.receiver}, pre-log {request.omega:g}) at {where}: {err}"
            ) from None


@lru_cache(maxsize=256)  # a table holds about 12 KB
def _point(params: SystemParams, split: PowerSplit) -> _Point:
    """The table of one working point, built on first use and kept for the process."""
    return _Point(params, split)


def achieved_rate(
    point: _Point, cls: ReceiverClass, omega: float, iic_at: ReceiverClass | None
) -> ReceiverRate:
    """Served rate of one receiver under the regime dispatch.

    ``iic_at`` marks which receiver (if any) cancels the other class's
    stream from cache. When it is this receiver, every distribution on its
    side switches to the cancellation variant; when it is the other one,
    only the time-sharing term feels it (through the partner's decode
    probability and min-SINR law).
    """
    params = point.params
    z = params.zeta
    xi_t = private_sinr_threshold(omega, params.xi)
    iic = iic_at is cls
    if z < point.law(SinrKind.COMMON, cls, iic).theta:
        after, with_i = point.at(gap_thresholds, cls)
        pi_0 = point.cover(SinrKind.COMMON, cls, iic, z)
        rs0 = common_stream_rate(point, cls, omega, iic_at)
        rp = point.at(private_rate_after_common, cls, omega, iic)
        if xi_t <= with_i:
            pi_pif = point.cover(SinrKind.PRIVATE_INTERF, cls, iic, xi_t)
            rpi = point.at(private_rate_with_interference, cls, omega, iic)
            ratio = _clamp01(pi_0 / pi_pif) if pi_pif > 0.0 else 0.0
            rate = ratio * (rs0 + rp) + (1.0 - ratio) * rpi
            return ReceiverRate(rate, pi_pif, "B3", rs0, rp, rpi)
        if xi_t < after:
            return ReceiverRate(rs0 + rp, pi_0, "B2", rs0, rp)
        pi_p = point.cover(SinrKind.PRIVATE, cls, iic, xi_t)
        ratio = _clamp01(pi_p / pi_0) if pi_0 > 0.0 else 0.0
        return ReceiverRate(rs0 + ratio * rp, pi_0, "B1", rs0, rp)

    if xi_t < point.law(SinrKind.PRIVATE_INTERF, cls, iic).theta:
        rpi = point.at(private_rate_with_interference, cls, omega, iic)
        pi_pif = point.cover(SinrKind.PRIVATE_INTERF, cls, iic, xi_t)
        return ReceiverRate(rpi, pi_pif, "B4", rpi=rpi)
    return ReceiverRate(0.0, 0.0, "Z")


def sum_rate(center: ReceiverRate, edge: ReceiverRate) -> float:
    """Long-run throughput over slots where at least one receiver is served."""
    denom = center.q + edge.q - center.q * edge.q
    if denom <= 0.0:
        return 0.0
    return (center.q * center.rate + edge.q * edge.rate) / denom


@dataclass(frozen=True)
class RateComponents:
    """Conditional building blocks behind the served rates.

    r0_both is the min-SINR common rate given both receivers decode;
    r0_*_only the single-receiver common rates given only that receiver
    decodes; rs0_* the pre-log-weighted common-stream contributions; rp_*
    and rpi_* the private rates with the common stream decoded and not.
    """

    r0_both: float = 0.0
    r0_center_only: float = 0.0
    r0_edge_only: float = 0.0
    rs0_center: float = 0.0
    rs0_edge: float = 0.0
    rp_center: float = 0.0
    rp_edge: float = 0.0
    rpi_center: float = 0.0
    rpi_edge: float = 0.0


@dataclass(frozen=True)
class RateReport:
    """Evaluation of one subcase: per-receiver served rates and the sum.

    ``component_stderr`` mirrors ``components`` field by field; both are
    all zero unless the method estimated them.
    """

    r_center: float
    r_edge: float
    r_sum: float
    q_center: float
    q_edge: float
    method: str
    branch_center: str = ""
    branch_edge: str = ""
    stderr_center: float = 0.0
    stderr_edge: float = 0.0
    stderr_sum: float = 0.0
    components: RateComponents = RateComponents()
    component_stderr: RateComponents = RateComponents()


def evaluate_points(slots: Sequence[Slot]) -> list[RateReport]:
    """The closed-form report of every slot, in order.

    Slots at one working point build their reports from one table of the
    point (_Point). Every integral any slot reads is evaluated in one pass
    (_fill) before the first report is made: whatever a receiver's branch,
    its report reads the common rates and both private functionals, and a
    functional its branch does not use gives 0 without integrating.
    """
    points, wanted = [], []
    for params, split, iic_at, w_c, w_e in slots:
        point = _point(params, split)
        points.append(point)
        wanted.append((point, (common_rate_both, iic_at)))
        for cls, omega in zip(ReceiverClass, (w_c, w_e)):
            iic = iic_at is cls
            wanted += [
                (point, (common_rate_single, cls, iic)),
                (point, (private_rate_after_common, cls, omega, iic)),
                (point, (private_rate_with_interference, cls, omega, iic)),
            ]
    _fill(wanted)
    reports = []
    for point, (_, _, iic_at, w_c, w_e) in zip(points, slots):
        center = point.at(achieved_rate, ReceiverClass.CENTER, w_c, iic_at)
        edge = point.at(achieved_rate, ReceiverClass.EDGE, w_e, iic_at)
        parts = RateComponents(
            point.at(common_rate_both, iic_at),
            *(point.at(common_rate_single, cls, iic_at is cls) for cls in ReceiverClass),
            center.rs0, edge.rs0, center.rp, edge.rp, center.rpi, edge.rpi,
        )
        reports.append(RateReport(
            center.rate, edge.rate, sum_rate(center, edge), center.q, edge.q, "analytic",
            center.branch, edge.branch, components=parts,
        ))
    return reports


def evaluate_subcase(subcase: Subcase, params: SystemParams, split: PowerSplit) -> RateReport:
    """Closed-form evaluation of one served configuration (evaluate_points of its slot)."""
    return evaluate_points([slot(subcase, params, split)])[0]


def asymptotic_rate(
    params: SystemParams,
    split: PowerSplit,
    cls: ReceiverClass,
    omega: float,
    iic_at: ReceiverClass | None = None,
) -> float:
    """High-power limit of the served rate (noise-free SINR bounds).

    With cancellation at this receiver the private stream sees no
    interference at all, so its rate grows without bound whenever the
    common stream stays decodable; everything else saturates.
    """
    powers = stream_powers(params.P, split)
    iic = iic_at is cls

    def bound(kind: SinrKind) -> float:
        return sinr_bound(seen_kind(kind, iic), cls, powers)

    z = params.zeta
    xi_t = private_sinr_threshold(omega, params.xi)
    common = bound(SinrKind.COMMON)
    if z < common:
        if iic:
            return math.inf
        rate = _share(params, cls) * lograte(omega, common)
        private = bound(SinrKind.PRIVATE)
        if xi_t < private:
            rate += lograte(omega, private)
        return rate
    private_interf = bound(SinrKind.PRIVATE_INTERF)
    if xi_t < private_interf:
        return lograte(omega, private_interf)
    return 0.0


def asymptotic_report(key: Slot) -> RateReport:
    """High-power limits of one slot; infinities pass through the sum."""
    params, split, iic_at, w_c, w_e = key
    r_c = asymptotic_rate(params, split, ReceiverClass.CENTER, w_c, iic_at)
    r_e = asymptotic_rate(params, split, ReceiverClass.EDGE, w_e, iic_at)
    return RateReport(
        r_center=r_c,
        r_edge=r_e,
        r_sum=r_c + r_e,
        q_center=math.nan,
        q_edge=math.nan,
        method="asymptotic",
    )
