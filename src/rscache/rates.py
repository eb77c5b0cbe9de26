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
which receiver cancels, so evaluate_point builds all of their reports from
one table of the point (_Point); evaluate_subcase is its one-subcase case.

Every integral runs on the one fixed piecewise G7K15 rule of
quadrature.gauss_kronrod, in one numpy evaluation, and is refused
(QuadratureError) when its error estimate misses the one fixed relative
target, 1e-9; this module places the pieces. The single-receiver
expectations are closed-form over the fading: at a fixed distance the
Exp(1) gain clears a level exactly above one threshold, and integrating
log(1 + SINR) by parts against e^-h leaves the exponential integral
e^x E1(x) (Abramowitz & Stegun 5.1). What is left is a smooth average over
the receiver's position (_mean_lograte), cut at each doubling of d, where
ln(1 + d^alpha) bends, and each e-fold of the fading factor. The time-shared
min-rate integrates the product of the two receivers' closed-form tails
instead, with no density, in scale coordinates on a log-s axis cut at the
e-folds of both tails (integrate_log_scaled). The four integral functionals
are memoised for the life of the process: the table lives for one call, and
these caches are what shares a point's integrals between sweeps of
different caching modes run one mode at a time. The common-stream term is
plain arithmetic over two of them and is not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import exp1

from .caching import Subcase
from .distributions import SinrDist, coverage, dist_spec, radii, scale_tail, scale_tail_array
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
from .quadrature import _check, gauss_kronrod


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
    """e^x E1(x) for x > 0, elementwise."""
    out = np.empty_like(x)
    near = x < _PHI_LAGUERRE
    x_near = x[near]
    out[near] = np.exp(x_near) * exp1(x_near)
    far = ~near
    out[far] = (1.0 / (x[far][:, None] + _LAGUERRE_NODES)) @ _LAGUERRE_WEIGHTS
    return out


def _pieces(s: float, r_in: float, r_out: float, alpha: float) -> list[float]:
    """Edges of the rule's pieces over (r_in, r_out): the doublings and the e-folds at scale s."""
    cuts = [2.0**k for k in range(-2, math.frexp(r_out)[1]) if r_in < 2.0**k < r_out]
    if s > 0.0:
        in_alpha = r_in**alpha
        for y in _EFOLDS:
            d = (in_alpha + y / s) ** (1.0 / alpha)
            if not d < r_out:
                break
            if d > r_in:
                cuts.append(d)
    # an e-fold can land on a doubling, which must not leave a zero-width piece
    return [r_in, *sorted(set(cuts)), r_out]


def _fading_average(
    spec: SinrDist, params: SystemParams, s_lo: float, s_hi: float
) -> tuple[float, float, float]:
    """A(s_lo) - A(s_hi), its error estimate and A(s_lo) + A(s_hi).

    A(s) = E_d[e^-sD (phi(D (s + tau1)) - phi(D (s + tau2)))] >= 0, with
    D = 1 + d^alpha, tau1 = sigma2 / (d1 + d2), tau2 = sigma2 / d2 (no tau2
    term when nothing interferes), phi(x) = e^x E1(x) and A(inf) = 0. One
    G7K15 evaluation over the pieces of both scales; the fading factor is
    formed relative to the inner radius, e^-s D = e^-s D_in e^-y, so no
    node underflows before the coverage does.
    """
    alpha = params.alpha
    r_in, r_out = radii(spec.cls, params)
    in_alpha = r_in**alpha
    area = r_out * r_out - r_in * r_in
    rows = []
    for s, sign in ((s_lo, 1.0), (s_hi, -1.0)):
        if math.isinf(s):
            continue
        edges = _pieces(s, r_in, r_out, alpha)
        # the e^-s D_in factor over the area of the position law
        factor = sign * math.exp(-s * (1.0 + in_alpha)) / area
        rows += [(left, right, s, factor) for left, right in zip(edges[:-1], edges[1:])]
    left, right, s, factor = np.array(rows).T
    s = s[:, None]
    taus = [spec.sigma2 / (spec.d1 + spec.d2)]
    if spec.d2 > 0.0:
        taus.append(spec.sigma2 / spec.d2)
    taus = np.array(taus)[:, None, None]

    def f(d: np.ndarray) -> np.ndarray:
        d_alpha = d**alpha
        with np.errstate(over="ignore"):  # an inf product is exact: phi(inf) = 0
            phi = _phi((1.0 + d_alpha) * (s + taus))
        out = phi[0] - phi[1] if len(taus) == 2 else phi[0]
        # times d of the position density 2 d / area; the 2 and the area are in weight
        return out * (np.exp(-s * (d_alpha - in_alpha)) * d)

    pieces, errors = gauss_kronrod(f, left, right)
    weight = 2.0 * factor
    size = np.abs(weight)
    return float(pieces @ weight), float(errors @ size), float(pieces @ size)


def _mean_lograte(
    spec: SinrDist,
    omega: float,
    lo: float,
    hi: float,
    norm: float,
    params: SystemParams,
) -> float:
    """(1/norm) * integral of omega*log2(1+t) g(t) dt over (lo, min(hi, theta)).

    Closed form over the fading, one fixed rule over the position. At a
    fixed distance d the level t is reached at the fade h = s(t) D, with
    D = 1 + d^alpha and s the scale map, so the part of the integral above
    lo is, by parts,

      ln(1 + lo) e^-s_lo D + e^-s_lo D (phi(D (s_lo + tau1)) - phi(D (s_lo + tau2)))

    with phi(x) = e^x E1(x), tau1 = sigma2/(d1 + d2), tau2 = sigma2/d2. Over
    the position the first term is ln(1 + lo) times the closed-form tail at
    s_lo; the second is _fading_average's G7K15 sum. The part above a finite
    hi is subtracted the same way.

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
    theta = spec.theta
    hi = min(hi, theta)
    if not hi > lo:
        return 0.0
    s_lo = spec._s(lo)
    if not math.isfinite(s_lo):
        return 0.0
    s_hi = math.inf if hi >= theta else spec._s(hi)
    tail = scale_tail(spec, params)
    integral, error, size = _fading_average(spec, params, s_lo, s_hi)
    edge = math.log1p(lo) * tail(s_lo)
    integral += edge
    size += edge
    if math.isfinite(s_hi):
        edge = math.log1p(hi) * tail(s_hi)
        integral -= edge
        size += edge
    # the error is held to the size of the terms: their difference can
    # cancel (see below), and then it is rounding, not the rule, that errs
    scale = omega / math.log(2.0)
    _check(scale * size, scale * error, "position-averaged E1 rule failed", min(norm, 1.0))
    rate = scale * integral / norm
    return min(max(rate, lograte(omega, lo)), lograte(omega, hi))


def gap_thresholds(params: SystemParams, split: PowerSplit, cls: ReceiverClass) -> tuple[float, float]:
    """Thresholds comparing the private decode event to the common one.

    Returns (after_common, with_interference): the private target at which
    the channel-gain threshold of the private event equals that of the
    common event at target zeta. Identical algebra covers the plain and
    cancellation variants because the bound ratio collapses either way.
    Only meaningful while zeta sits below the relevant common bound.
    """
    common_iic = sinr_bound(SinrKind.COMMON_IIC, cls, stream_powers(params.P, split))
    r = _mul(common_iic, _inv(params.zeta))
    after = _inv(r - 1.0) if r > 1.0 else math.inf
    with_i = _inv(r + common_iic - 1.0) if r + common_iic > 1.0 else math.inf
    return after, with_i


@lru_cache(maxsize=4096)
def common_rate_single(
    params: SystemParams,
    split: PowerSplit,
    cls: ReceiverClass,
    iic: bool,
) -> float:
    """E[log2(1 + common SINR) | it clears zeta] for one receiver, pre-log free."""
    powers = stream_powers(params.P, split)
    spec = dist_spec(seen_kind(SinrKind.COMMON, iic), cls, powers, params)
    pi = coverage(spec, params.zeta, params)
    return _mean_lograte(spec, 1.0, params.zeta, spec.theta, pi, params)


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
    fn: Callable[[np.ndarray], np.ndarray],
    edges: list[float],
    scale: float = 1.0,
) -> float:
    """Integral of fn(s) ds over (e^edges[0], e^edges[-1]), a G7K15 piece per two log-s edges.

    fn takes an array of scales. On the log axis the decades of a
    scale-coordinate integrand become a linear one. The error estimate
    must meet quadrature.DEFAULT_RTOL (1e-9) or the scaled floor: ``scale``
    is the probability the result will be divided by, and the floor
    shrinks with it.
    """
    edges = np.asarray(edges)

    def scaled(v: np.ndarray) -> np.ndarray:
        s = np.exp(v)
        return fn(s) * s

    pieces, errors = gauss_kronrod(scaled, edges[:-1], edges[1:])
    return _check(
        float(pieces.sum()), float(errors.sum()), "log-scaled quadrature failed", scale
    )


@lru_cache(maxsize=4096)
def common_rate_both(
    params: SystemParams, split: PowerSplit, iic_at: ReceiverClass | None
) -> float:
    """E[log2(1 + min of the two common SINRs) | both clear zeta], pre-log free.

    The gains are independent, so the min clears a level t with the product
    of the two tails, and integration by parts leaves one integral of it:

      log2(1 + zeta) + int_zeta^inf P_c(t) P_e(t) dt / (1 + t) / (ln 2 pi_c pi_e).

    It runs in the scale s of the receiver with the lower bound, where
    dt / (1 + t) = slope(s) ds: there its own tail decays exponentially as
    s -> inf and the partner's level stays inside the partner's support.
    (In the other receiver's scale the range would end at the lower bound,
    where that tail vanishes like a root of the distance.) The partner's
    scale is formed from s directly, not from the level t(s), whose
    distance to a shared bound cancels at high power.
    """
    z = params.zeta
    powers = stream_powers(params.P, split)
    spec_c, spec_e = (
        dist_spec(seen_kind(SinrKind.COMMON, iic_at is cls), cls, powers, params)
        for cls in (ReceiverClass.CENTER, ReceiverClass.EDGE)
    )
    pi_c, pi_e = coverage(spec_c, z, params), coverage(spec_e, z, params)
    norm = pi_c * pi_e
    if norm < sys.float_info.min:
        # zero, or so deep in outage that the error floor would underflow
        return 0.0
    if spec_c.d1 * spec_e.d2 <= spec_e.d1 * spec_c.d2:
        inner, outer = spec_c, spec_e
    else:
        inner, outer = spec_e, spec_c
    tail_in, tail_out = scale_tail_array(inner, params), scale_tail_array(outer, params)
    d1, d2, sigma2, e1 = inner.d1, inner.d2, inner.sigma2, outer.d1
    # >= 0 by that choice, and exactly 0 for a partner with the same powers
    cross = e1 * d2 - outer.d2 * d1

    def partner(s):
        if e1 * sigma2 >= sys.float_info.min:
            return sigma2 * d1 * s / (e1 * sigma2 + cross * s)
        # the same ratio without the underflowing product; d1 s / e1 when
        # cross is 0
        return d1 / (e1 / s + cross / sigma2)

    def reach(level: float) -> float:
        # partner's inverse; its scale saturates at sigma2 d1 / cross
        den = sigma2 * d1 - cross * level
        return e1 * sigma2 * level / den if den > 0.0 else math.inf

    def integrand(s: np.ndarray) -> np.ndarray:
        # two factors, since their product underflows for a tiny sigma2
        slope = d1 / (sigma2 + (d1 + d2) * s) * (sigma2 / (sigma2 + d2 * s))
        return slope * tail_in(s) * tail_out(partner(s))

    # a scale that underflows to 0 (a subnormal sigma2) starts the log axis
    # at the least float, where the integrand vanishes like s
    s_lo = max(inner._s(z), math.ulp(0.0))
    falls = (1.0 + radii(spec.cls, params)[0] ** params.alpha for spec in (inner, outer))
    edges = _tail_pieces(s_lo, *falls, partner, reach)
    integral = integrate_log_scaled(integrand, edges, scale=norm)
    return math.log2(1.0 + z) + integral / (math.log(2.0) * norm)


def common_stream_rate(
    params: SystemParams,
    split: PowerSplit,
    cls: ReceiverClass,
    omega: float,
    iic_at: ReceiverClass | None,
    point: _Point | None = None,
) -> float:
    """Common-stream contribution for one receiver, given it decodes.

    With probability that the other receiver also decodes, the stream is
    time-shared (fraction u to the center class) at the min SINR;
    otherwise this receiver gets the full slot at its own SINR. ``point``
    is the point's table, if any.
    """
    point = point or _Point(params, split)
    pi_other = point.cover(SinrKind.COMMON, cls.other, iic_at is cls.other, params.zeta)
    both = point.both(iic_at)
    alone = point.single(cls, iic_at is cls)
    return omega * (pi_other * _share(params, cls) * both + (1.0 - pi_other) * alone)


@lru_cache(maxsize=8192)
def private_rate_after_common(
    params: SystemParams,
    split: PowerSplit,
    cls: ReceiverClass,
    omega: float,
    iic: bool,
) -> float:
    """Private-stream rate when the common stream was decoded and removed.

    Conditioning depends on whether the private decode event is implied by
    the common one: if the private threshold sits at or above the
    equal-gain point, condition on the private event itself; below it,
    the common event is the binding one and the integral starts there.
    """
    powers = stream_powers(params.P, split)
    if powers.own(cls) == 0.0:
        return 0.0
    z = params.zeta
    spec0 = dist_spec(seen_kind(SinrKind.COMMON, iic), cls, powers, params)
    if not z < spec0.theta:
        return 0.0
    xi_t = private_sinr_threshold(omega, params.xi)
    spec = dist_spec(seen_kind(SinrKind.PRIVATE, iic), cls, powers, params)
    bound = spec.theta
    if xi_t >= bound:
        return 0.0
    after, _ = gap_thresholds(params, split, cls)
    if xi_t >= after:
        norm = coverage(spec, xi_t, params)
        return _mean_lograte(spec, omega, xi_t, bound, norm, params)
    norm = coverage(spec0, z, params)
    return _mean_lograte(spec, omega, after, bound, norm, params)


@lru_cache(maxsize=8192)
def private_rate_with_interference(
    params: SystemParams,
    split: PowerSplit,
    cls: ReceiverClass,
    omega: float,
    iic: bool,
) -> float:
    """Private-stream rate with the common stream left in the interference.

    Above the common bound this is the only way the receiver is ever
    served. Below it the conditioning carves out the gap where the private
    stream survives but the common decode failed.
    """
    powers = stream_powers(params.P, split)
    if powers.own(cls) == 0.0:
        return 0.0
    z = params.zeta
    spec0 = dist_spec(seen_kind(SinrKind.COMMON, iic), cls, powers, params)
    xi_t = private_sinr_threshold(omega, params.xi)
    spec = dist_spec(seen_kind(SinrKind.PRIVATE_INTERF, iic), cls, powers, params)
    bound = spec.theta
    if z >= spec0.theta:
        # at or above the ceiling the common decode never happens, so the
        # interference route carries the whole conditioning
        if xi_t >= bound:
            return 0.0
        norm = coverage(spec, xi_t, params)
        return _mean_lograte(spec, omega, xi_t, bound, norm, params)
    _, with_i = gap_thresholds(params, split, cls)
    if not xi_t < with_i:
        return 0.0
    norm = coverage(spec, xi_t, params) - coverage(spec0, z, params)
    if norm <= 0.0:
        return 0.0
    return _mean_lograte(spec, omega, xi_t, with_i, norm, params)


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
    """One working point's table for one evaluate_point call, each entry made on first use.

    The stream powers and each (SINR kind, class, cancels) law, (law, threshold) coverage,
    class's gap thresholds, common-rate lookup and (class, omega, iic_at) receiver dispatch.
    """

    def __init__(self, params: SystemParams, split: PowerSplit) -> None:
        self.params, self.split = params, split
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

    def gaps(self, cls: ReceiverClass) -> tuple[float, float]:
        return self._once(("gaps", cls), gap_thresholds, self.params, self.split, cls)

    def both(self, iic_at: ReceiverClass | None) -> float:
        return self._once(("both", iic_at), common_rate_both, self.params, self.split, iic_at)

    def single(self, cls: ReceiverClass, iic: bool) -> float:
        return self._once(("single", cls, iic), common_rate_single, self.params, self.split, cls, iic)

    def receiver(self, cls: ReceiverClass, omega: float, iic_at: ReceiverClass | None) -> ReceiverRate:
        key = ("receiver", cls, omega, iic_at)
        return self._once(key, achieved_rate, self.params, self.split, cls, omega, iic_at, self)


def achieved_rate(
    params: SystemParams,
    split: PowerSplit,
    cls: ReceiverClass,
    omega: float,
    iic_at: ReceiverClass | None = None,
    point: _Point | None = None,
) -> ReceiverRate:
    """Served rate of one receiver under the regime dispatch.

    ``iic_at`` marks which receiver (if any) cancels the other class's
    stream from cache. When it is this receiver, every distribution on its
    side switches to the cancellation variant; when it is the other one,
    only the time-sharing term feels it (through the partner's decode
    probability and min-SINR law). ``point`` is the point's table, if any.
    """
    point = point or _Point(params, split)
    z = params.zeta
    xi_t = private_sinr_threshold(omega, params.xi)
    iic = iic_at is cls
    if z < point.law(SinrKind.COMMON, cls, iic).theta:
        after, with_i = point.gaps(cls)
        pi_0 = point.cover(SinrKind.COMMON, cls, iic, z)
        rs0 = common_stream_rate(params, split, cls, omega, iic_at, point)
        rp = private_rate_after_common(params, split, cls, omega, iic)
        if xi_t <= with_i:
            pi_pif = point.cover(SinrKind.PRIVATE_INTERF, cls, iic, xi_t)
            rpi = private_rate_with_interference(params, split, cls, omega, iic)
            ratio = _clamp01(pi_0 / pi_pif) if pi_pif > 0.0 else 0.0
            rate = ratio * (rs0 + rp) + (1.0 - ratio) * rpi
            return ReceiverRate(rate, pi_pif, "B3", rs0, rp, rpi)
        if xi_t < after:
            return ReceiverRate(rs0 + rp, pi_0, "B2", rs0, rp)
        pi_p = point.cover(SinrKind.PRIVATE, cls, iic, xi_t)
        ratio = _clamp01(pi_p / pi_0) if pi_0 > 0.0 else 0.0
        return ReceiverRate(rs0 + ratio * rp, pi_0, "B1", rs0, rp)

    if xi_t < point.law(SinrKind.PRIVATE_INTERF, cls, iic).theta:
        rpi = private_rate_with_interference(params, split, cls, omega, iic)
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


def evaluate_point(
    params: SystemParams, split: PowerSplit, subcases: Sequence[Subcase],
    prelogs: Sequence[tuple[float, float]] | None = None,
) -> list[RateReport]:
    """evaluate_subcase of every subcase, all built from one table of the point (_Point).

    ``prelogs``, when given, are the subcases' omegas(params, subcase).
    """
    point = _Point(params, split)
    if prelogs is None:
        prelogs = [omegas(params, sub) for sub in subcases]
    reports = []
    for sub, (w_c, w_e) in zip(subcases, prelogs):
        iic_at = sub.iic_at
        center = point.receiver(ReceiverClass.CENTER, w_c, iic_at)
        edge = point.receiver(ReceiverClass.EDGE, w_e, iic_at)
        alone_c, alone_e = (point.single(cls, iic_at is cls) for cls in ReceiverClass)
        parts = RateComponents(
            point.both(iic_at), alone_c, alone_e,
            center.rs0, edge.rs0, center.rp, edge.rp, center.rpi, edge.rpi,
        )
        reports.append(RateReport(
            center.rate, edge.rate, sum_rate(center, edge), center.q, edge.q, "analytic",
            center.branch, edge.branch, components=parts,
        ))
    return reports


def evaluate_subcase(subcase: Subcase, params: SystemParams, split: PowerSplit) -> RateReport:
    """Closed-form evaluation of one served configuration (evaluate_point's one subcase)."""
    return evaluate_point(params, split, (subcase,))[0]


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


def asymptotic_report(
    subcase: Subcase, params: SystemParams, split: PowerSplit
) -> RateReport:
    """High-power limits for one subcase; infinities pass through the sum."""
    w_c, w_e = omegas(params, subcase)
    r_c = asymptotic_rate(params, split, ReceiverClass.CENTER, w_c, subcase.iic_at)
    r_e = asymptotic_rate(params, split, ReceiverClass.EDGE, w_e, subcase.iic_at)
    return RateReport(
        r_center=r_c,
        r_edge=r_e,
        r_sum=r_c + r_e,
        q_center=math.nan,
        q_edge=math.nan,
        method="asymptotic",
    )
