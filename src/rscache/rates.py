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
dispatch hands back the terms it used, so evaluate_subcase reports them as
components without evaluating them again.

The single-receiver expectations are integrals of log2(1 + t) against the
conditional SINR densities; the time-shared min-rate integrates the product
of the two receivers' closed-form tails instead, with no density. Both are
taken in scale coordinates by the package's adaptive Gauss–Kronrod rule
(quadrature.integrate_log_scaled). The four integral functionals are
memoised for the life of the process, since sweeps of different caching
modes revisit the same working points; the common-stream term is plain
arithmetic over two of them and is not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .caching import Subcase
from .distributions import SinrDist, coverage, dist_spec, scale_measure, scale_tail
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
from .quadrature import DEFAULT_RTOL, integrate_log_scaled


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


def omega_value(params: SystemParams, index: int) -> float:
    """Pre-log by index; index 1 never needs a valid coded-cache geometry."""
    if index == 1:
        return 1.0
    return prelog_factors(params.K, params.M, params.N).by_index(index)


def omegas(params: SystemParams, subcase: Subcase) -> tuple[float, float]:
    """(omega_c, omega_e): the pre-logs of a subcase's center and edge streams."""
    return (
        omega_value(params, subcase.prelog_index(ReceiverClass.CENTER)),
        omega_value(params, subcase.prelog_index(ReceiverClass.EDGE)),
    )


def _mean_lograte(
    spec: SinrDist,
    omega: float,
    lo: float,
    hi: float,
    norm: float,
    params: SystemParams,
    rtol: float,
) -> float:
    """(1/norm) * integral of omega*log2(1+t) g(t) dt over (lo, min(hi, theta)).

    Evaluated in scale coordinates, where the integrand is a plain
    exponential-decay shape at any transmit power (in SINR coordinates the
    mass hugs the support bound ever harder as power grows). The
    quadrature's absolute error floor is scaled by the normaliser, so a
    rate conditioned on a tiny probability is held to its own precision.
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
    measure = scale_measure(spec, params)
    d1, d2, sigma2 = spec.d1, spec.d2, spec.sigma2

    def integrand(s: float) -> float:
        # lograte(omega, t) at the level t(s) whose scale is s; the measure
        # goes first, since past its underflow point d1 * s may overflow
        m = measure(s)
        if m == 0.0:
            return 0.0
        t = d1 * s / (sigma2 + d2 * s)
        return omega * math.log2(1.0 + t) * m

    integral = integrate_log_scaled(integrand, s_lo, s_hi, rtol=rtol, scale=min(norm, 1.0))
    return integral / norm


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
    rtol: float,
) -> float:
    """E[log2(1 + common SINR) | it clears zeta] for one receiver, pre-log free."""
    powers = stream_powers(params.P, split)
    spec = dist_spec(seen_kind(SinrKind.COMMON, iic), cls, powers, params)
    pi = coverage(spec, params.zeta, params)
    return _mean_lograte(spec, 1.0, params.zeta, spec.theta, pi, params, rtol)


@lru_cache(maxsize=4096)
def common_rate_both(
    params: SystemParams,
    split: PowerSplit,
    iic_at: ReceiverClass | None,
    rtol: float,
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
    tail_in, tail_out = scale_tail(inner, params), scale_tail(outer, params)
    d1, d2, sigma2, e1 = inner.d1, inner.d2, inner.sigma2, outer.d1
    # >= 0 by that choice, and exactly 0 for a partner with the same powers
    cross = e1 * d2 - outer.d2 * d1

    def integrand(s: float) -> float:
        p = tail_in(s)
        if p == 0.0:
            return 0.0
        q = tail_out(sigma2 * d1 * s / (e1 * sigma2 + cross * s))
        return d1 * sigma2 / ((sigma2 + (d1 + d2) * s) * (sigma2 + d2 * s)) * p * q

    integral = integrate_log_scaled(integrand, inner._s(z), math.inf, rtol=rtol, scale=norm)
    return math.log2(1.0 + z) + integral / (math.log(2.0) * norm)


def common_stream_rate(
    params: SystemParams,
    split: PowerSplit,
    cls: ReceiverClass,
    omega: float,
    iic_at: ReceiverClass | None,
    rtol: float,
) -> float:
    """Common-stream contribution for one receiver, given it decodes.

    With probability that the other receiver also decodes, the stream is
    time-shared (fraction u to the center class) at the min SINR;
    otherwise this receiver gets the full slot at its own SINR.
    """
    powers = stream_powers(params.P, split)
    other = cls.other
    other_spec = dist_spec(seen_kind(SinrKind.COMMON, iic_at is other), other, powers, params)
    pi_other = coverage(other_spec, params.zeta, params)
    share = params.u if cls is ReceiverClass.CENTER else 1.0 - params.u
    both = common_rate_both(params, split, iic_at, rtol)
    alone = common_rate_single(params, split, cls, iic_at is cls, rtol)
    return omega * (pi_other * share * both + (1.0 - pi_other) * alone)


@lru_cache(maxsize=8192)
def private_rate_after_common(
    params: SystemParams,
    split: PowerSplit,
    cls: ReceiverClass,
    omega: float,
    iic: bool,
    rtol: float,
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
        return _mean_lograte(spec, omega, xi_t, bound, norm, params, rtol)
    norm = coverage(spec0, z, params)
    return _mean_lograte(spec, omega, after, bound, norm, params, rtol)


@lru_cache(maxsize=8192)
def private_rate_with_interference(
    params: SystemParams,
    split: PowerSplit,
    cls: ReceiverClass,
    omega: float,
    iic: bool,
    rtol: float,
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
        return _mean_lograte(spec, omega, xi_t, bound, norm, params, rtol)
    _, with_i = gap_thresholds(params, split, cls)
    if not xi_t < with_i:
        return 0.0
    norm = coverage(spec, xi_t, params) - coverage(spec0, z, params)
    if norm <= 0.0:
        return 0.0
    return _mean_lograte(spec, omega, xi_t, with_i, norm, params, rtol)


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


def achieved_rate(
    params: SystemParams,
    split: PowerSplit,
    cls: ReceiverClass,
    omega: float,
    iic_at: ReceiverClass | None = None,
    rtol: float = DEFAULT_RTOL,
) -> ReceiverRate:
    """Served rate of one receiver under the regime dispatch.

    ``iic_at`` marks which receiver (if any) cancels the other class's
    stream from cache. When it is this receiver, every distribution on its
    side switches to the cancellation variant; when it is the other one,
    only the time-sharing term feels it (through the partner's decode
    probability and min-SINR law).
    """
    powers = stream_powers(params.P, split)
    z = params.zeta
    xi_t = private_sinr_threshold(omega, params.xi)
    self_iic = iic_at is cls
    spec_0 = dist_spec(seen_kind(SinrKind.COMMON, self_iic), cls, powers, params)
    spec_pi = dist_spec(seen_kind(SinrKind.PRIVATE_INTERF, self_iic), cls, powers, params)

    if z < spec_0.theta:
        after, with_i = gap_thresholds(params, split, cls)
        pi_0 = coverage(spec_0, z, params)
        rs0 = common_stream_rate(params, split, cls, omega, iic_at, rtol)
        rp = private_rate_after_common(params, split, cls, omega, self_iic, rtol)
        if xi_t <= with_i:
            pi_pif = coverage(spec_pi, xi_t, params)
            rpi = private_rate_with_interference(
                params, split, cls, omega, self_iic, rtol
            )
            ratio = _clamp01(pi_0 / pi_pif) if pi_pif > 0.0 else 0.0
            rate = ratio * (rs0 + rp) + (1.0 - ratio) * rpi
            return ReceiverRate(rate, pi_pif, "B3", rs0, rp, rpi)
        if xi_t < after:
            return ReceiverRate(rs0 + rp, pi_0, "B2", rs0, rp)
        spec_p = dist_spec(seen_kind(SinrKind.PRIVATE, self_iic), cls, powers, params)
        pi_p = coverage(spec_p, xi_t, params)
        ratio = _clamp01(pi_p / pi_0) if pi_0 > 0.0 else 0.0
        return ReceiverRate(rs0 + ratio * rp, pi_0, "B1", rs0, rp)

    if xi_t < spec_pi.theta:
        rpi = private_rate_with_interference(params, split, cls, omega, self_iic, rtol)
        pi_pif = coverage(spec_pi, xi_t, params)
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


def evaluate_subcase(
    subcase: Subcase,
    params: SystemParams,
    split: PowerSplit,
    rtol: float = DEFAULT_RTOL,
) -> RateReport:
    """Closed-form evaluation of one served configuration."""
    w_c, w_e = omegas(params, subcase)
    iic_at = subcase.iic_at
    center = achieved_rate(params, split, ReceiverClass.CENTER, w_c, iic_at, rtol)
    edge = achieved_rate(params, split, ReceiverClass.EDGE, w_e, iic_at, rtol)
    alone_c, alone_e = (
        common_rate_single(params, split, cls, iic_at is cls, rtol) for cls in ReceiverClass
    )
    parts = RateComponents(
        r0_both=common_rate_both(params, split, iic_at, rtol),
        r0_center_only=alone_c,
        r0_edge_only=alone_e,
        rs0_center=center.rs0,
        rs0_edge=edge.rs0,
        rp_center=center.rp,
        rp_edge=edge.rp,
        rpi_center=center.rpi,
        rpi_edge=edge.rpi,
    )
    return RateReport(
        r_center=center.rate,
        r_edge=edge.rate,
        r_sum=sum_rate(center, edge),
        q_center=center.q,
        q_edge=edge.q,
        method="analytic",
        branch_center=center.branch,
        branch_edge=edge.branch,
        components=parts,
    )


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
        share = params.u if cls is ReceiverClass.CENTER else 1.0 - params.u
        rate = share * lograte(omega, common)
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
