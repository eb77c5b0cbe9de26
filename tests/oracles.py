"""Oracles that only the tests use, kept out of the package.

Each restates a production quantity a second way, so a test can check the
package against something that does not share its code: the per-draw SINR
written out kind by kind and the served rates it gives draw by draw, the
outage region as direct power-split inequalities, the SINR density in level
coordinates, the time-shared common rate by two-axis integration of the
joint density, the single-receiver rates as adaptive integrals against the
density, plain-interval and log-axis QUADPACK quadratures, and a
request-pattern classifier that maps raw popularity ranks to the served
subcase.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from rscache.caching import Mode, Subcase, Technique
from rscache.distributions import SinrDist, coverage, dist_spec, pdf_s_measure
from rscache.model import (
    PowerSplit,
    ReceiverClass,
    SinrKind,
    StreamPowers,
    SystemParams,
    private_sinr_threshold,
    seen_kind,
    stream_powers,
)
from rscache.quadrature import _ABS_TOL, DEFAULT_RTOL, QuadratureError

# QUADPACK's subdivision limit for every oracle integral
_LIMIT = 200


def _checked(result, rtol: float, message: str, scale: float = 1.0) -> float:
    """The value of a full-output ``integrate.quad`` result that met its target.

    A QUADPACK warning is still a success when the error bound sits under
    the package's absolute floor, scaled like the package's by the
    probability the result will be divided by.
    """
    value, abserr = result[0], result[1]
    if len(result) > 3 and abserr > max(rtol * abs(value), _ABS_TOL * scale):
        raise QuadratureError(f"{message}: {result[3]}")
    if not math.isfinite(value):
        raise QuadratureError(f"{message}: non-finite value {value}")
    return value


def integrate_interval(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    rtol: float = DEFAULT_RTOL,
    open_upper: bool = False,
) -> float:
    """Integrate fn over (lo, hi) in the variable itself; hi may be math.inf.

    With ``open_upper`` a finite hi is treated as an open support bound
    hiding structure at scales far below the interval width (a density
    spike hugging it): the substitution t = hi - (hi - lo) e^{-v} walks
    into the bound exponentially, resolving features of any relative
    magnitude. Without it the interval is integrated directly, which is
    the right call for integrands already in exponential-decay form.
    """
    if hi <= lo:
        return 0.0
    if math.isinf(hi):
        res = integrate.quad(fn, lo, math.inf, epsabs=0.0, epsrel=rtol, limit=_LIMIT, full_output=1)
        return _checked(res, rtol, "infinite-interval quadrature failed")
    if not open_upper:
        res = integrate.quad(
            fn, lo, hi, epsabs=0.0, epsrel=rtol, limit=_LIMIT, full_output=1
        )
        return _checked(res, rtol, "finite-interval quadrature failed")
    span = hi - lo

    def with_endpoint_pulled_out(v: float) -> float:
        w = span * math.exp(-v)
        return fn(hi - w) * w

    res = integrate.quad(
        with_endpoint_pulled_out, 0.0, math.inf, epsabs=0.0, epsrel=rtol, limit=_LIMIT, full_output=1
    )
    return _checked(res, rtol, "open-bound quadrature failed")


def integrate_log_axis(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    rtol: float = DEFAULT_RTOL,
    scale: float = 1.0,
) -> float:
    """Integrate fn over (lo, hi), 0 < lo and hi possibly math.inf, in ln s.

    The decades of a scale-coordinate integrand become a linear axis, which
    QUADPACK then takes as it would any other; ``scale`` is as in _checked.
    """
    if hi <= lo:
        return 0.0
    log_lo = math.log(lo)

    def scaled(v: float) -> float:
        log_s = log_lo + v
        if log_s > 709.0:
            return 0.0
        s = math.exp(log_s)
        return fn(s) * s

    top = math.inf if math.isinf(hi) else math.log(hi / lo)
    res = integrate.quad(scaled, 0.0, top, epsabs=0.0, epsrel=rtol, limit=_LIMIT, full_output=1)
    return _checked(res, rtol, "log-axis quadrature failed", scale)


def instantaneous_sinr(
    kind: SinrKind,
    cls: ReceiverClass,
    powers: StreamPowers,
    link_gain: float,
    sigma2: float,
) -> float:
    """SINR of one stream at one receiver for a realized channel gain.

    ``link_gain`` is the fading-scaled path gain L = h / (1 + d^alpha);
    noise enters every denominator as sigma2 / L. Accepts L = inf as the
    noise-free limit and then returns the corresponding bound.
    """
    if link_gain < 0:
        raise ValueError("link gain must be nonnegative")
    noise = math.inf if link_gain == 0.0 else sigma2 / link_gain
    pn = powers.own(cls)
    pk = powers.other(cls)
    if kind is SinrKind.COMMON:
        den = pn + pk + noise
    elif kind is SinrKind.PRIVATE:
        den = pk + noise
    elif kind is SinrKind.PRIVATE_INTERF:
        den = powers.p0 + pk + noise
    elif kind is SinrKind.COMMON_IIC:
        den = pn + noise
    elif kind is SinrKind.PRIVATE_IIC:
        den = noise
    else:  # PRIVATE_INTERF_IIC
        den = powers.p0 + noise
    num = powers.p0 if kind in (SinrKind.COMMON, SinrKind.COMMON_IIC) else pn
    if den == 0.0:
        return math.inf
    if math.isinf(den):
        return 0.0
    return num / den


def served_per_draw(
    params: SystemParams,
    split: PowerSplit,
    draw,
    omegas: tuple[float, float],
    iic_at: ReceiverClass | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(served rate, served event) per draw for the center, then the edge receiver.

    Built from the raw distances and fades of ``draw`` alone: the gain
    h / (1 + d^alpha), each SINR as its literal power ratio, and the decode
    order. The common stream is decoded against zeta and time-shared (u to
    the center) at the smaller common rate when both decode. The private
    stream then counts above its threshold, or, without the common decode,
    with the common stream left in the interference. The receiver at iic_at
    has cancelled the other class's stream, which leaves its denominators.
    """
    powers = stream_powers(params.P, split)
    sinrs = []
    for cls, d, h in (
        (ReceiverClass.CENTER, draw.d_c, draw.h_c),
        (ReceiverClass.EDGE, draw.d_e, draw.h_e),
    ):
        noise = params.sigma2 / (h / (1.0 + d**params.alpha))
        pn = powers.own(cls)
        pk = 0.0 if iic_at is cls else powers.other(cls)
        sinrs.append(
            (powers.p0 / (pn + pk + noise), pn / (pk + noise), pn / (powers.p0 + pk + noise))
        )
    (c0, cp, ci), (e0, ep, ei) = sinrs
    dec_c, dec_e = c0 > params.zeta, e0 > params.zeta
    both = dec_c & dec_e
    min0 = np.minimum(np.log2(1 + c0), np.log2(1 + e0))
    out = []
    for dec, own0, ownp, owni, share, omega in (
        (dec_c, c0, cp, ci, params.u, omegas[0]),
        (dec_e, e0, ep, ei, 1.0 - params.u, omegas[1]),
    ):
        xi_t = private_sinr_threshold(omega, params.xi)
        interf = ~dec & (owni > xi_t)
        r = np.where(dec, np.where(both, share * min0, np.log2(1 + own0)), 0.0)
        r = r + np.where(dec & (ownp > xi_t), np.log2(1 + ownp), 0.0)
        r = r + np.where(interf, np.log2(1 + owni), 0.0)
        out.append((omega * r, dec | interf))
    return out


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


def _s_prime(spec: SinrDist, t: float) -> float:
    """ds/dt of the scale map s(t) = sigma2 t / (d1 - d2 t)."""
    den = spec.d1 - spec.d2 * t
    if den <= 0.0 or spec.d1 == 0.0:
        return math.inf
    return spec.sigma2 * spec.d1 / (den * den)


def pdf(spec: SinrDist, t: float, params: SystemParams) -> float:
    """Density of the SINR at level t (zero outside the open support)."""
    if t <= 0.0 or t >= spec.theta:
        return 0.0
    return pdf_s_measure(spec, spec._s(t)) * _s_prime(spec, t)


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


def mean_lograte_by_density(
    spec: SinrDist,
    omega: float,
    lo: float,
    hi: float,
    norm: float,
    params: SystemParams,
    rtol: float = DEFAULT_RTOL,
) -> float:
    """rates._mean_lograte as the adaptive integral of omega log2(1 + t) against the density.

    Taken in scale coordinates over (s(lo), s(min(hi, theta))) against the
    closed-form scale measure with QUADPACK (integrate_log_axis), with the
    same guards and the same norm-scaled error floor as the E1 form.
    """
    if norm < sys.float_info.min:
        return 0.0
    hi = min(hi, spec.theta)
    if not hi > lo:
        return 0.0
    s_lo = spec._s(lo)
    if not math.isfinite(s_lo):
        return 0.0
    s_hi = math.inf if hi >= spec.theta else spec._s(hi)

    def integrand(s: float) -> float:
        m = pdf_s_measure(spec, s)
        if m == 0.0:
            return 0.0
        return omega * math.log2(1.0 + level_of_s(spec, s)) * m

    integral = integrate_log_axis(integrand, s_lo, s_hi, rtol=rtol, scale=min(norm, 1.0))
    return integral / norm


def nested_common_rate_both(
    params: SystemParams,
    split: PowerSplit,
    iic_at: ReceiverClass | None,
    rtol: float,
) -> float:
    """Direct two-axis evaluation of rates.common_rate_both.

    Iterated QUADPACK quadrature over the joint scale density; the inner
    integral runs at a tenth of the outer tolerance. Orders of magnitude
    slower than the production path, so tests sample it sparingly.
    """
    z = params.zeta
    powers = stream_powers(params.P, split)
    spec_c, spec_e = (
        dist_spec(seen_kind(SinrKind.COMMON, iic_at is cls), cls, powers, params)
        for cls in (ReceiverClass.CENTER, ReceiverClass.EDGE)
    )
    pi_c, pi_e = coverage(spec_c, z), coverage(spec_e, z)
    if pi_c <= 0.0 or pi_e <= 0.0:
        return 0.0
    inner_rtol = rtol * 0.1
    sig2 = params.sigma2

    def half(outer: SinrDist, inner: SinrDist) -> float:
        # both axes in scale coordinates; the inner cap min(y, theta_in)
        # maps to a rational function of the outer scale whose denominator
        # crosses zero exactly where y reaches the inner bound
        s0_out = outer._s(z)
        s0_in = inner._s(z)
        cross = inner.d1 * outer.d2 - inner.d2 * outer.d1

        def integrand(s_out: float) -> float:
            m_out = pdf_s_measure(outer, s_out)
            if m_out == 0.0:
                return 0.0
            den = inner.d1 * sig2 + cross * s_out
            s_cap = math.inf if den <= 0.0 else sig2 * outer.d1 * s_out / den
            if s_cap <= s0_in:
                return 0.0
            return m_out * integrate_log_axis(
                lambda s: math.log2(1.0 + level_of_s(inner, s))
                * pdf_s_measure(inner, s),
                s0_in,
                s_cap,
                rtol=inner_rtol,
            )

        return integrate_log_axis(integrand, s0_out, math.inf, rtol=rtol)

    return (half(spec_e, spec_c) + half(spec_c, spec_e)) / (pi_c * pi_e)


def _classify_side(
    mode: Mode,
    cls: ReceiverClass,
    ranks: Sequence[int],
    params: SystemParams,
    rng,
) -> tuple[Technique, int]:
    """Technique and served rank for one class."""
    if len(ranks) != params.K:
        raise ValueError(f"need one request per receiver (K={params.K})")
    if any(not 1 <= r <= params.F for r in ranks):
        raise ValueError("ranks must lie in [1, F]")
    if not mode.is_cc(cls):
        # MPC side: the top-M files are served from cache; by the worst-case
        # model assumption somebody wants a file beyond them.
        pending = [i for i, r in enumerate(ranks) if r > params.M]
        if not pending:
            raise ValueError(
                "every request is cached locally; the model assumes at least "
                "one MPC-side request beyond the top M files"
            )
        pick = pending[int(rng.integers(len(pending)))]
        return Technique.EFR, ranks[pick]
    if all(r <= params.N for r in ranks):
        # feasible coded round; the cancellation question looks at all K ranks
        worst = max(ranks)
        return Technique.XOR, worst
    pick = int(rng.integers(params.K))
    rank = ranks[pick]
    return (Technique.PFR if rank <= params.N else Technique.EFR), rank


def classify_subcase(
    mode: Mode,
    center_requests: Sequence[int],
    edge_requests: Sequence[int],
    params: SystemParams,
    rng,
) -> Subcase:
    """Map a request pattern to the served subcase.

    ``rng`` (a numpy Generator) breaks ties when a unicast receiver must be
    picked. For a CC class the coded round runs iff all K ranks fit the
    catalog; otherwise one receiver is scheduled uniformly at random. The
    MPC-side receiver gets the cancellation flag iff everything served to
    the CC side has rank <= M (whole files in the MPC cache).
    """
    c_tech, c_rank = _classify_side(
        mode, ReceiverClass.CENTER, center_requests, params, rng
    )
    e_tech, e_rank = _classify_side(
        mode, ReceiverClass.EDGE, edge_requests, params, rng
    )
    iic_at = None
    if mode is Mode.CC_MPC and c_tech is not Technique.EFR and c_rank <= params.M:
        iic_at = ReceiverClass.EDGE
    elif mode is Mode.MPC_CC and e_tech is not Technique.EFR and e_rank <= params.M:
        iic_at = ReceiverClass.CENTER
    return Subcase(mode=mode, center=c_tech, edge=e_tech, iic_at=iic_at)


def sample_requests(params: SystemParams, count: int, rng, gamma: float = 0.0):
    """Draw popularity ranks from a truncated Zipf law over [1, F].

    gamma = 0 gives the uniform default; larger gamma skews toward low
    ranks. Returns an integer numpy array of shape (count,).
    """
    if gamma < 0:
        raise ValueError("Zipf exponent must be nonnegative")
    ranks = np.arange(1, params.F + 1, dtype=float)
    w = ranks**-gamma if gamma > 0 else np.ones_like(ranks)
    w /= w.sum()
    return rng.choice(np.arange(1, params.F + 1), size=count, p=w)
