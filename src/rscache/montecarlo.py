"""Stochastic-geometry simulator used to cross-check every closed form.

One draw realizes one center and one edge receiver: a position uniform
over the disk or the annulus, unit-mean exponential fading, and each
stream SINR computed from the literal power ratios. Realized rates follow
the decoding order: the common stream against zeta first, then the
private stream against its own threshold, with the cancellation variants
substituted per subcase.

Determinism contract: draws come from counter-based Philox streams keyed
per fixed-size chunk, and chunk partials are reduced in chunk order, so a
given (seed, samples, chunk) produces a bit-identical report at any
worker count. estimate_point samples each chunk once and forms its link
gains once, then runs every subcase's rate kernel on them; each subcase
gets the report estimate_rates gives it alone on the same SimConfig.

Memory: once warm, the kernel allocates no draw-sized array. Each thread
keeps a workspace of named draw-sized buffers, 7 float64 and 11 bool
(about 9 MB at the default 131 072-draw chunk, 7 MB at 100 000 draws),
that grows on demand and lasts across chunks and across estimate calls;
the draws, link gains, SINRs, rates and event masks are all written into
it. With two or more workers the pool threads, and so their buffers, last
only for one call. Buffer reuse never changes a value: every array is
filled by the same operations in the same order as a fresh one would be.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Any, Callable, Sequence

import numpy as np

from .caching import Subcase
from .model import (
    PowerSplit,
    ReceiverClass,
    SinrKind,
    StreamPowers,
    SystemParams,
    private_sinr_threshold,
    seen_kind,
    stream_powers,
)
from .rates import RateComponents, RateReport, omegas


@dataclass(frozen=True)
class SimConfig:
    """Sample count, stream seed, and the chunking that fixes the streams.

    chunk is part of the reproducibility key: changing it changes which
    Philox stream produces which draw. workers only changes scheduling.
    spawn prefixes the per-chunk stream keys. A sweep sets it to (point,),
    so every grid point has its own stream family and all of a point's
    subcases share its draw.
    """

    samples: int = 100_000
    seed: int = 42
    chunk: int = 131_072
    workers: int = 1
    spawn: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.chunk < 1:
            raise ValueError("chunk size must be positive")
        if self.workers < 1:
            raise ValueError("worker count must be positive")

    def chunk_sizes(self) -> list[int]:
        full, rest = divmod(self.samples, self.chunk)
        sizes = [self.chunk] * full
        if rest:
            sizes.append(rest)
        return sizes

    def rng(self, index: int) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=self.spawn + (index,)
        )
        return np.random.Generator(np.random.Philox(seq))


class _Workspace(threading.local):
    """The calling thread's draw-sized scratch arrays, kept between calls.

    Each name owns one buffer of one dtype. A request longer than the
    buffer replaces it; callers get a view sliced to their length.
    """

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, n: int, dtype: type = np.float64) -> np.ndarray:
        buf = self.buffers.get(name)
        if buf is None or buf.size < n:
            buf = self.buffers[name] = np.empty(n, dtype)
        return buf[:n]


_WORKSPACE = _Workspace()


def _floats(name: str, n: int) -> np.ndarray:
    return _WORKSPACE.take(name, n)


def _mask(name: str, n: int) -> np.ndarray:
    return _WORKSPACE.take(name, n, np.bool_)


def _draw_buffers(n: int) -> tuple[np.ndarray, ...]:
    return tuple(_floats(name, n) for name in ("d_c", "d_e", "h_c", "h_e"))


@dataclass(frozen=True)
class ChannelDraw:
    """Vectorized batch of joint center/edge channel realizations."""

    d_c: np.ndarray
    d_e: np.ndarray
    h_c: np.ndarray
    h_e: np.ndarray

    def link_gain(self, cls: ReceiverClass, alpha: float) -> np.ndarray:
        """h / (1 + d^alpha), written over the class's distances."""
        h, gain = (self.h_c, self.d_c) if cls is ReceiverClass.CENTER else (self.h_e, self.d_e)
        # in-place ** takes the same scalar-exponent path as d**alpha
        gain **= alpha
        gain += 1.0
        return np.divide(h, gain, out=gain)


def sample_channels(
    params: SystemParams,
    rng: np.random.Generator,
    n: int,
    out: tuple[np.ndarray, ...] | None = None,
) -> ChannelDraw:
    """Draw n joint realizations; the draw order is part of the contract.

    out, if given, holds four float64 arrays of length n that become d_c,
    d_e, h_c and h_e; without it the draw gets fresh arrays. Both fill
    their buffers the same way and give the same values.
    """
    d_c, d_e, h_c, h_e = out if out is not None else [np.empty(n) for _ in range(4)]
    rng.random(out=d_c)
    rng.random(out=d_e)
    rng.standard_exponential(out=h_c)
    rng.standard_exponential(out=h_e)
    # d_c = r_c sqrt(u_c) and d_e = sqrt(r_e^2 + u_e (r_0^2 - r_e^2)),
    # computed in the uniform draws' own buffers
    np.sqrt(d_c, out=d_c)
    d_c *= params.r_c
    d_e *= params.r_0**2 - params.r_e**2
    d_e += params.r_e**2
    np.sqrt(d_e, out=d_e)
    return ChannelDraw(d_c=d_c, d_e=d_e, h_c=h_c, h_e=h_e)


def _sinr_vec(
    kind: SinrKind,
    cls: ReceiverClass,
    powers: StreamPowers,
    gain: np.ndarray,
    sigma2: float,
    out: np.ndarray,
) -> np.ndarray:
    # mirrors the scalar oracle instantaneous_sinr in tests/oracles.py ratio
    # by ratio; kept literal so the simulator never shares coefficients with
    # the SINR table in model.
    # The denominator starts as the noise term in out and becomes the SINR
    # in place.
    with np.errstate(divide="ignore"):
        den = np.divide(sigma2, gain, out=out)
    pn = powers.own(cls)
    pk = powers.other(cls)
    if kind is SinrKind.COMMON:
        den += pn + pk
    elif kind is SinrKind.PRIVATE:
        den += pk
    elif kind is SinrKind.PRIVATE_INTERF:
        den += powers.p0 + pk
    elif kind is SinrKind.COMMON_IIC:
        den += pn
    elif kind is SinrKind.PRIVATE_IIC:
        pass
    else:
        den += powers.p0
    num = powers.p0 if kind in (SinrKind.COMMON, SinrKind.COMMON_IIC) else pn
    # a zero gain makes the denominator inf, and num / inf is already +0
    with np.errstate(invalid="ignore"):
        return np.divide(num, den, out=den)


def _map_chunks(kernel: Callable[[int], Any], count: int, workers: int) -> list:
    """kernel(0), ..., kernel(count - 1), in chunk order.

    A single worker maps in the calling thread; only two or more start a
    pool, whose threads would otherwise each leave a malloc arena behind.
    """
    if workers == 1:
        return [kernel(index) for index in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(kernel, range(count)))


def estimate_coverage(
    kind: SinrKind,
    cls: ReceiverClass,
    t: float,
    params: SystemParams,
    split: PowerSplit,
    sim: SimConfig,
) -> tuple[float, float]:
    """Empirical tail probability of one SINR law with its binomial stderr."""
    powers = stream_powers(params.P, split)

    sizes = sim.chunk_sizes()

    def kernel(index: int) -> int:
        n = sizes[index]
        draw = sample_channels(params, sim.rng(index), n, out=_draw_buffers(n))
        gain = draw.link_gain(cls, params.alpha)
        fading = draw.h_c if cls is ReceiverClass.CENTER else draw.h_e
        eta = _sinr_vec(kind, cls, powers, gain, params.sigma2, fading)
        return int(np.count_nonzero(np.greater(eta, t, out=_mask("one", n))))

    hits = sum(_map_chunks(kernel, len(sizes), sim.workers))
    p = hits / sim.samples
    return p, math.sqrt(p * (1.0 - p) / sim.samples)


# the statistics _rate_kernel accumulates, in its order: the components
# in RateComponents' field order, then the served and sum rates
_COMPONENT_NAMES = tuple(f.name for f in fields(RateComponents))
_STAT_NAMES = (*_COMPONENT_NAMES, "r_center", "r_edge", "r_sum")


#: draws per step of the gather in _accumulate; its index arrays stay small
#: enough for malloc to serve from the heap instead of fresh pages
_GATHER_BLOCK = 8192


def _accumulate(values: np.ndarray, mask: np.ndarray) -> tuple[float, float, float]:
    """Sum, sum of squares and count of values where mask holds.

    The hits are gathered in order into one contiguous workspace array, so
    the pairwise sums see exactly values[mask].
    """
    hit = _floats("hit", values.size)
    count = 0
    for lo in range(0, values.size, _GATHER_BLOCK):
        index = mask[lo : lo + _GATHER_BLOCK].nonzero()[0]
        values[lo : lo + _GATHER_BLOCK].take(
            index, out=hit[count : count + index.size], mode="clip"
        )
        count += index.size
    hit = hit[:count]
    total = float(hit.sum())
    return total, float(np.multiply(hit, hit, out=hit).sum()), float(count)


def _and_not(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a & ~b, written into out (which may be b but not a)."""
    np.invert(b, out=out)
    return np.logical_and(a, out, out=out)


def _log_rate(eta: np.ndarray, w: float) -> np.ndarray:
    """w * log2(1 + eta), computed in eta's own buffer."""
    eta += 1.0
    np.log2(eta, out=eta)
    if w != 1.0:
        eta *= w
    return eta


def _conditional(total: np.ndarray) -> tuple[float, float]:
    s, ss, c = total
    if c <= 0.0:
        return 0.0, 0.0
    mean = s / c
    var = max(ss / c - mean * mean, 0.0)
    return mean, math.sqrt(var / c)


@dataclass(frozen=True)
class _SubcaseStreams:
    """Per-receiver SINR kinds and thresholds realized by one subcase."""

    common_c: SinrKind
    common_e: SinrKind
    private_c: SinrKind
    private_e: SinrKind
    interf_c: SinrKind
    interf_e: SinrKind
    w_c: float
    w_e: float
    xi_c: float
    xi_e: float


def _streams(subcase: Subcase, params: SystemParams) -> _SubcaseStreams:
    w_c, w_e = omegas(params, subcase)
    iic_c = subcase.iic_at is ReceiverClass.CENTER
    iic_e = subcase.iic_at is ReceiverClass.EDGE
    return _SubcaseStreams(
        common_c=seen_kind(SinrKind.COMMON, iic_c),
        common_e=seen_kind(SinrKind.COMMON, iic_e),
        private_c=seen_kind(SinrKind.PRIVATE, iic_c),
        private_e=seen_kind(SinrKind.PRIVATE, iic_e),
        interf_c=seen_kind(SinrKind.PRIVATE_INTERF, iic_c),
        interf_e=seen_kind(SinrKind.PRIVATE_INTERF, iic_e),
        w_c=w_c,
        w_e=w_e,
        xi_c=private_sinr_threshold(w_c, params.xi),
        xi_e=private_sinr_threshold(w_e, params.xi),
    )


def _common_stage(
    eta0_c: np.ndarray,
    eta0_e: np.ndarray,
    params: SystemParams,
    streams: _SubcaseStreams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list]:
    """Common-stream decode events and rates of both receivers.

    Returns the two decode events, each receiver's served rate so far (its
    common-stream share, zero where it does not decode) and the first five
    statistics. The SINR buffers are overwritten.
    """
    n = eta0_c.size
    dec_c = np.greater(eta0_c, params.zeta, out=_mask("dec_c", n))
    dec_e = np.greater(eta0_e, params.zeta, out=_mask("dec_e", n))
    both = np.logical_and(dec_c, dec_e, out=_mask("both", n))
    one = _mask("one", n)
    log0_c = _log_rate(eta0_c, 1.0)
    log0_e = _log_rate(eta0_e, 1.0)
    min0 = np.minimum(log0_c, log0_e, out=_floats("min0", n))
    stats = [
        _accumulate(min0, both),
        _accumulate(log0_c, _and_not(dec_c, dec_e, one)),
        _accumulate(log0_e, _and_not(dec_e, dec_c, one)),
    ]

    # common-stream contribution given own decode: time-shared min rate if
    # the partner decoded too, otherwise the full slot at the own SINR.
    # Every rate is finite and >= +0, so x * mask + y * ~mask picks x or y
    # bit for bit; the common SINR buffers are dead after this and take
    # the masked terms.
    alone = np.invert(both, out=one)
    rs0_c = np.multiply(params.u, min0, out=_floats("rs0_c", n))
    rs0_c *= both
    rs0_c += np.multiply(log0_c, alone, out=log0_c)
    rs0_c *= streams.w_c
    rs0_e = np.multiply(1.0 - params.u, min0, out=min0)
    rs0_e *= both
    rs0_e += np.multiply(log0_e, alone, out=log0_e)
    rs0_e *= streams.w_e
    stats += [_accumulate(rs0_c, dec_c), _accumulate(rs0_e, dec_e)]

    rs0_c *= dec_c
    rs0_e *= dec_e
    return dec_c, dec_e, rs0_c, rs0_e, stats


def _private_stage(
    served: np.ndarray,
    dec: np.ndarray,
    eta_p: np.ndarray,
    eta_i: np.ndarray,
    xi: float,
    w: float,
    side: str,
) -> tuple[np.ndarray, tuple, tuple]:
    """Add one receiver's private-stream rates to its served rate in place.

    Returns the interference-route event (the common stream left in the
    interference) and both private routes' statistics. The SINR buffers
    are overwritten; side names the event masks' buffers.
    """
    n = dec.size
    priv = np.greater(eta_p, xi, out=_mask("priv" + side, n))
    np.logical_and(dec, priv, out=priv)
    above = np.greater(eta_i, xi, out=_mask("one", n))
    intf = _and_not(above, dec, _mask("intf" + side, n))
    rp = _log_rate(eta_p, w)
    ri = _log_rate(eta_i, w)
    # every rate term is finite and >= +0, so adding rate * event gives the
    # same bits as adding only where the event holds
    rp *= priv
    ri *= intf
    served += rp
    served += ri
    return intf, _accumulate(rp, priv), _accumulate(ri, intf)


def _rate_kernel(
    params: SystemParams,
    powers: StreamPowers,
    streams: _SubcaseStreams,
    gain_c: np.ndarray,
    gain_e: np.ndarray,
) -> np.ndarray:
    """One subcase's statistics over one chunk's link gains.

    The gains are only read, so every subcase of a point runs on the same
    ones. The draw's fading buffers (h_c, h_e) are dead once the gains are
    formed and take two SINRs at a time, each turned into a rate in place.
    """
    sigma2 = params.sigma2
    n = gain_c.size
    center, edge = ReceiverClass.CENTER, ReceiverClass.EDGE
    first, second = _floats("h_c", n), _floats("h_e", n)

    dec_c, dec_e, served_c, served_e, stats = _common_stage(
        _sinr_vec(streams.common_c, center, powers, gain_c, sigma2, first),
        _sinr_vec(streams.common_e, edge, powers, gain_e, sigma2, second),
        params,
        streams,
    )
    intf_c, acc_rp_c, acc_ri_c = _private_stage(
        served_c,
        dec_c,
        _sinr_vec(streams.private_c, center, powers, gain_c, sigma2, first),
        _sinr_vec(streams.interf_c, center, powers, gain_c, sigma2, second),
        streams.xi_c,
        streams.w_c,
        "_c",
    )
    intf_e, acc_rp_e, acc_ri_e = _private_stage(
        served_e,
        dec_e,
        _sinr_vec(streams.private_e, edge, powers, gain_e, sigma2, first),
        _sinr_vec(streams.interf_e, edge, powers, gain_e, sigma2, second),
        streams.xi_e,
        streams.w_e,
        "_e",
    )
    eps_c = np.logical_or(dec_c, intf_c, out=_mask("eps_c", n))
    eps_e = np.logical_or(dec_e, intf_e, out=_mask("eps_e", n))
    stats += [
        acc_rp_c,
        acc_rp_e,
        acc_ri_c,
        acc_ri_e,
        _accumulate(served_c, eps_c),
        _accumulate(served_e, eps_e),
    ]
    served_c += served_e
    stats.append(_accumulate(served_c, np.logical_or(eps_c, eps_e, out=_mask("eps", n))))
    return np.concatenate(stats)


def _report(partials: list[np.ndarray], samples: int) -> RateReport:
    """The RateReport of one subcase from its per-chunk statistics."""
    # chunk-order exact reduction: identical totals at any worker count
    totals = np.array(
        [math.fsum(p[j] for p in partials) for j in range(len(_STAT_NAMES) * 3)]
    ).reshape(len(_STAT_NAMES), 3)

    by_name = dict(zip(_STAT_NAMES, totals))
    means = {name: _conditional(by_name[name]) for name in _STAT_NAMES}
    q_c = by_name["r_center"][2] / samples
    q_e = by_name["r_edge"][2] / samples
    return RateReport(
        r_center=means["r_center"][0],
        r_edge=means["r_edge"][0],
        r_sum=means["r_sum"][0],
        q_center=q_c,
        q_edge=q_e,
        method="monte-carlo",
        stderr_center=means["r_center"][1],
        stderr_edge=means["r_edge"][1],
        stderr_sum=means["r_sum"][1],
        components=RateComponents(**{name: means[name][0] for name in _COMPONENT_NAMES}),
        component_stderr=RateComponents(**{name: means[name][1] for name in _COMPONENT_NAMES}),
    )


def estimate_point(
    params: SystemParams,
    split: PowerSplit,
    subcases: Sequence[Subcase],
    sim: SimConfig,
) -> list[RateReport]:
    """estimate_rates of every subcase, all on one shared draw.

    Each chunk is sampled and turned into link gains once; every subcase's
    rate kernel then runs on those gains. Report j is bit for bit
    estimate_rates(subcases[j], params, split, sim).
    """
    powers = stream_powers(params.P, split)
    streams = [_streams(subcase, params) for subcase in subcases]
    sizes = sim.chunk_sizes()

    def kernel(index: int) -> list[np.ndarray]:
        n = sizes[index]
        draw = sample_channels(params, sim.rng(index), n, out=_draw_buffers(n))
        gain_c = draw.link_gain(ReceiverClass.CENTER, params.alpha)
        gain_e = draw.link_gain(ReceiverClass.EDGE, params.alpha)
        return [_rate_kernel(params, powers, s, gain_c, gain_e) for s in streams]

    partials = _map_chunks(kernel, len(sizes), sim.workers)
    return [
        _report([chunk[j] for chunk in partials], sim.samples)
        for j in range(len(streams))
    ]


def estimate_rates(
    subcase: Subcase,
    params: SystemParams,
    split: PowerSplit,
    sim: SimConfig,
) -> RateReport:
    """Event-counting estimate of every rate quantity for one subcase.

    Per-receiver rates and the decomposition fields are conditional means
    over their defining events; empty events report 0. The sum rate is the
    mean of the total served rate given at least one receiver is served.
    """
    return estimate_point(params, split, (subcase,), sim)[0]
