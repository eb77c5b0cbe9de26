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
worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .caching import Subcase
from .model import (
    PowerSplit,
    ReceiverClass,
    SinrKind,
    StreamPowers,
    SystemParams,
    private_sinr_threshold,
    stream_powers,
)
from .rates import RateComponents, RateReport, omega_value


@dataclass(frozen=True)
class SimConfig:
    """Sample count, stream seed, and the chunking that fixes the streams.

    chunk is part of the reproducibility key: changing it changes which
    Philox stream produces which draw. workers only changes scheduling.
    spawn prefixes the per-chunk stream keys so that sweeps can give every
    grid point an independent deterministic stream family.
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


@dataclass(frozen=True)
class ChannelDraw:
    """Vectorized batch of joint center/edge channel realizations."""

    d_c: np.ndarray
    d_e: np.ndarray
    h_c: np.ndarray
    h_e: np.ndarray

    def link_gain(self, cls: ReceiverClass, alpha: float) -> np.ndarray:
        h, d = (self.h_c, self.d_c) if cls is ReceiverClass.CENTER else (self.h_e, self.d_e)
        # h / (1 + d^alpha), in one buffer
        gain = d**alpha
        gain += 1.0
        return np.divide(h, gain, out=gain)


def sample_channels(params: SystemParams, rng: np.random.Generator, n: int) -> ChannelDraw:
    """Draw n joint realizations; the draw order is part of the contract."""
    u_c = rng.random(n)
    u_e = rng.random(n)
    h_c = rng.standard_exponential(n)
    h_e = rng.standard_exponential(n)
    # d_c = r_c sqrt(u_c) and d_e = sqrt(r_e^2 + u_e (r_0^2 - r_e^2)),
    # computed in the uniform draws' own buffers
    d_c = np.sqrt(u_c, out=u_c)
    d_c *= params.r_c
    d_e = u_e
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
) -> np.ndarray:
    # mirrors the scalar instantaneous_sinr ratio by ratio; kept literal so
    # the simulator never shares coefficients with the distribution module.
    # The denominator starts as the noise term and becomes the SINR in place.
    with np.errstate(divide="ignore"):
        den = sigma2 / gain
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
    dead = ~np.isfinite(den)
    with np.errstate(invalid="ignore"):
        out = np.divide(num, den, out=den)
    out[dead] = 0.0
    return out


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
        draw = sample_channels(params, sim.rng(index), sizes[index])
        eta = _sinr_vec(kind, cls, powers, draw.link_gain(cls, params.alpha), params.sigma2)
        return int(np.count_nonzero(eta > t))

    hits = sum(_map_chunks(kernel, len(sizes), sim.workers))
    p = hits / sim.samples
    return p, math.sqrt(p * (1.0 - p) / sim.samples)


_STAT_NAMES = (
    "r0_both",
    "r0_center_only",
    "r0_edge_only",
    "rs0_center",
    "rs0_edge",
    "rp_center",
    "rp_edge",
    "rpi_center",
    "rpi_edge",
    "r_center",
    "r_edge",
    "r_sum",
)

_TRACE_SINRS = ("sinr_c0", "sinr_e0", "sinr_cp", "sinr_ep", "sinr_cpI", "sinr_epI")
_TRACE_HEADER = ",".join(
    ("draw", "d_c", "d_e", "h_c", "h_e", *_TRACE_SINRS, "branch_c", "branch_e")
)


def _accumulate(values: np.ndarray, mask: np.ndarray) -> tuple[float, float, float]:
    hit = values[mask]
    total = float(hit.sum())
    return total, float(np.multiply(hit, hit, out=hit).sum()), float(hit.size)


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
    w_c = omega_value(params, subcase.prelog_index(ReceiverClass.CENTER))
    w_e = omega_value(params, subcase.prelog_index(ReceiverClass.EDGE))
    iic_c = subcase.iic_at is ReceiverClass.CENTER
    iic_e = subcase.iic_at is ReceiverClass.EDGE
    return _SubcaseStreams(
        common_c=SinrKind.COMMON_IIC if iic_c else SinrKind.COMMON,
        common_e=SinrKind.COMMON_IIC if iic_e else SinrKind.COMMON,
        private_c=SinrKind.PRIVATE_IIC if iic_c else SinrKind.PRIVATE,
        private_e=SinrKind.PRIVATE_IIC if iic_e else SinrKind.PRIVATE,
        interf_c=SinrKind.PRIVATE_INTERF_IIC if iic_c else SinrKind.PRIVATE_INTERF,
        interf_e=SinrKind.PRIVATE_INTERF_IIC if iic_e else SinrKind.PRIVATE_INTERF,
        w_c=w_c,
        w_e=w_e,
        xi_c=private_sinr_threshold(w_c, params.xi),
        xi_e=private_sinr_threshold(w_e, params.xi),
    )


def _branch_labels(dec, dec_other, priv, interf) -> np.ndarray:
    common = np.where(dec, np.where(dec_other, "b", "o"), "-")
    extra = np.where(priv, "p", np.where(interf, "i", ""))
    return np.char.add(common.astype("U1"), extra.astype("U1"))


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
    dec_c = eta0_c > params.zeta
    dec_e = eta0_e > params.zeta
    both = dec_c & dec_e
    log0_c = _log_rate(eta0_c, 1.0)
    log0_e = _log_rate(eta0_e, 1.0)
    min0 = np.minimum(log0_c, log0_e)
    stats = [
        _accumulate(min0, both),
        _accumulate(log0_c, dec_c & ~dec_e),
        _accumulate(log0_e, dec_e & ~dec_c),
    ]

    # common-stream contribution given own decode: time-shared min rate if
    # the partner decoded too, otherwise the full slot at the own SINR
    alone = ~both
    rs0_c = params.u * min0
    np.copyto(rs0_c, log0_c, where=alone)
    rs0_c *= streams.w_c
    rs0_e = np.multiply(1.0 - params.u, min0, out=min0)
    np.copyto(rs0_e, log0_e, where=alone)
    rs0_e *= streams.w_e
    stats += [_accumulate(rs0_c, dec_c), _accumulate(rs0_e, dec_e)]

    np.copyto(rs0_c, 0.0, where=~dec_c)
    np.copyto(rs0_e, 0.0, where=~dec_e)
    return dec_c, dec_e, rs0_c, rs0_e, stats


def _private_stage(
    served: np.ndarray,
    dec: np.ndarray,
    eta_p: np.ndarray,
    eta_i: np.ndarray,
    xi: float,
    w: float,
) -> tuple[np.ndarray, np.ndarray, tuple, tuple]:
    """Add one receiver's private-stream rates to its served rate in place.

    Returns the private decode events (after the common decode, and with
    the common stream left in the interference) and their statistics. The
    SINR buffers are overwritten.
    """
    priv = dec & (eta_p > xi)
    intf = ~dec & (eta_i > xi)
    rp = _log_rate(eta_p, w)
    ri = _log_rate(eta_i, w)
    # every rate term is >= +0, so adding only where an event holds gives
    # the same bits as adding an explicit 0.0 elsewhere
    np.add(served, rp, out=served, where=priv)
    np.add(served, ri, out=served, where=intf)
    return priv, intf, _accumulate(rp, priv), _accumulate(ri, intf)


def _rate_kernel(
    subcase: Subcase,
    params: SystemParams,
    split: PowerSplit,
    streams: _SubcaseStreams,
    draw: ChannelDraw,
    base: int,
    trace: list[str] | None,
) -> np.ndarray:
    powers = stream_powers(params.P, split)
    gain_c = draw.link_gain(ReceiverClass.CENTER, params.alpha)
    gain_e = draw.link_gain(ReceiverClass.EDGE, params.alpha)
    # each SINR array is made when it is needed and turned into a rate in
    # place, so few draw-sized buffers are alive at once; the trace keeps
    # copies of the SINRs by column name
    traced: dict[str, np.ndarray] = {}

    def sinr(column: str, kind: SinrKind, cls: ReceiverClass, gain: np.ndarray) -> np.ndarray:
        eta = _sinr_vec(kind, cls, powers, gain, params.sigma2)
        if trace is not None:
            traced[column] = eta.copy()
        return eta

    center, edge = ReceiverClass.CENTER, ReceiverClass.EDGE
    dec_c, dec_e, served_c, served_e, stats = _common_stage(
        sinr("sinr_c0", streams.common_c, center, gain_c),
        sinr("sinr_e0", streams.common_e, edge, gain_e),
        params,
        streams,
    )
    priv_c, intf_c, acc_rp_c, acc_ri_c = _private_stage(
        served_c,
        dec_c,
        sinr("sinr_cp", streams.private_c, center, gain_c),
        sinr("sinr_cpI", streams.interf_c, center, gain_c),
        streams.xi_c,
        streams.w_c,
    )
    priv_e, intf_e, acc_rp_e, acc_ri_e = _private_stage(
        served_e,
        dec_e,
        sinr("sinr_ep", streams.private_e, edge, gain_e),
        sinr("sinr_epI", streams.interf_e, edge, gain_e),
        streams.xi_e,
        streams.w_e,
    )
    eps_c = dec_c | intf_c
    eps_e = dec_e | intf_e
    stats += [
        acc_rp_c,
        acc_rp_e,
        acc_ri_c,
        acc_ri_e,
        _accumulate(served_c, eps_c),
        _accumulate(served_e, eps_e),
    ]
    served_c += served_e
    stats.append(_accumulate(served_c, eps_c | eps_e))

    if trace is not None:
        label_c = _branch_labels(dec_c, dec_e, priv_c, intf_c)
        label_e = _branch_labels(dec_e, dec_c, priv_e, intf_e)
        cols = (draw.d_c, draw.d_e, draw.h_c, draw.h_e,
                *(traced[name] for name in _TRACE_SINRS))
        for i in range(draw.d_c.size):
            row = ",".join("%.9g" % col[i] for col in cols)
            trace.append(f"{base + i},{row},{label_c[i]},{label_e[i]}")
    return np.concatenate(stats)


def estimate_rates(
    subcase: Subcase,
    params: SystemParams,
    split: PowerSplit,
    sim: SimConfig,
    trace_path: str | None = None,
) -> RateReport:
    """Event-counting estimate of every rate quantity for one subcase.

    Per-receiver rates and the decomposition fields are conditional means
    over their defining events; empty events report 0. The sum rate is the
    mean of the total served rate given at least one receiver is served.
    """
    streams = _streams(subcase, params)
    sizes = sim.chunk_sizes()
    offsets = [0] * len(sizes)
    for i in range(1, len(sizes)):
        offsets[i] = offsets[i - 1] + sizes[i - 1]
    traces: list[list[str] | None] = [
        [] if trace_path is not None else None for _ in sizes
    ]

    def kernel(index: int) -> np.ndarray:
        draw = sample_channels(params, sim.rng(index), sizes[index])
        return _rate_kernel(
            subcase, params, split, streams, draw, offsets[index], traces[index]
        )

    partials = _map_chunks(kernel, len(sizes), sim.workers)

    # chunk-order exact reduction: identical totals at any worker count
    totals = np.array(
        [math.fsum(p[j] for p in partials) for j in range(len(_STAT_NAMES) * 3)]
    ).reshape(len(_STAT_NAMES), 3)

    if trace_path is not None:
        with open(trace_path, "w", encoding="ascii", newline="") as fh:
            fh.write(_TRACE_HEADER + "\n")
            for rows in traces:
                assert rows is not None
                fh.write("\n".join(rows))
                if rows:
                    fh.write("\n")

    by_name = dict(zip(_STAT_NAMES, totals))
    means = {name: _conditional(by_name[name]) for name in _STAT_NAMES}
    q_c = by_name["r_center"][2] / sim.samples
    q_e = by_name["r_edge"][2] / sim.samples
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
        components=RateComponents(
            **{name: means[name][0] for name in _STAT_NAMES[:9]}
        ),
        component_stderr=RateComponents(
            **{name: means[name][1] for name in _STAT_NAMES[:9]}
        ),
    )
