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
worker count. A draw depends only on draw_inputs (r_c, r_e, r_0, alpha),
so estimate_points takes the slots (rates.slot) of several working points,
samples each chunk once and forms its link gains once for all of them,
then runs one kernel per variant, a distinct (params, split, iic_at). A
variant's kernel runs each step once per receiver: its SINRs, decode
event, log-rates and common share once per variant, its route events and
served rate with their statistics once per distinct pre-log, and each
distinct pre-log pair only adds its two served rates, shared by every
slot that repeats it. Each slot gets the report estimate_rates gives a
subcase with that slot alone on the same SimConfig. The kernel takes the
statistics of the served and sum rates and, unless the caller turns
components off, of the nine RateComponents; a sweep writes no component
and turns them off, which skips about two thirds of its kernel's
statistics.

Memory: once warm, the kernel allocates no draw-sized array. Each thread
keeps a workspace of named draw-sized buffers, 9 float64 plus one per
distinct edge pre-log, and 4 bool plus an event pair per receiver and
distinct pre-log (at most 12 float64 and 16 bool over a roster of the
three pre-logs: about 11 MB at 100 000 draws, 15 MB at the default
131 072-draw chunk), that grows on demand and lasts across chunks and
across estimate calls; the draws, link gains, SINRs, rates and event
masks are all written into it; the variants of a chunk take turns with
the same buffers. With two or more workers the pool
threads, and so their buffers, last only for one call. Buffer reuse never
changes a value: every array is filled by the same operations in the same
order as a fresh one would be.
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
from .rates import RateComponents, RateReport, Slot, slot


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
    out: tuple[np.ndarray, ...],
) -> ChannelDraw:
    """Draw n joint realizations; the draw order is part of the contract.

    out holds four float64 arrays of length n that become d_c, d_e, h_c
    and h_e; the draw overwrites whatever they held.
    """
    d_c, d_e, h_c, h_e = out
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


# the statistics each subcase accumulates, in this order: the components
# in RateComponents' field order, then the served and sum rates
_COMPONENT_NAMES = tuple(f.name for f in fields(RateComponents))
_STAT_NAMES = (*_COMPONENT_NAMES, "r_center", "r_edge", "r_sum")


#: draws per step of the gather in _accumulate; its index arrays stay small
#: enough for malloc to serve from the heap instead of fresh pages
_GATHER_BLOCK = 8192


def _accumulate(
    values: np.ndarray, mask: np.ndarray, scale: float = 1.0
) -> tuple[float, float, float]:
    """Sum, sum of squares and count of values * scale where mask holds.

    The hits are gathered in order into one contiguous workspace array and
    scaled there, so the pairwise sums see exactly (values * scale)[mask]:
    an elementwise product commutes with the gather.
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
    if scale != 1.0:
        hit *= scale
    total = float(hit.sum())
    return total, float(np.multiply(hit, hit, out=hit).sum()), float(count)


def _and_not(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a & ~b, written into out (which may be b but not a)."""
    np.invert(b, out=out)
    return np.logical_and(a, out, out=out)


def _log_rate(eta: np.ndarray) -> np.ndarray:
    """log2(1 + eta), computed in eta's own buffer."""
    eta += 1.0
    return np.log2(eta, out=eta)


def _conditional(total: np.ndarray) -> tuple[float, float]:
    s, ss, c = total
    if c <= 0.0:
        return 0.0, 0.0
    mean = s / c
    var = max(ss / c - mean * mean, 0.0)
    return mean, math.sqrt(var / c)


def draw_inputs(params: SystemParams) -> tuple[float, ...]:
    """The only parameters a draw and its link gains depend on."""
    return params.r_c, params.r_e, params.r_0, params.alpha


def _served(
    base: np.ndarray,
    dec: np.ndarray,
    rates: tuple[np.ndarray, np.ndarray],
    events: tuple[np.ndarray, np.ndarray],
    w: float,
    out: np.ndarray,
    components: bool,
) -> tuple[np.ndarray, np.ndarray, list]:
    """One receiver's served rate at pre-log w, written into out.

    base is the unweighted common-stream share, +0 where dec does not hold,
    rates and events the two private routes' log-rates and events. Returns the served rate, the
    served event (own decode or the interference route), which is written
    over the interference route's event, and the statistics of the common
    share and of each route (only with components), then of the served
    rate. Every rate term is finite and >= +0, so adding rate * event gives
    the same bits as adding only where the event holds.
    """
    served = np.multiply(base, w, out=out)
    stats = [_accumulate(base, dec, w)] if components else []
    for rate, event in zip(rates, events):
        term = np.multiply(rate, w, out=_floats("hit", rate.size))
        term *= event
        served += term
        if components:
            stats.append(_accumulate(rate, event, w))
    eps = np.logical_or(dec, events[1], out=events[1])
    stats.append(_accumulate(served, eps))
    return served, eps, stats


#: each receiver's tag in buffer names and the buffers of its common SINR,
#: its common share and its private and interference SINRs. The draw's
#: fading buffers are dead once the gains are formed; the edge's share
#: overwrites min0, and the center's private SINRs take the fading buffers
#: once both shares are formed.
_BUFFERS = {
    ReceiverClass.CENTER: ("c", "h_c", "base_c", ("h_c", "h_e")),
    ReceiverClass.EDGE: ("e", "h_e", "min0", ("eta_pe", "eta_ie")),
}


def _variant_kernel(
    params: SystemParams,
    powers: StreamPowers,
    iic_at: ReceiverClass | None,
    prelogs: Sequence[tuple[float, float]],
    gains: dict[ReceiverClass, np.ndarray],
    components: bool,
) -> dict[tuple[float, float], np.ndarray]:
    """The statistics of a variant's distinct pre-log pairs over one chunk's gains.

    Each step runs once per receiver. Its SINRs, decode event, log-rates
    and common share depend on the subcase only through the variant, its
    route events, served rate and their statistics only through the
    receiver's pre-log, so each is formed once per variant or per distinct
    pre-log; each pair then only adds its two served rates and takes the
    sum's statistic. The gains are only read, so every variant of a point
    runs on the same ones. Without components a pair's statistics are only
    the served and sum ones, the last three of _STAT_NAMES.
    """
    n = gains[ReceiverClass.CENTER].size
    center, edge = _BUFFERS
    one = _mask("one", n)
    # each receiver's distinct pre-logs, in first-seen order
    ws = dict(zip(_BUFFERS, (dict.fromkeys(side) for side in zip(*prelogs))))

    def sinr(kind: SinrKind, cls: ReceiverClass, name: str) -> np.ndarray:
        seen = seen_kind(kind, iic_at is cls)
        return _sinr_vec(seen, cls, powers, gains[cls], params.sigma2, _floats(name, n))

    # the decode event is taken on the common SINR before it becomes a
    # log-rate in place
    log0, dec = {}, {}
    for cls, (tag, name, _, _) in _BUFFERS.items():
        log0[cls] = sinr(SinrKind.COMMON, cls, name)
        dec[cls] = np.greater(log0[cls], params.zeta, out=_mask("dec_" + tag, n))
        _log_rate(log0[cls])
    both = np.logical_and(dec[center], dec[edge], out=_mask("both", n))
    min0 = np.minimum(log0[center], log0[edge], out=_floats("min0", n))
    head = [_accumulate(min0, both)] if components else []

    # unweighted common-stream share, +0 where the receiver does not
    # decode: time-shared min rate if the partner decoded too, otherwise
    # the full slot at the own SINR. Every rate is finite and >= +0, so
    # x * mask + y * other_mask picks x, y or +0 bit for bit; the own
    # log-rate is dead after this and takes the masked term.
    base = {}
    for cls, (_, _, name, _) in _BUFFERS.items():
        alone = _and_not(dec[cls], dec[cls.other], one)
        if components:
            head.append(_accumulate(log0[cls], alone))
        share = params.u if cls is center else 1.0 - params.u
        base[cls] = np.multiply(share, min0, out=_floats(name, n))
        base[cls] *= both
        base[cls] += np.multiply(log0[cls], alone, out=log0[cls])

    # the route events are taken on the private SINRs, one pair per
    # distinct pre-log, before the SINRs become log-rates in place: own
    # decode and private SINR above the threshold, or no decode and the
    # SINR against the common stream above it
    rates, events = {}, {}
    for cls, (tag, _, _, (name_p, name_i)) in _BUFFERS.items():
        eta_p, eta_i = rates[cls] = (
            sinr(SinrKind.PRIVATE, cls, name_p), sinr(SinrKind.PRIVATE_INTERF, cls, name_i)
        )
        events[cls] = {}
        for k, w in enumerate(ws[cls]):
            xi_w = private_sinr_threshold(w, params.xi)
            priv = np.greater(eta_p, xi_w, out=_mask(f"priv_{tag}{k}", n))
            np.logical_and(dec[cls], priv, out=priv)
            above = np.greater(eta_i, xi_w, out=one)
            events[cls][w] = priv, _and_not(above, dec[cls], _mask(f"intf_{tag}{k}", n))
        for eta in rates[cls]:
            _log_rate(eta)

    def served(cls: ReceiverClass, w: float, out: np.ndarray) -> tuple:
        return _served(base[cls], dec[cls], rates[cls], events[cls][w], w, out, components)

    # the edge side goes first and keeps its served rates; after its last
    # pass the edge log-rates are dead and take the center's served rate
    # and the sum
    edge_side = {w: served(edge, w, _floats(f"served_e{k}", n)) for k, w in enumerate(ws[edge])}
    out = {}
    for w_c in ws[center]:
        served_c, eps_c, stats_c = served(center, w_c, rates[edge][0])
        for w_e in (w_e for pair_c, w_e in prelogs if pair_c == w_c):
            served_e, eps_e, stats_e = edge_side[w_e]
            total = np.add(served_c, served_e, out=rates[edge][1])
            r_sum = _accumulate(total, np.logical_or(eps_c, eps_e, out=one))
            # (rs0, rp, ri and) the served rate, center before edge, then the sum
            paired = [stat for pair in zip(stats_c, stats_e) for stat in pair]
            out[w_c, w_e] = np.concatenate([*head, *paired, r_sum])
    return out


def _report(partials: list[np.ndarray], samples: int) -> RateReport:
    """The RateReport of one subcase from its per-chunk statistics.

    The statistics are the last len(partials[0]) / 3 of _STAT_NAMES; the
    components a slot did not estimate stay zero.
    """
    names = _STAT_NAMES[len(_STAT_NAMES) - partials[0].size // 3 :]
    # chunk-order exact reduction: identical totals at any worker count
    totals = np.array(
        [math.fsum(p[j] for p in partials) for j in range(len(names) * 3)]
    ).reshape(len(names), 3)

    by_name = dict(zip(names, totals))
    means = {name: _conditional(total) for name, total in by_name.items()}
    estimated = names[:-3]
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
        components=RateComponents(**{name: means[name][0] for name in estimated}),
        component_stderr=RateComponents(**{name: means[name][1] for name in estimated}),
    )


def estimate_points(
    slots: Sequence[Slot], sim: SimConfig, *, components: bool = True
) -> list[RateReport]:
    """The report of every slot, all on one shared draw, in order.

    The slots must agree on draw_inputs. Each chunk is sampled and turned
    into link gains once, and each variant's kernel runs once over the
    variant's distinct pre-log pairs, so repeated slots share their
    statistics. Each report is bit for bit estimate_rates of a subcase with
    that slot on sim; without components it is the same report with
    components and component_stderr left zero, and the kernel skips their
    statistics (a sweep writes none).
    """
    params = slots[0][0]
    if any(draw_inputs(key[0]) != draw_inputs(params) for key in slots):
        raise ValueError("slots on one draw must share r_c, r_e, r_0 and alpha")
    # each variant, a distinct (params, split, iic_at), and its distinct
    # pre-log pairs, in first-seen order
    variants: dict[tuple, list[tuple[float, float]]] = {}
    for p, split, iic_at, w_c, w_e in dict.fromkeys(slots):
        variants.setdefault((p, split, iic_at), []).append((w_c, w_e))
    sizes = sim.chunk_sizes()

    def kernel(index: int) -> dict[Slot, np.ndarray]:
        n = sizes[index]
        draw = sample_channels(params, sim.rng(index), n, out=_draw_buffers(n))
        gains = {cls: draw.link_gain(cls, params.alpha) for cls in _BUFFERS}
        stats: dict[Slot, np.ndarray] = {}
        for (p, split, iic_at), prelogs in variants.items():
            powers = stream_powers(p.P, split)
            pairs = _variant_kernel(p, powers, iic_at, prelogs, gains, components)
            stats.update({(p, split, iic_at, *pair): value for pair, value in pairs.items()})
        return stats

    partials = _map_chunks(kernel, len(sizes), sim.workers)
    reports = {key: _report([c[key] for c in partials], sim.samples) for key in partials[0]}
    return [reports[key] for key in slots]


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
    return estimate_points([slot(subcase, params, split)], sim)[0]
