"""Scalar system model for a two-class rate-splitting downlink.

One transmitter serves two receiver classes in a single cell. A center
receiver is dropped uniformly inside the disk of radius ``r_c`` around the
transmitter, an edge receiver uniformly in the annulus between ``r_e`` and
``r_0``. The transmitter superimposes three streams: a common stream that
both receivers must decode first, plus one private stream per class. With
total power ``P``, the common stream gets ``beta * P`` and the remainder is
split between the center and edge private streams in proportion ``rho`` to
``1 - rho``.

Decoding at a receiver is sequential: the common stream is decoded while
both private streams interfere, then the receiver's own private stream is
decoded with the common part removed. A receiver that has the other class's
scheduled content cached can additionally cancel the other private stream
before decoding anything (individual interference cancellation, "IIC"),
which changes every SINR it sees.

This module holds the plain scalar bookkeeping shared by the closed-form
distributions, the rate integrals and the simulator: parameter containers,
stream powers, the pre-log factors of the three delivery techniques (EFR,
unicast of a whole file; PFR, unicast of the uncached fraction; XOR, one
coded multicast serving all cached requests at once), and the one table of
SINR kinds, each a signal power over an interference power, from which the
distributions and every almost-sure SINR bound are derived.
"""

from __future__ import annotations

import enum
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


class ReceiverClass(enum.Enum):
    # members are singletons compared by identity, so the builtin identity
    # hash serves; Enum's own __hash__ is Python code, run for every dict key
    __hash__ = object.__hash__
    CENTER = "center"
    EDGE = "edge"

    @property
    def other(self) -> "ReceiverClass":
        return ReceiverClass.EDGE if self is ReceiverClass.CENTER else ReceiverClass.CENTER


class SinrKind(enum.Enum):
    """The six per-receiver SINR expressions.

    COMMON            common stream, both private streams interfere
    PRIVATE           own private stream after the common part is removed
    PRIVATE_INTERF    own private stream with the common part still present
                      (receiver skipped or failed the common stage)
    COMMON_IIC        common stream when the other private stream has been
                      cancelled from cache
    PRIVATE_IIC       own private stream, cache-cancelled case: noise only
    PRIVATE_INTERF_IIC  own private stream with only the common stream left
    """

    __hash__ = object.__hash__  # as ReceiverClass's
    COMMON = "common"
    PRIVATE = "private"
    PRIVATE_INTERF = "private-interf"
    COMMON_IIC = "common-iic"
    PRIVATE_IIC = "private-iic"
    PRIVATE_INTERF_IIC = "private-interf-iic"


@dataclass(frozen=True)
class SystemParams:
    """Cell geometry, channel and caching parameters with bundled defaults."""

    P: float = 10.0          # transmit power budget [W]
    sigma2: float = 1e-5     # receiver noise power
    alpha: float = 4.0       # path-loss exponent (> 2)
    r_c: float = 50.0        # center disk radius [m]
    r_e: float = 60.0        # annulus inner radius [m]
    r_0: float = 70.0        # annulus outer radius [m]
    K: int = 5               # receivers per class
    M: int = 30              # per-receiver cache size [files]
    N: int = 50              # cacheable catalog size [files]
    F: int = 100             # full library size [files], F >= N
    zeta: float = 0.5        # common-stream SINR threshold
    xi: float = 1.0          # private-stream rate threshold parameter
    u: float = 0.5           # common-rate share granted to the center class

    def __post_init__(self) -> None:
        # the negated comparisons also reject NaN
        if not (self.P >= 0 and self.sigma2 > 0):
            raise ValueError("need P >= 0 and sigma2 > 0")
        if self.sigma2 < sys.float_info.min:
            # a subnormal noise power underflows the rates' noise scales to 0
            raise ValueError("sigma2 must not be subnormal (below 2.2250738585072014e-308)")
        if math.isinf(self.P):
            # every SINR bound would be inf/inf; the high-power limit is
            # what the asymptotic rows report
            raise ValueError("P must be finite; use --asymptotic for the high-power limit")
        if not self.alpha > 2:
            raise ValueError("path-loss exponent must exceed 2")
        if not (0 < self.r_c <= self.r_e < self.r_0):
            raise ValueError("radii must satisfy 0 < r_c <= r_e < r_0")
        try:
            self.r_0**self.alpha
        except OverflowError:
            raise ValueError("r_0 ** alpha must fit a float") from None
        if not min(self.r_c * self.r_c, self.r_c**self.alpha) >= sys.float_info.min:
            # the position averages divide by r_c^2 and scale by r_c^alpha
            raise ValueError("r_c ** 2 and r_c ** alpha must not underflow")
        if self.K < 1 or self.M < 0 or self.N <= 0 or self.F < self.N:
            raise ValueError("need K >= 1, M >= 0, 0 < N <= F")
        if self.M >= self.N:
            raise ValueError("cache must be smaller than the cacheable catalog (M < N)")
        if not (self.zeta > 0 and self.xi > 0):
            raise ValueError("thresholds zeta and xi must be positive")
        if not 0.0 <= self.u <= 1.0:
            raise ValueError("common-rate share u must lie in [0, 1]")


@dataclass(frozen=True)
class PowerSplit:
    """Fractions carving the power budget: beta to common, rho of the rest to center."""

    beta: float = 0.5
    rho: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.beta <= 1.0 and 0.0 <= self.rho <= 1.0):
            raise ValueError("beta and rho must lie in [0, 1]")


@dataclass(frozen=True)
class StreamPowers:
    """Absolute per-stream powers (common, center private, edge private)."""

    p0: float
    pc: float
    pe: float

    def __post_init__(self) -> None:
        if self.p0 < 0 or self.pc < 0 or self.pe < 0:
            raise ValueError("stream powers must be nonnegative")

    def own(self, cls: ReceiverClass) -> float:
        return self.pc if cls is ReceiverClass.CENTER else self.pe

    def other(self, cls: ReceiverClass) -> float:
        return self.pe if cls is ReceiverClass.CENTER else self.pc


def stream_powers(P: float, split: PowerSplit) -> StreamPowers:
    """Allocate the power budget to the three streams.

    The three parts add back to P exactly up to float rounding.
    """
    p0 = split.beta * P
    rest = (1.0 - split.beta) * P
    return StreamPowers(p0=p0, pc=split.rho * rest, pe=(1.0 - split.rho) * rest)


def _ratio(num: float, den: float) -> float:
    # Almost-sure SINR bounds are power ratios; a vanishing denominator means
    # the interferer is off and the bound is infinite. The fully degenerate
    # 0/0 keeps the same convention but deserves a note, since the SINR
    # itself is then identically zero.
    if den == 0.0:
        if num == 0.0:
            warnings.warn(
                "0/0 SINR bound: stream and interferer powers both vanish; "
                "treating the bound as infinite by convention",
                RuntimeWarning,
                stacklevel=3,
            )
        return math.inf
    return num / den


# The one table of SINR kinds: kind -> (signal, interference) power as a
# function of the common, own private and other private stream powers.
# Noise enters every kind as sigma2 / L on top of the interference.
_SINR_POWERS: dict[SinrKind, Callable[[float, float, float], tuple[float, float]]] = {
    SinrKind.COMMON: lambda p0, pn, pk: (p0, pn + pk),
    SinrKind.PRIVATE: lambda p0, pn, pk: (pn, pk),
    SinrKind.PRIVATE_INTERF: lambda p0, pn, pk: (pn, p0 + pk),
    SinrKind.COMMON_IIC: lambda p0, pn, pk: (p0, pn),
    SinrKind.PRIVATE_IIC: lambda p0, pn, pk: (pn, 0.0),
    SinrKind.PRIVATE_INTERF_IIC: lambda p0, pn, pk: (pn, p0),
}


# What a receiver that cancels the other private stream from cache sees in
# place of each plain kind.
_IIC_VARIANT = {
    SinrKind.COMMON: SinrKind.COMMON_IIC,
    SinrKind.PRIVATE: SinrKind.PRIVATE_IIC,
    SinrKind.PRIVATE_INTERF: SinrKind.PRIVATE_INTERF_IIC,
}


def seen_kind(kind: SinrKind, iic: bool) -> SinrKind:
    """The kind a receiver sees: its cancellation variant when it cancels."""
    return _IIC_VARIANT[kind] if iic else kind


def sinr_powers(
    kind: SinrKind, cls: ReceiverClass, powers: StreamPowers
) -> tuple[float, float]:
    """(signal, interference) power of one SINR kind at one receiver class."""
    return _SINR_POWERS[kind](powers.p0, powers.own(cls), powers.other(cls))


def sinr_bound(kind: SinrKind, cls: ReceiverClass, powers: StreamPowers) -> float:
    """Noise-free SINR limit of one kind: its signal over its interference."""
    return _ratio(*sinr_powers(kind, cls, powers))


@dataclass(frozen=True)
class PrelogFactors:
    """Spectral-efficiency pre-log of each delivery technique.

    EFR sends a whole file to one receiver (factor 1). PFR sends only the
    uncached fraction 1 - M/N of one file. XOR sends one coded multicast
    that serves all K cached requests of a class simultaneously, so the
    per-receiver factor gains another 1 + KM/N.
    """

    efr: float
    pfr: float
    xor: float

    def by_index(self, index: int) -> float:
        """Technique lookup by position: 1 = EFR, 2 = PFR, 3 = XOR."""
        try:
            return (self.efr, self.pfr, self.xor)[index - 1]
        except IndexError:
            raise ValueError("pre-log index must be 1, 2 or 3") from None


def replication_degree(K: int, M: int, N: int) -> int:
    """Coded-caching replication degree t = M K / N, checked.

    Requires 0 < M < N and an integral t with 1 <= t <= K - 1, the regime
    where subfile placement is well defined.
    """
    if not 0 < M < N:
        raise ValueError("need 0 < M < N")
    t = Fraction(M * K, N)
    if t.denominator != 1 or not 1 <= t <= K - 1:
        raise ValueError(
            f"replication degree M*K/N = {t} must be an integer in [1, K-1]"
        )
    return int(t)


def prelog_factors(K: int, M: int, N: int) -> PrelogFactors:
    """Pre-log factors for a coded-caching configuration (see replication_degree)."""
    replication_degree(K, M, N)
    frac = 1.0 - M / N
    return PrelogFactors(efr=1.0, pfr=1.0 / frac, xor=(1.0 + M * K / N) / frac)


def private_sinr_threshold(omega: float, xi: float) -> float:
    """Minimum private-stream SINR that sustains the target rate.

    A private stream transmitted with pre-log omega meets the rate target
    log2(1 + xi) iff its SINR exceeds (1 + xi)^(1/omega) - 1. Larger omega
    therefore relaxes the SINR requirement.

    The power form is kept where it reaches 1, so its subtraction cancels
    at most one bit; below, 1 + xi or the power rounds away the digits of a
    small threshold (to 0 for xi under 2^-53), and expm1(log1p(xi)/omega)
    keeps them.
    """
    if omega <= 0:
        raise ValueError("pre-log factor must be positive")
    if xi <= 0:
        raise ValueError("threshold parameter must be positive")
    threshold = (1.0 + xi) ** (1.0 / omega) - 1.0
    if threshold < 1.0:
        threshold = math.expm1(math.log1p(xi) / omega)
    return threshold
