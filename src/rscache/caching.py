"""Cache placement, coded delivery and the served subcases.

Two placement policies coexist in the cell. A class under "most popular
content" (MPC) placement stores the top M files whole, so only requests of
rank > M ever reach the transmitter, and one such request is scheduled per
slot (worst case: at least one request is assumed not locally served). A
class under coded caching (CC) splits each of the top N files into
C(K, t) subfiles with t = M K / N and stores at receiver i every subfile
indexed by a t-subset containing i; all K requests of rank <= N can then be
served together by XOR multicasts, one per (t+1)-subset of receivers.

Delivery technique per served class:
  EFR  whole file unicast (rank beyond anything cached),
  PFR  unicast of the uncached 1 - M/N fraction (rank <= N, single receiver),
  XOR  the coded multicast round (all K ranks <= N).

A receiver whose class uses MPC placement can cancel the other class's
stream from cache ("IIC") exactly when everything the other class is being
served has rank <= M, since those files sit in its cache in full.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .model import ReceiverClass, replication_degree


class Mode(enum.Enum):
    """Placement policy assignment (center class / edge class)."""

    ALL_MPC = "all-mpc"
    CC_MPC = "cc-mpc"
    MPC_CC = "mpc-cc"
    ALL_CC = "all-cc"

    def is_cc(self, cls: ReceiverClass) -> bool:
        if cls is ReceiverClass.CENTER:
            return self in (Mode.CC_MPC, Mode.ALL_CC)
        return self in (Mode.MPC_CC, Mode.ALL_CC)


class Technique(enum.Enum):
    """Delivery technique; the value doubles as the pre-log index."""

    EFR = 1
    PFR = 2
    XOR = 3


@dataclass(frozen=True)
class CodedCacheConfig:
    """K receivers, cache size M files, cacheable catalog of N files."""

    K: int
    M: int
    N: int

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError("coded caching needs at least two receivers")
        replication_degree(self.K, self.M, self.N)

    @property
    def t(self) -> int:
        """Replication degree: how many receivers share each subfile."""
        return self.M * self.K // self.N

    @property
    def subfiles_per_file(self) -> int:
        return math.comb(self.K, self.t)


@dataclass(frozen=True, order=True)
class Subfile:
    """Piece of file ``f`` cached by exactly the receivers in ``group``."""

    f: int
    group: tuple[int, ...]


@dataclass(frozen=True)
class PlacementMap:
    """Subfile layout of a coded-caching class."""

    cfg: CodedCacheConfig
    _by_file: Mapping[int, tuple[Subfile, ...]] = field(repr=False)

    def subfiles(self, f: int) -> tuple[Subfile, ...]:
        """All subfiles of file f, t-subsets in lexicographic order."""
        return self._by_file[f]

    def cached(self, f: int, receiver: int) -> tuple[Subfile, ...]:
        """Subfiles of file f held by one receiver."""
        if not 1 <= receiver <= self.cfg.K:
            raise ValueError("receiver index out of range")
        return tuple(s for s in self._by_file[f] if receiver in s.group)


def cc_place(cfg: CodedCacheConfig) -> PlacementMap:
    """Uncoded symmetric placement: file f is split along t-subsets of receivers."""
    groups = [tuple(g) for g in combinations(range(1, cfg.K + 1), cfg.t)]
    by_file = {
        f: tuple(Subfile(f=f, group=g) for g in groups) for f in range(1, cfg.N + 1)
    }
    return PlacementMap(cfg=cfg, _by_file=by_file)


@dataclass(frozen=True)
class XorTransmission:
    """One multicast: the XOR of ``parts``, useful to everyone in ``group``.

    parts[i] is the subfile wanted by group[i] and cached by everyone else
    in the group.
    """

    group: tuple[int, ...]
    parts: tuple[Subfile, ...]


@dataclass(frozen=True)
class DeliverySchedule:
    cfg: CodedCacheConfig
    demands: tuple[int, ...]
    transmissions: tuple[XorTransmission, ...]
    subfile_size: Fraction
    per_receiver_load: Fraction


def cc_delivery_schedule(
    cfg: CodedCacheConfig, demands: Sequence[int]
) -> DeliverySchedule:
    """XOR schedule serving all K demands (ranks within the cacheable catalog).

    For every (t+1)-subset S of receivers, one transmission XORs the
    subfiles S_{d_k, S \\ {k}} over k in S; each member then cancels every
    other part from cache. The per-receiver load comes out to
    (1 - M/N) / (1 + K M / N) of a file regardless of the demand vector.
    """
    if len(demands) != cfg.K:
        raise ValueError(f"need exactly K={cfg.K} demands")
    if any(not 1 <= d <= cfg.N for d in demands):
        raise ValueError("coded delivery serves only ranks within the catalog (<= N)")
    d = dict(zip(range(1, cfg.K + 1), demands))
    txs = []
    for group in combinations(range(1, cfg.K + 1), cfg.t + 1):
        parts = tuple(
            Subfile(f=d[k], group=tuple(i for i in group if i != k)) for k in group
        )
        txs.append(XorTransmission(group=group, parts=parts))
    size = Fraction(1, cfg.subfiles_per_file)
    load = Fraction(cfg.K - cfg.t, cfg.K * (cfg.t + 1))
    assert load == Fraction(cfg.N - cfg.M, cfg.N) / (1 + Fraction(cfg.K * cfg.M, cfg.N))
    return DeliverySchedule(
        cfg=cfg,
        demands=tuple(demands),
        transmissions=tuple(txs),
        subfile_size=size,
        per_receiver_load=load,
    )


@dataclass(frozen=True)
class Subcase:
    """One served configuration: technique per class plus the IIC flag."""

    mode: Mode
    center: Technique
    edge: Technique
    iic_at: ReceiverClass | None

    def __post_init__(self) -> None:
        for cls, tech in ((ReceiverClass.CENTER, self.center), (ReceiverClass.EDGE, self.edge)):
            if not self.mode.is_cc(cls) and tech is not Technique.EFR:
                raise ValueError("an MPC class always unicasts one whole file")
        if self.iic_at is not None:
            if self.mode.is_cc(self.iic_at):
                raise ValueError("only an MPC-placement receiver can cache-cancel")
            other_tech = self.edge if self.iic_at is ReceiverClass.CENTER else self.center
            if other_tech is Technique.EFR:
                raise ValueError("cancellation needs the other stream cached (rank <= M)")

    @property
    def token(self) -> str:
        base = f"{self.center.name.lower()}/{self.edge.name.lower()}"
        if self.iic_at is ReceiverClass.CENTER:
            return base + "+iic-c"
        if self.iic_at is ReceiverClass.EDGE:
            return base + "+iic-e"
        return base

    def prelog_index(self, cls: ReceiverClass) -> int:
        return (self.center if cls is ReceiverClass.CENTER else self.edge).value


def parse_subcase_token(mode: Mode, token: str) -> Subcase:
    """Invert ``Subcase.token``: e.g. 'xor/efr+iic-e'."""
    body, _, tag = token.partition("+")
    try:
        center, edge = body.split("/")
    except ValueError:
        raise ValueError(f"malformed subcase token {token!r}") from None
    try:
        c, e = Technique[center.upper()], Technique[edge.upper()]
    except KeyError as exc:
        raise ValueError(f"unknown delivery technique {exc.args[0].lower()!r}") from None
    iic_tags = {"": None, "iic-c": ReceiverClass.CENTER, "iic-e": ReceiverClass.EDGE}
    if tag not in iic_tags:
        raise ValueError(f"unknown IIC tag {tag!r}")
    return Subcase(mode=mode, center=c, edge=e, iic_at=iic_tags[tag])
