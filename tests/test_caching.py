"""Coded caching: placement invariants, delivery decodability, classification.

Placement and delivery are checked exhaustively for every valid
configuration with K <= 6 and a small catalog: each receiver must be able
to reassemble its demanded file from its cache plus the XOR round alone.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from rscache.caching import (
    CodedCacheConfig,
    Mode,
    Technique,
    cc_delivery_schedule,
    cc_place,
    parse_subcase_token,
)
from rscache.model import ReceiverClass, SystemParams

from oracles import classify_subcase, sample_requests


def small_configs(max_k=6, max_n=12):
    for K in range(2, max_k + 1):
        for N in range(2, max_n + 1):
            for M in range(1, N):
                t = Fraction(M * K, N)
                if t.denominator == 1 and 1 <= t <= K - 1:
                    yield CodedCacheConfig(K=K, M=M, N=N)


ALL_SMALL = list(small_configs())


def test_the_small_config_family_is_nonempty():
    assert len(ALL_SMALL) > 30


@pytest.mark.parametrize("cfg", ALL_SMALL, ids=lambda c: f"K{c.K}M{c.M}N{c.N}")
def test_placement_invariants(cfg):
    layout = cc_place(cfg)
    all_groups = set(combinations(range(1, cfg.K + 1), cfg.t))
    for f in range(1, cfg.N + 1):
        subs = layout.subfiles(f)
        # every t-subset appears exactly once, in lexicographic order
        assert [s.group for s in subs] == sorted(all_groups)
        for s in subs:
            assert len(s.group) == cfg.t
    # per-receiver storage adds up to exactly M files
    for receiver in range(1, cfg.K + 1):
        per_file = len(layout.cached(1, receiver))
        assert per_file == math.comb(cfg.K - 1, cfg.t - 1)
        stored_files = Fraction(cfg.N * per_file, cfg.subfiles_per_file)
        assert stored_files == cfg.M


def decodes(cfg, layout, demands) -> bool:
    """Can every receiver rebuild its demand from cache plus the round?"""
    schedule = cc_delivery_schedule(cfg, demands)
    for tx in schedule.transmissions:
        # the XOR is useful only if each member caches all other parts
        for k, part in zip(tx.group, tx.parts):
            for j, other in zip(tx.group, tx.parts):
                if j != k and k not in other.group:
                    return False
    for receiver, demand in zip(range(1, cfg.K + 1), demands):
        have = set(layout.cached(demand, receiver))
        for tx in schedule.transmissions:
            for k, part in zip(tx.group, tx.parts):
                if k == receiver:
                    have.add(part)
        if set(layout.subfiles(demand)) - have:
            return False
    return True


@pytest.mark.parametrize("cfg", ALL_SMALL, ids=lambda c: f"K{c.K}M{c.M}N{c.N}")
def test_every_demand_vector_decodes(cfg):
    layout = cc_place(cfg)
    if cfg.N**cfg.K <= 4096:
        vectors = product(range(1, cfg.N + 1), repeat=cfg.K)
    else:
        rng = np.random.default_rng(3)
        vectors = (
            tuple(int(x) for x in rng.integers(1, cfg.N + 1, size=cfg.K))
            for _ in range(60)
        )
    for demands in vectors:
        assert decodes(cfg, layout, demands)


@pytest.mark.parametrize("cfg", ALL_SMALL, ids=lambda c: f"K{c.K}M{c.M}N{c.N}")
def test_load_formula(cfg):
    schedule = cc_delivery_schedule(cfg, [1] * cfg.K)
    load = schedule.per_receiver_load
    assert load == Fraction(cfg.K - cfg.t, cfg.K * (cfg.t + 1))
    assert load == Fraction(cfg.N - cfg.M, cfg.N) / (1 + Fraction(cfg.K * cfg.M, cfg.N))
    # the whole round, spread over the K served receivers
    total = len(schedule.transmissions) * schedule.subfile_size
    assert load == total / cfg.K


def test_worked_example_subfile_sets():
    # K=5 receivers caching M=6 of N=10 files: t = 3, ten subfiles per file,
    # and receiver 1 stores the six 3-subsets containing it
    cfg = CodedCacheConfig(K=5, M=6, N=10)
    layout = cc_place(cfg)
    assert cfg.t == 3
    assert cfg.subfiles_per_file == 10
    groups = [s.group for s in layout.cached(1, 1)]
    assert groups == [
        (1, 2, 3),
        (1, 2, 4),
        (1, 2, 5),
        (1, 3, 4),
        (1, 3, 5),
        (1, 4, 5),
    ]
    schedule = cc_delivery_schedule(cfg, [1, 2, 3, 4, 5])
    assert len(schedule.transmissions) == 5  # C(5, 4) groups
    assert schedule.subfile_size == Fraction(1, 10)
    assert schedule.per_receiver_load == Fraction(1, 10)


def test_default_parameters_load():
    cfg = CodedCacheConfig(K=5, M=30, N=50)
    schedule = cc_delivery_schedule(cfg, [1, 2, 3, 4, 5])
    assert float(schedule.per_receiver_load) == pytest.approx(0.1)


def test_invalid_configs_are_rejected():
    with pytest.raises(ValueError, match="integer"):
        CodedCacheConfig(K=5, M=7, N=10)
    with pytest.raises(ValueError):
        CodedCacheConfig(K=1, M=1, N=2)
    with pytest.raises(ValueError):
        CodedCacheConfig(K=2, M=2, N=2)
    # t = K is as invalid as a fractional t
    with pytest.raises(ValueError):
        CodedCacheConfig(K=2, M=3, N=3)


def test_delivery_rejects_out_of_catalog_demands():
    cfg = CodedCacheConfig(K=2, M=1, N=2)
    with pytest.raises(ValueError):
        cc_delivery_schedule(cfg, [1, 3])
    with pytest.raises(ValueError):
        cc_delivery_schedule(cfg, [1])


PARAMS = SystemParams()  # M=30, N=50, K=5, F=100


def test_classify_all_cc_xor_round():
    rng = np.random.default_rng(0)
    sub = classify_subcase(Mode.ALL_CC, [1, 2, 3, 4, 5], [10, 20, 30, 40, 50], PARAMS, rng)
    assert sub.center is Technique.XOR and sub.edge is Technique.XOR
    assert sub.iic_at is None  # no MPC side exists in this mode
    assert sub.token == "xor/xor"


def test_classify_cc_side_falls_back_to_unicast():
    rng = np.random.default_rng(1)
    # one center rank beyond the catalog breaks the coded round
    sub = classify_subcase(Mode.ALL_CC, [1, 2, 3, 4, 99], [1, 2, 3, 4, 5], PARAMS, rng)
    assert sub.center in (Technique.PFR, Technique.EFR)
    # the picked receiver decides PFR vs EFR
    seen = set()
    for seed in range(40):
        s = classify_subcase(
            Mode.ALL_CC, [1, 2, 3, 4, 99], [1, 2, 3, 4, 5], PARAMS,
            np.random.default_rng(seed),
        )
        seen.add(s.center)
    assert seen == {Technique.PFR, Technique.EFR}


def test_classify_mpc_side_and_cancellation():
    rng = np.random.default_rng(2)
    # edge MPC: rank 80 forces the unicast; center CC round stays within
    # the cached top M, so the edge receiver can cancel it
    sub = classify_subcase(Mode.CC_MPC, [1, 5, 9, 2, 30], [80, 1, 2, 3, 4], PARAMS, rng)
    assert sub.center is Technique.XOR and sub.edge is Technique.EFR
    assert sub.iic_at is ReceiverClass.EDGE
    assert sub.token == "xor/efr+iic-e"
    # one center rank above M blocks the cancellation (file not fully cached)
    sub = classify_subcase(Mode.CC_MPC, [1, 5, 9, 2, 40], [80, 1, 2, 3, 4], PARAMS, rng)
    assert sub.iic_at is None


def test_classify_mpc_needs_an_uncached_request():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="cached locally"):
        classify_subcase(Mode.ALL_MPC, [1, 2, 3, 4, 5], [31, 1, 1, 1, 1], PARAMS, rng)


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_classify_is_exhaustive_over_random_requests(gamma):
    # every classified pattern lands on a token the sweep rosters know,
    # under uniform and Zipf(1) popularity
    from rscache.sweep import MODE_SUBCASES

    rng = np.random.default_rng(4)
    for mode in Mode:
        tokens = set()
        for _ in range(400):
            c = sample_requests(PARAMS, PARAMS.K, rng, gamma)
            e = sample_requests(PARAMS, PARAMS.K, rng, gamma)
            if not mode.is_cc(ReceiverClass.CENTER) and all(c <= PARAMS.M):
                continue
            if not mode.is_cc(ReceiverClass.EDGE) and all(e <= PARAMS.M):
                continue
            sub = classify_subcase(mode, list(c), list(e), PARAMS, rng)
            tokens.add(sub.token)
        assert tokens <= set(MODE_SUBCASES[mode])
        assert len(tokens) >= 2 or mode is Mode.ALL_MPC


def test_subcase_token_round_trip():
    for mode, tokens in (
        (Mode.ALL_MPC, ("efr/efr",)),
        (Mode.CC_MPC, ("xor/efr+iic-e", "pfr/efr", "efr/efr")),
        (Mode.MPC_CC, ("efr/xor+iic-c", "efr/pfr+iic-c")),
        (Mode.ALL_CC, ("xor/xor", "pfr/efr")),
    ):
        for token in tokens:
            sub = parse_subcase_token(mode, token)
            assert sub.token == token


def test_subcase_validation():
    with pytest.raises(ValueError, match="MPC class"):
        parse_subcase_token(Mode.ALL_MPC, "xor/efr")
    with pytest.raises(ValueError, match="cache-cancel"):
        parse_subcase_token(Mode.ALL_CC, "xor/xor+iic-c")
    with pytest.raises(ValueError, match="other stream cached"):
        parse_subcase_token(Mode.CC_MPC, "efr/efr+iic-e")
    with pytest.raises(ValueError, match="IIC"):
        parse_subcase_token(Mode.CC_MPC, "xor/efr+sideways")


def test_sample_requests_ranges():
    rng = np.random.default_rng(5)
    ranks = sample_requests(PARAMS, 2000, rng)
    assert ranks.min() >= 1 and ranks.max() <= PARAMS.F
    skewed = sample_requests(PARAMS, 2000, rng, gamma=1.2)
    # a Zipf skew must shift mass toward low ranks
    assert skewed.mean() < ranks.mean()
    with pytest.raises(ValueError):
        sample_requests(PARAMS, 10, rng, gamma=-0.5)
