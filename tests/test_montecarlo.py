"""The simulator itself: sampling law, determinism, error scaling, per-draw tallies."""

import dataclasses
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from scipy import stats

from rscache.caching import Mode, parse_subcase_token
from rscache.distributions import coverage, dist_spec
from rscache.model import (
    PowerSplit,
    ReceiverClass,
    SinrKind,
    SystemParams,
    stream_powers,
)
from rscache.montecarlo import (
    SimConfig,
    estimate_coverage,
    estimate_rates,
    sample_channels,
)
from rscache.rates import omegas

from oracles import served_per_draw

PARAMS = SystemParams()
SPLIT = PowerSplit(beta=0.5, rho=0.5)
XOR_XOR = parse_subcase_token(Mode.ALL_CC, "xor/xor", PARAMS.K)
PFR_IIC_E = parse_subcase_token(Mode.CC_MPC, "pfr/efr+iic-e", PARAMS.K)
EFR_IIC_C = parse_subcase_token(Mode.MPC_CC, "efr/xor+iic-c", PARAMS.K)


def test_center_positions_fill_the_disk():
    draw = sample_channels(PARAMS, SimConfig(seed=1).rng(0), 200_000)
    # uniform area density on a disk of radius r_c: E[d^2] = r_c^2 / 2
    assert draw.d_c.max() <= PARAMS.r_c
    assert draw.d_c.min() >= 0.0
    assert np.mean(draw.d_c**2) == pytest.approx(PARAMS.r_c**2 / 2.0, rel=0.01)
    # d^2 / r_c^2 must be uniform on (0, 1)
    ks = stats.kstest(draw.d_c**2 / PARAMS.r_c**2, "uniform")
    assert ks.pvalue > 1e-3


def test_edge_positions_fill_the_annulus():
    draw = sample_channels(PARAMS, SimConfig(seed=2).rng(0), 200_000)
    lo, hi = PARAMS.r_e**2, PARAMS.r_0**2
    assert draw.d_e.min() >= PARAMS.r_e
    assert draw.d_e.max() <= PARAMS.r_0
    ks = stats.kstest((draw.d_e**2 - lo) / (hi - lo), "uniform")
    assert ks.pvalue > 1e-3


def test_fading_is_unit_exponential():
    draw = sample_channels(PARAMS, SimConfig(seed=3).rng(0), 200_000)
    for h in (draw.h_c, draw.h_e):
        assert np.mean(h) == pytest.approx(1.0, rel=0.02)
        assert stats.kstest(h, "expon").pvalue > 1e-3


def test_draw_order_is_frozen():
    # u_c, u_e, h_c, h_e in that order; reordering would silently change
    # every seeded result, so the first values are pinned
    draw = sample_channels(PARAMS, SimConfig(seed=42).rng(0), 3)
    rng = SimConfig(seed=42).rng(0)
    u_c = rng.random(3)
    u_e = rng.random(3)
    h_c = rng.standard_exponential(3)
    h_e = rng.standard_exponential(3)
    assert np.array_equal(draw.d_c, PARAMS.r_c * np.sqrt(u_c))
    assert np.array_equal(
        draw.d_e, np.sqrt(PARAMS.r_e**2 + u_e * (PARAMS.r_0**2 - PARAMS.r_e**2))
    )
    assert np.array_equal(draw.h_c, h_c)
    assert np.array_equal(draw.h_e, h_e)


def test_sample_channels_fills_given_buffers_with_the_same_draw():
    fresh = sample_channels(PARAMS, SimConfig(seed=7).rng(0), 1_000)
    out = tuple(np.full(1_000, np.nan) for _ in range(4))
    filled = sample_channels(PARAMS, SimConfig(seed=7).rng(0), 1_000, out=out)
    for name, buf in zip(("d_c", "d_e", "h_c", "h_e"), out):
        assert getattr(filled, name) is buf
        assert np.array_equal(buf, getattr(fresh, name))
    # without out, every call gets arrays of its own
    again = sample_channels(PARAMS, SimConfig(seed=7).rng(0), 1_000)
    assert not np.shares_memory(again.h_c, fresh.h_c)
    assert np.array_equal(again.h_c, fresh.h_c)


def test_spawn_and_seed_change_the_stream():
    base = sample_channels(PARAMS, SimConfig(seed=42).rng(0), 8).h_c
    other_seed = sample_channels(PARAMS, SimConfig(seed=43).rng(0), 8).h_c
    other_spawn = sample_channels(PARAMS, SimConfig(seed=42, spawn=(1,)).rng(0), 8).h_c
    assert not np.array_equal(base, other_seed)
    assert not np.array_equal(base, other_spawn)


def test_coverage_estimate_and_binomial_stderr():
    kind, cls, t = SinrKind.COMMON, ReceiverClass.CENTER, 0.4
    sim = SimConfig(samples=50_000, seed=4)
    p, se = estimate_coverage(kind, cls, t, PARAMS, SPLIT, sim)
    assert se == pytest.approx(math.sqrt(p * (1.0 - p) / sim.samples), rel=1e-12)
    spec = dist_spec(kind, cls, stream_powers(PARAMS.P, SPLIT), PARAMS)
    assert abs(p - coverage(spec, t, PARAMS)) <= 3.0 * se


def test_coverage_stderr_shrinks_like_root_n():
    kind, cls, t = SinrKind.COMMON, ReceiverClass.CENTER, 0.4
    _, se_1 = estimate_coverage(kind, cls, t, PARAMS, SPLIT, SimConfig(samples=20_000, seed=6))
    _, se_4 = estimate_coverage(kind, cls, t, PARAMS, SPLIT, SimConfig(samples=80_000, seed=6))
    assert se_4 < se_1 / 1.8


def test_rate_estimates_are_worker_invariant():
    sim = SimConfig(samples=150_000, seed=42)
    rep_1 = estimate_rates(XOR_XOR, PARAMS, SPLIT, sim)
    rep_4 = estimate_rates(XOR_XOR, PARAMS, SPLIT, dataclasses.replace(sim, workers=4))
    assert rep_1 == rep_4  # bitwise, fields included


def test_rate_stderr_shrinks_with_samples():
    small = estimate_rates(XOR_XOR, PARAMS, SPLIT, SimConfig(samples=25_000, seed=8))
    large = estimate_rates(XOR_XOR, PARAMS, SPLIT, SimConfig(samples=400_000, seed=8))
    assert large.stderr_center < small.stderr_center / 2.5
    assert large.stderr_sum < small.stderr_sum / 2.5


def test_all_power_to_the_common_stream_kills_private_rates():
    rep = estimate_rates(
        XOR_XOR, PARAMS, PowerSplit(beta=1.0, rho=0.5), SimConfig(samples=20_000, seed=10)
    )
    assert rep.components.rp_center == 0.0
    assert rep.components.rpi_center == 0.0
    assert rep.components.rp_edge == 0.0
    assert rep.components.rpi_edge == 0.0
    # everything served comes from the common stream alone
    assert rep.r_center > 0.0


@pytest.mark.parametrize("sub", [XOR_XOR, PFR_IIC_E, EFR_IIC_C], ids=lambda sub: sub.token)
def test_rate_estimate_is_the_per_draw_tally(sub):
    # one chunk at a power where both, one and neither receiver decode the
    # common stream; the same draw, tallied draw by draw by the oracle
    params = dataclasses.replace(PARAMS, P=1000.0)
    n = 4096
    sim = SimConfig(samples=n, chunk=n)
    draw = sample_channels(params, sim.rng(0), n)
    (rate_c, served_c), (rate_e, served_e) = served_per_draw(
        params, SPLIT, draw, omegas(params, sub), sub.iic_at
    )
    either = served_c | served_e
    rep = estimate_rates(sub, params, SPLIT, sim)
    assert rep.components.r0_both > 0.0 and rep.components.r0_center_only > 0.0
    for got, want in (
        (rep.r_center, rate_c[served_c].mean()),
        (rep.r_edge, rate_e[served_e].mean()),
        (rep.r_sum, (rate_c + rate_e)[either].mean()),
        (rep.q_center, served_c.mean()),
        (rep.q_edge, served_e.mean()),
    ):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_estimates_track_the_analytic_probabilities():
    sim = SimConfig(samples=300_000, seed=12)
    rep = estimate_rates(XOR_XOR, PARAMS, SPLIT, sim)
    from rscache.rates import evaluate_subcase

    truth = evaluate_subcase(XOR_XOR, PARAMS, SPLIT)
    for got, want in ((rep.q_center, truth.q_center), (rep.q_edge, truth.q_edge)):
        se = math.sqrt(max(want * (1.0 - want), 1e-12) / sim.samples)
        assert abs(got - want) <= 4.0 * se


def test_partial_final_chunk_keeps_totals_consistent():
    # 3 full chunks plus a remainder must agree with the one-chunk run of
    # the same stream family only when the chunking matches; the point
    # here is just that ragged tails are handled and counted once
    sim = SimConfig(samples=10_000, seed=13, chunk=3_000)
    assert sim.chunk_sizes() == [3_000, 3_000, 3_000, 1_000]
    rep = estimate_rates(XOR_XOR, PARAMS, SPLIT, sim)
    assert 0.0 <= rep.q_center <= 1.0
    rep_workers = estimate_rates(
        XOR_XOR, PARAMS, SPLIT, dataclasses.replace(sim, workers=3)
    )
    assert rep == rep_workers


def _fresh_thread(call):
    # a new thread starts with an empty simulator workspace
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(call).result()


def _assert_same_report(got, want):
    for field in dataclasses.fields(want):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


def test_warm_rate_estimate_allocates_no_draw_sized_array():
    n = 100_000
    sim = SimConfig(samples=n, seed=21)
    estimate_rates(XOR_XOR, PARAMS, SPLIT, sim)  # warm the workspace
    tracemalloc.start()
    try:
        estimate_rates(XOR_XOR, PARAMS, SPLIT, dataclasses.replace(sim, seed=22))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one float64 array of the draw count is 8 n bytes
    assert peak < 8 * n


def test_interleaved_estimates_equal_estimates_run_alone():
    # the workspace grows and shrinks its views between these calls; none
    # may see what an earlier one left in the buffers
    coverage_args = (SinrKind.PRIVATE, ReceiverClass.EDGE, 0.2, PARAMS, SPLIT)
    calls = [
        partial(estimate_rates, XOR_XOR, PARAMS, SPLIT, SimConfig(samples=40_000, seed=24)),
        partial(
            estimate_rates, PFR_IIC_E, PARAMS, SPLIT, SimConfig(samples=7_000, seed=25, chunk=3_000)
        ),
        partial(estimate_coverage, *coverage_args, SimConfig(samples=30_000, seed=26)),
        partial(
            estimate_rates,
            EFR_IIC_C,
            PARAMS,
            SPLIT,
            SimConfig(samples=20_000, seed=27, chunk=8_192, workers=2),
        ),
        partial(
            estimate_rates, XOR_XOR, PARAMS, SPLIT, SimConfig(samples=9_000, seed=28, chunk=16_384)
        ),
    ]
    alone = [_fresh_thread(call) for call in calls]
    for call, want in zip(calls + calls[::-1], alone + alone[::-1]):
        got = call()
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same_report(got, want)
