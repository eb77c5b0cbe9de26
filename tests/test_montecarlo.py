"""The simulator itself: sampling law, determinism, error scaling, per-draw tallies."""

import dataclasses
import hashlib
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from scipy import stats

from rscache import montecarlo
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
    estimate_point,
    estimate_points,
    estimate_rates,
    sample_channels,
)
from rscache.rates import RateComponents, evaluate_subcase, omegas
from rscache.sweep import MODE_SUBCASES, SweepSpec, figure_presets, run_sweep

from oracles import served_per_draw

PARAMS = SystemParams()
SPLIT = PowerSplit(beta=0.5, rho=0.5)
XOR_XOR = parse_subcase_token(Mode.ALL_CC, "xor/xor")
PFR_IIC_E = parse_subcase_token(Mode.CC_MPC, "pfr/efr+iic-e")
EFR_IIC_C = parse_subcase_token(Mode.MPC_CC, "efr/xor+iic-c")


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


def _roster(mode):
    return tuple(parse_subcase_token(mode, token) for token in MODE_SUBCASES[mode])


#: every mode's roster in one list: all three cancellation variants
_UNION = tuple(sub for mode in Mode for sub in _roster(mode))


def _assert_same_report(got, want):
    for field in dataclasses.fields(want):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


@pytest.mark.parametrize(
    "subcases",
    [
        (XOR_XOR,),
        (PFR_IIC_E,),
        (EFR_IIC_C,),
        _roster(Mode.CC_MPC),
        _roster(Mode.MPC_CC),
        _roster(Mode.ALL_CC),
    ],
    ids=lambda subs: subs[0].token if len(subs) == 1 else subs[0].mode.value,
)
def test_rate_estimate_is_the_per_draw_tally(subcases):
    # one chunk at a power where both, one and neither receiver decode the
    # common stream; the same draw, tallied draw by draw by the oracle. A
    # whole roster mixes two cancellation variants and pre-logs at 1 and
    # below, all estimated together on the one draw; all-cc repeats every
    # pre-log on both sides
    params = dataclasses.replace(PARAMS, P=1000.0)
    n = 4096
    sim = SimConfig(samples=n, chunk=n)
    draw = sample_channels(params, sim.rng(0), n)
    reports = estimate_point(params, SPLIT, subcases, sim)
    for sub, rep in zip(subcases, reports, strict=True):
        (rate_c, served_c), (rate_e, served_e) = served_per_draw(
            params, SPLIT, draw, omegas(params, sub), sub.iic_at
        )
        either = served_c | served_e
        assert rep.components.r0_both > 0.0 and rep.components.r0_center_only > 0.0
        for got, want in (
            (rep.r_center, rate_c[served_c].mean()),
            (rep.r_edge, rate_e[served_e].mean()),
            (rep.r_sum, (rate_c + rate_e)[either].mean()),
            (rep.q_center, served_c.mean()),
            (rep.q_edge, served_e.mean()),
        ):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), sub.token
    # the subcases' order only orders the reports
    order = np.random.default_rng(0).permutation(len(subcases))
    permuted = estimate_point(params, SPLIT, [subcases[i] for i in order], sim)
    for i, got in zip(order, permuted, strict=True):
        _assert_same_report(got, reports[i])


def _counted(monkeypatch, name: str) -> list:
    """The calls of montecarlo.<name> from now on, by their arguments."""
    calls = []
    original = getattr(montecarlo, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(montecarlo, name, counted)
    return calls


def test_each_receiver_pre_log_is_served_once_per_chunk(monkeypatch):
    # a receiver's served rate depends on the subcase only through its
    # cancellation variant and that receiver's pre-log, so one chunk makes
    # one served-rate pass per distinct (variant, receiver, pre-log)
    calls = _counted(monkeypatch, "_served")
    sim = SimConfig(samples=1_000, chunk=1_000)
    passes = {}
    for mode in Mode:
        calls.clear()
        estimate_point(PARAMS, SPLIT, _roster(mode), sim)
        passes[mode] = len(calls)
    assert passes == {Mode.ALL_CC: 6, Mode.CC_MPC: 7, Mode.MPC_CC: 7, Mode.ALL_MPC: 2}
    assert sum(passes.values()) == 22
    # one call over every roster makes each pass once across the modes
    calls.clear()
    estimate_point(PARAMS, SPLIT, _UNION, sim)
    assert len(calls) == 12


@pytest.mark.parametrize(
    "components, statistics",
    [
        (True, {Mode.ALL_CC: 36, Mode.CC_MPC: 39, Mode.MPC_CC: 39, Mode.ALL_MPC: 12, "union": 70}),
        (False, {Mode.ALL_CC: 15, Mode.CC_MPC: 12, Mode.MPC_CC: 12, Mode.ALL_MPC: 3, "union": 25}),
    ],
    ids=["components", "served-only"],
)
def test_each_statistic_is_accumulated_once_per_chunk(monkeypatch, components, statistics):
    # one chunk takes one statistic per served-rate pass and one per slot,
    # for its sum; with components, three more per pass (the common share
    # and both routes) and three per variant (the common rates)
    calls = _counted(monkeypatch, "_accumulate")
    sim = SimConfig(samples=1_000, chunk=1_000)
    counts = {}
    for key, subcases in [*((mode, _roster(mode)) for mode in Mode), ("union", _UNION)]:
        calls.clear()
        estimate_points([(PARAMS, SPLIT, subcases)], sim, components=components)
        counts[key] = len(calls)
    assert counts == statistics


def test_estimates_track_the_analytic_probabilities():
    sim = SimConfig(samples=300_000, seed=12)
    rep = estimate_rates(XOR_XOR, PARAMS, SPLIT, sim)
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


def test_warm_rate_estimate_allocates_no_draw_sized_array():
    n = 100_000
    sim = SimConfig(samples=n, seed=21)
    # one subcase, then whole rosters of one and of two cancellation
    # variants, with repeated pre-logs on both sides, at the edge only and
    # at the center only; each with and without the components' statistics
    rosters = ((XOR_XOR,), *(_roster(mode) for mode in (Mode.ALL_CC, Mode.CC_MPC, Mode.MPC_CC)))
    for subcases in rosters:
        for components in (True, False):
            jobs = [(PARAMS, SPLIT, subcases)]
            estimate_points(jobs, sim, components=components)  # warm the workspace
            tracemalloc.start()
            try:
                estimate_points(jobs, dataclasses.replace(sim, seed=22), components=components)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # one float64 array of the draw count is 8 n bytes
            assert peak < 8 * n, (subcases[0].mode, components)


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


@pytest.mark.parametrize(
    "subcases", [*map(_roster, Mode), _UNION], ids=[*(mode.value for mode in Mode), "union"]
)
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk", [131_072, 7_000], ids=["one-chunk", "chunked"])
@pytest.mark.parametrize("components", [True, False], ids=["components", "served-only"])
def test_point_estimate_is_each_subcase_estimated_alone(subcases, workers, chunk, components):
    # every subcase of a roster, or of all four in one call over the three
    # cancellation variants, on one shared draw gives, bit for bit, the
    # report of that subcase run on its own; without components, the same
    # report with both component records zero
    split = PowerSplit(beta=0.4, rho=0.3)
    sim = SimConfig(samples=30_000, seed=30, chunk=chunk, workers=workers)
    [reports] = estimate_points([(PARAMS, split, subcases)], sim, components=components)
    assert len(reports) == len(subcases)
    for sub, got in zip(subcases, reports):
        want = estimate_rates(sub, PARAMS, split, sim)
        if not components:
            assert got.components == got.component_stderr == RateComponents()
            want = dataclasses.replace(
                want, components=RateComponents(), component_stderr=RateComponents()
            )
        _assert_same_report(got, want)


#: the working points of FROZEN_SIMULATION: a point where both, one and
#: neither receiver decode the common stream, and two corners of the split
#: and the share u, where the private events (beta = 1) or the common
#: events (beta = 0) are empty
FROZEN_POINTS = {
    "mid": (dataclasses.replace(PARAMS, P=1000.0), PowerSplit(beta=0.4, rho=0.3)),
    "beta1": (dataclasses.replace(PARAMS, u=1.0), PowerSplit(beta=1.0, rho=0.0)),
    "beta0": (dataclasses.replace(PARAMS, u=0.0), PowerSplit(beta=0.0, rho=1.0)),
}
FROZEN_CHUNKING = {
    "one-chunk": SimConfig(samples=20_000, seed=33),
    "chunked": SimConfig(samples=20_000, seed=33, chunk=7_000, workers=2),
}

FROZEN_SIMULATION = (
    # (point, chunking, mode, first 16 hex digits of the sha256 of every
    # report field's bits); frozen from this implementation, so a change
    # to the simulator's arithmetic that moves any bit of any report shows
    # here
    ("mid", "one-chunk", "all-mpc", "6eb4b99acc8e8266"),
    ("mid", "one-chunk", "cc-mpc", "b3435e89196fec2b"),
    ("mid", "one-chunk", "mpc-cc", "dca82b90897c9543"),
    ("mid", "one-chunk", "all-cc", "13e64135d9b3add1"),
    ("mid", "chunked", "all-mpc", "9167650dcd8b8d4d"),
    ("mid", "chunked", "cc-mpc", "932dde71c89520b2"),
    ("mid", "chunked", "mpc-cc", "bd0bdb8328d5b804"),
    ("mid", "chunked", "all-cc", "025389472d25b45b"),
    ("beta1", "one-chunk", "all-mpc", "bef5f2aafc5b39d3"),
    ("beta1", "one-chunk", "cc-mpc", "ee1fc831a3474d02"),
    ("beta1", "one-chunk", "mpc-cc", "52fabba4eae6e959"),
    ("beta1", "one-chunk", "all-cc", "b7a8b43e84100cc4"),
    ("beta1", "chunked", "all-mpc", "d5f11afb87f3ea5b"),
    ("beta1", "chunked", "cc-mpc", "ef485c06a5dad27e"),
    ("beta1", "chunked", "mpc-cc", "aee7ec61f01fc967"),
    ("beta1", "chunked", "all-cc", "6eea5d96a31ed567"),
    ("beta0", "one-chunk", "all-mpc", "154a39480c6b4b5c"),
    ("beta0", "one-chunk", "cc-mpc", "ff5b17911bec3f2c"),
    ("beta0", "one-chunk", "mpc-cc", "13dd660fc2096b68"),
    ("beta0", "one-chunk", "all-cc", "892a6deeffa4c0ce"),
    ("beta0", "chunked", "all-mpc", "966720c1a110041c"),
    ("beta0", "chunked", "cc-mpc", "20cc5617a6afc2d5"),
    ("beta0", "chunked", "mpc-cc", "d964a8ab7329251e"),
    ("beta0", "chunked", "all-cc", "3d5cd62014cfce2f"),
)


def _bits(value) -> str:
    """Every float of a flattened report as float.hex, strings as they are."""
    if isinstance(value, tuple):
        return " ".join(map(_bits, value))
    return value if isinstance(value, str) else float(value).hex()


@pytest.mark.parametrize("case", FROZEN_SIMULATION, ids=lambda c: ":".join(c[:3]))
def test_frozen_simulator_bits(case):
    point, chunking, mode, want = case
    params, split = FROZEN_POINTS[point]
    subcases = [parse_subcase_token(Mode(mode), token) for token in MODE_SUBCASES[Mode(mode)]]
    reports = estimate_point(params, split, subcases, FROZEN_CHUNKING[chunking])
    text = "\n".join(_bits(dataclasses.astuple(rep)) for rep in reports)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == want


def test_sweep_keys_every_point_by_its_index_alone(tmp_path):
    # the stream key of a simulated row is (seed, point, chunk): the row is
    # estimate_rates of its subcase with spawn=(point,), whatever the subcase
    sim = SimConfig(samples=20_000, seed=31, chunk=8_192)
    spec = SweepSpec(
        variable="beta", start=0.3, stop=0.7, points=2, mode=Mode.ALL_CC,
        methods=("monte-carlo",), sim=sim,
    )
    path = tmp_path / "sweep.csv"
    run_sweep(spec, str(path))
    rows = iter(path.read_text().splitlines()[1:])
    for point, value in enumerate(spec.grid()):
        params, split = spec.at(value)
        for token in spec.subcases:
            sub = parse_subcase_token(spec.mode, token)
            rep = estimate_rates(sub, params, split, dataclasses.replace(sim, spawn=(point,)))
            want = [
                "%.9g" % x
                for x in (
                    rep.r_center, rep.r_edge, rep.r_sum, rep.q_center, rep.q_edge,
                    rep.stderr_center, rep.stderr_edge, rep.stderr_sum,
                )
            ]
            assert next(rows).split(",")[8:] == want, (point, token)
    assert next(rows, None) is None


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
def test_served_rate_z_scores_are_standard_at_high_power():
    # stock fig9 at P = 10^7.5, efr/pfr: the centre's served rate doubles
    # only on the rare draws where the edge misses the common stream, so a
    # run that misses them reports a low mean with a small stderr
    _, spec = figure_presets()["fig9"][0]
    params, split = spec.at(spec.grid()[15])
    sub = parse_subcase_token(spec.mode, "efr/pfr")
    truth = evaluate_subcase(sub, params, split).r_center
    z = []
    for seed in range(1000, 1200):
        rep = estimate_rates(sub, params, split, SimConfig(samples=100_000, seed=seed))
        z.append((rep.r_center - truth) / rep.stderr_center)
    assert sum(abs(x) > 3.0 for x in z) <= 2
    assert 0.8 <= np.std(z, ddof=1) <= 1.25
