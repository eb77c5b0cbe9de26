"""Acceptance checklist: one test per criterion, loudest checks in the suite.

Each test sweeps its full case grid and reports every violation at once, so
a red line here names the exact grid points that broke.
"""

import dataclasses
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rscache.caching import CodedCacheConfig, Mode, cc_place, parse_subcase_token
from rscache.distributions import coverage
from rscache.model import (
    PowerSplit,
    ReceiverClass,
    SinrKind,
    SystemParams,
    prelog_factors,
    private_sinr_threshold,
)
from rscache.montecarlo import SimConfig, estimate_coverage, estimate_rates, sample_channels
from rscache.rates import asymptotic_report, evaluate_subcase, slot
from rscache.sweep import MODE_SUBCASES, SweepSpec, compare_reports, run_sweep

from oracles import outage_region, served_per_draw
from test_caching import ALL_SMALL, decodes
from test_distributions import quantile, spec_for, tail_mass

PARAMS = SystemParams()
SPLIT = PowerSplit(beta=0.5, rho=0.5)

ALL_PAIRS = [(kind, cls) for kind in SinrKind for cls in ReceiverClass]

# the complete served-configuration roster: every (mode, token) combination
TABLE_CASES = [
    (mode, token) for mode in Mode for token in MODE_SUBCASES[mode]
]


def test_c1_coverage_curves_match_simulation():
    t0 = time.monotonic()
    targets = (0.9, 0.7, 0.5, 0.3, 0.1)
    bad = []
    for pair_i, (kind, cls) in enumerate(ALL_PAIRS):
        for beta_i, beta in enumerate((0.3, 0.5, 0.7)):
            split = PowerSplit(beta=beta, rho=0.5)
            spec = spec_for(kind, cls, split)
            for anchor_i, target in enumerate(targets):
                t = quantile(spec, target)
                analytic = coverage(spec, t, PARAMS)
                sim = SimConfig(
                    samples=100_000, seed=42,
                    spawn=(pair_i, beta_i, anchor_i),
                )
                p, se = estimate_coverage(kind, cls, t, PARAMS, split, sim)
                if abs(analytic - p) > 3.0 * se:
                    bad.append((kind.value, cls.value, beta, t,
                                analytic, p, se))
    assert not bad, f"coverage off by more than 3 stderr at: {bad}"
    assert time.monotonic() - t0 < 60.0


def test_c2_rate_formulas_match_simulation_for_all_subcases():
    t0 = time.monotonic()
    samples = 1_000_000
    failures = []
    for case_i, (mode, token) in enumerate(TABLE_CASES):
        subcase = parse_subcase_token(mode, token)
        for beta_i, beta in enumerate(np.linspace(0.1, 0.9, 9)):
            split = PowerSplit(beta=float(beta), rho=0.5)
            analytic = evaluate_subcase(subcase, PARAMS, split)
            sim = SimConfig(samples=samples, seed=42, spawn=(case_i, beta_i))
            mc = estimate_rates(subcase, PARAMS, split, sim)
            key = f"{mode.value}:{token}@beta={beta:.1f}"
            failures += [c for c in compare_reports(key, analytic, mc, samples)
                         if not c.ok]
    assert not failures, "analytic rate outside the simulation gate:\n" + "\n".join(
        f"  {c.key} {c.quantity}: {c.detail}" for c in failures
    )
    assert time.monotonic() - t0 < 600.0


def test_c3_density_mass_reproduces_coverage():
    bad = []
    for kind, cls in ALL_PAIRS:
        spec = spec_for(kind, cls)
        for target in (0.8, 0.5, 0.2):
            t = quantile(spec, target)
            pi = coverage(spec, t, PARAMS)
            mass = tail_mass(spec, t)
            if abs(mass - pi) > 1e-6:
                bad.append((kind.value, cls.value, t, pi, mass))
    assert not bad, f"density mass disagrees with coverage at: {bad}"


def test_c4_decode_impossibility_boundaries():
    params = PARAMS  # zeta = 0.5
    assert params.zeta == 0.5
    # splitting a third or less of the power into the shared stream makes
    # its SINR ceiling fall below the decode threshold, everywhere
    for beta in (0.05, 0.15, 0.25, 0.3, 1.0 / 3.0):
        for cls in ReceiverClass:
            split = PowerSplit(beta=beta, rho=0.5)
            spec = spec_for(SinrKind.COMMON, cls, split)
            assert coverage(spec, params.zeta, params) == 0.0
            assert outage_region(SinrKind.COMMON, cls, params.zeta, split)
    split = PowerSplit(beta=1.0 / 3.0 + 1e-6, rho=0.5)
    for cls in ReceiverClass:
        assert not outage_region(SinrKind.COMMON, cls, params.zeta, split)
    # the probability itself is representable only at the center; at the
    # edge the exponent is on the order of -4e6 and underflows a double
    assert coverage(spec_for(SinrKind.COMMON, ReceiverClass.CENTER, split),
                    params.zeta, params) > 0.0

    # the edge private stream dies once its power share drops to the point
    # where the center stream alone caps the SINR below the rate target
    for omega in (1.0, 2.5, 10.0):
        xi_t = private_sinr_threshold(omega, params.xi)
        rho_star = 1.0 / (1.0 + xi_t)
        for rho in (rho_star, rho_star + 0.01, 0.99):
            split = PowerSplit(beta=0.5, rho=rho)
            spec = spec_for(SinrKind.PRIVATE, ReceiverClass.EDGE, split)
            assert coverage(spec, xi_t, params) == 0.0
            assert outage_region(SinrKind.PRIVATE, ReceiverClass.EDGE, xi_t, split)
        assert not outage_region(SinrKind.PRIVATE, ReceiverClass.EDGE, xi_t,
                                 PowerSplit(beta=0.5, rho=rho_star - 1e-6))


def test_c5_cache_placement_and_delivery_exact():
    from rscache.caching import cc_delivery_schedule

    def storage_files(layout, receiver):
        """Occupied cache space in units of whole files (must equal M)."""
        cfg = layout.cfg
        return Fraction(len(layout.cached(1, receiver)), cfg.subfiles_per_file) * cfg.N

    for cfg in ALL_SMALL:
        layout = cc_place(cfg)
        for receiver in range(1, cfg.K + 1):
            assert storage_files(layout, receiver) == Fraction(cfg.M)
        demand_space = cfg.N ** cfg.K
        if demand_space <= 1024:
            demand_iter = itertools.product(range(1, cfg.N + 1), repeat=cfg.K)
        else:
            rng = np.random.default_rng(7)
            demand_iter = (tuple(int(x) for x in rng.integers(1, cfg.N + 1, cfg.K))
                           for _ in range(40))
        load = Fraction(cfg.K - cfg.t, cfg.K * (cfg.t + 1))
        for demands in demand_iter:
            assert decodes(cfg, layout, demands)
            schedule = cc_delivery_schedule(cfg, demands)
            assert schedule.per_receiver_load == load

    layout = cc_place(CodedCacheConfig(K=5, M=6, N=10))
    assert tuple(s.group for s in layout.cached(1, 1)) == (
        (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5)
    )
    stock = CodedCacheConfig(K=5, M=30, N=50)
    assert cc_delivery_schedule(stock, (1, 2, 3, 4, 5)).per_receiver_load == Fraction(1, 10)


def test_c6_prelog_and_threshold_defaults():
    w = prelog_factors(PARAMS.K, PARAMS.M, PARAMS.N)
    assert (w.efr, w.pfr, w.xor) == pytest.approx((1.0, 2.5, 10.0), abs=1e-5)
    thresholds = tuple(
        private_sinr_threshold(omega, 1.0) for omega in (w.efr, w.pfr, w.xor)
    )
    assert thresholds == pytest.approx((1.0, 0.31951, 0.07177), abs=1e-5)


HIGH_POWER_PARAMS = dataclasses.replace(
    SystemParams(), N=60, K=2, zeta=1.0, xi=2.0, P=1e8
)


def test_c7_high_power_limits():
    split = PowerSplit(beta=0.6, rho=0.5)
    for token in ("efr/xor", "efr/pfr", "efr/efr"):
        subcase = parse_subcase_token(Mode.MPC_CC, token)
        limit = asymptotic_report(slot(subcase, HIGH_POWER_PARAMS, split))
        assert math.isfinite(limit.r_sum)
        at_p = evaluate_subcase(subcase, HIGH_POWER_PARAMS, split)
        assert at_p.r_sum == pytest.approx(limit.r_sum, rel=0.01)

    # cancelling the cached center stream removes the interference floor,
    # so these configurations keep growing with power
    for token in ("efr/xor+iic-c", "efr/pfr+iic-c"):
        subcase = parse_subcase_token(Mode.MPC_CC, token)
        limit = asymptotic_report(slot(subcase, HIGH_POWER_PARAMS, split))
        assert math.isinf(limit.r_sum)
        at_p = evaluate_subcase(subcase, HIGH_POWER_PARAMS, split)
        assert math.isfinite(at_p.r_sum) and at_p.r_sum > 10.0

    # with less common power and a lower rate target the same cancelling
    # configurations saturate instead
    bounded = dataclasses.replace(HIGH_POWER_PARAMS, xi=1.0)
    split = PowerSplit(beta=0.3, rho=0.5)
    for token in ("efr/xor+iic-c", "efr/pfr+iic-c"):
        subcase = parse_subcase_token(Mode.MPC_CC, token)
        limit = asymptotic_report(slot(subcase, bounded, split))
        assert math.isfinite(limit.r_sum)
        at_p = evaluate_subcase(subcase, bounded, split)
        assert at_p.r_sum == pytest.approx(limit.r_sum, rel=0.01)


def test_c8a_center_rate_zero_when_common_power_starved():
    subcase = parse_subcase_token(Mode.ALL_MPC, "efr/efr")
    for beta in (0.05, 0.15, 0.25, 0.3, 1.0 / 3.0):
        report = evaluate_subcase(subcase, PARAMS, PowerSplit(beta=beta, rho=0.5))
        assert report.r_center == 0.0
    report = evaluate_subcase(subcase, PARAMS, PowerSplit(beta=0.35, rho=0.5))
    assert report.r_center > 0.0


def test_c8b_per_draw_gain_ordering_across_techniques():
    n = 50_000
    draw = sample_channels(PARAMS, SimConfig(seed=3).rng(0), n, tuple(np.empty(n) for _ in range(4)))
    w = prelog_factors(PARAMS.K, PARAMS.M, PARAMS.N)
    rates = [[rate for rate, _ in served_per_draw(PARAMS, SPLIT, draw, (omega, omega))]
             for omega in (w.efr, w.pfr, w.xor)]
    for side in (0, 1):
        efr, pfr, xor = (r[side] for r in rates)
        assert np.all(pfr >= efr - 1e-12)
        assert np.all(xor >= pfr - 1e-12)
    assert rates[2][0].mean() > rates[1][0].mean() > rates[0][0].mean()


def test_c8c_rate_monotone_in_private_power_share():
    subcase = parse_subcase_token(Mode.ALL_MPC, "efr/efr")
    xi_t = private_sinr_threshold(1.0, PARAMS.xi)
    rhos = np.linspace(0.05, 0.95, 19)
    centers, edges = [], []
    for rho in rhos:
        split = PowerSplit(beta=0.5, rho=float(rho))
        report = evaluate_subcase(subcase, PARAMS, split)
        centers.append(report.r_center)
        edges.append(report.r_edge)
        # starving one private stream shuts it off exactly, not approximately
        if rho <= xi_t / (1.0 + xi_t):
            spec = spec_for(SinrKind.PRIVATE, ReceiverClass.CENTER, split)
            assert coverage(spec, xi_t, PARAMS) == 0.0
        if rho >= 1.0 / (1.0 + xi_t):
            spec = spec_for(SinrKind.PRIVATE, ReceiverClass.EDGE, split)
            assert coverage(spec, xi_t, PARAMS) == 0.0
    slack = 1e-8
    assert all(b >= a - slack for a, b in zip(centers, centers[1:]))
    assert all(b <= a + slack for a, b in zip(edges, edges[1:]))
    assert centers[-1] > centers[0]
    assert edges[0] > edges[-1]


def test_c9_csv_bytes_invariant_to_worker_count(tmp_path):
    outputs = []
    for workers in (1, 3, 4):
        spec = SweepSpec(
            variable="beta", start=0.3, stop=0.7, points=2, mode=Mode.ALL_CC,
            subcases=("xor/xor", "efr/pfr"),
            methods=("analytic", "monte-carlo"),
            sim=SimConfig(samples=30_000, seed=5, workers=workers),
        )
        path = tmp_path / f"w{workers}.csv"
        run_sweep(spec, str(path))
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_c9_chunked_csv_bytes_invariant_to_worker_count(tmp_path):
    # 4 096-draw chunks split every 30 000-draw estimate into 8 chunks, so
    # the chunk-order reduction runs; one worker maps them in the calling
    # thread, more go through the pool
    outputs = []
    for workers in (1, 2, 3):
        spec = SweepSpec(
            variable="beta", start=0.3, stop=0.7, points=2, mode=Mode.ALL_CC,
            subcases=("xor/xor", "efr/pfr"),
            methods=("analytic", "monte-carlo"),
            sim=SimConfig(samples=30_000, seed=5, chunk=4_096, workers=workers),
        )
        path = tmp_path / f"w{workers}.csv"
        run_sweep(spec, str(path))
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
