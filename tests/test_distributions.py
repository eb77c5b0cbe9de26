"""SINR distributions: coverage, density and their consistency.

The density has no independent closed form to compare against, so two
cross-checks pin it down: a central difference of the coverage curve and
the integral identity (the density over (t, theta) must reproduce the
coverage at t). The Monte-Carlo oracle then checks coverage itself.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rscache.distributions import (
    coverage,
    dist_spec,
    pdf_s_measure,
    scale_tail_array,
    tail_at,
)
from rscache.model import (
    PowerSplit,
    ReceiverClass,
    SinrKind,
    SystemParams,
    sinr_bound,
    stream_powers,
)
from rscache.montecarlo import SimConfig, estimate_coverage

from oracles import _s_prime, integrate_interval, level_of_s, outage_region, pdf

PARAMS = SystemParams()
SPLIT = PowerSplit(beta=0.5, rho=0.5)

ALL_PAIRS = [(kind, cls) for kind in SinrKind for cls in ReceiverClass]


def spec_for(kind, cls, split=SPLIT, params=PARAMS):
    return dist_spec(kind, cls, stream_powers(params.P, split), params)


def quantile(spec, target, params=PARAMS):
    """Level t with coverage(t) = target, by bisection."""
    lo = 0.0
    hi = spec.theta
    if math.isinf(hi):
        hi = 1.0
        while coverage(spec, hi) > target:
            hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if coverage(spec, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tail_mass(spec, t, params=PARAMS, rtol=1e-10):
    """Integral of the density from t to the top of the support."""
    if math.isinf(spec.theta):
        # qagie extrapolation chokes on a power law that only decays over
        # many decades, so split: an ordinary head, then a tail on the
        # log axis u = ln x (past u = 709 e^u overflows and the density
        # has long underflowed).
        head = 0.0
        cut = max(t, 1.0)
        if t < cut:
            head = integrate_interval(
                lambda x: pdf(spec, x, params), t, cut, rtol=rtol
            )

        def on_log_axis(u):
            if u > 709.0:
                return 0.0
            x = math.exp(u)
            return pdf(spec, x, params) * x

        tail = integrate_interval(on_log_axis, math.log(cut), math.inf, rtol=rtol)
        return head + tail
    return integrate_interval(
        lambda x: pdf(spec, x, params), t, spec.theta, rtol=rtol, open_upper=True
    )


@pytest.mark.parametrize("kind,cls", ALL_PAIRS)
def test_coverage_is_a_ccdf(kind, cls):
    spec = spec_for(kind, cls)
    assert coverage(spec, 0.0) == 1.0
    levels = [quantile(spec, q) for q in (0.9, 0.5, 0.1)]
    values = [coverage(spec, t) for t in levels]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values[0] >= values[1] >= values[2]
    if math.isfinite(spec.theta):
        assert coverage(spec, spec.theta) == 0.0
        assert coverage(spec, spec.theta * 1.5) == 0.0


@pytest.mark.parametrize("kind,cls", ALL_PAIRS)
def test_pdf_matches_coverage_slope(kind, cls):
    spec = spec_for(kind, cls)
    for q in (0.8, 0.5, 0.2):
        t = quantile(spec, q)
        h = 1e-5 * max(t, 1e-3)
        slope = (coverage(spec, t - h) - coverage(spec, t + h)) / (2 * h)
        assert pdf(spec, t, PARAMS) == pytest.approx(slope, rel=5e-6, abs=1e-12)


@pytest.mark.parametrize("kind,cls", ALL_PAIRS)
def test_density_integrates_back_to_coverage(kind, cls):
    spec = spec_for(kind, cls)
    for q in (0.95, 0.5, 0.05):
        t = quantile(spec, q)
        assert tail_mass(spec, t) == pytest.approx(coverage(spec, t), abs=1e-6)


@pytest.mark.parametrize("kind,cls", ALL_PAIRS)
def test_pdf_is_zero_outside_the_support(kind, cls):
    spec = spec_for(kind, cls)
    assert pdf(spec, 0.0, PARAMS) == 0.0
    assert pdf(spec, -1.0, PARAMS) == 0.0
    if math.isfinite(spec.theta):
        assert pdf(spec, spec.theta, PARAMS) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(SinrKind),
    cls=st.sampled_from(ReceiverClass),
    beta=st.floats(min_value=0.05, max_value=0.95),
    rho=st.floats(min_value=0.05, max_value=0.95),
    t=st.floats(min_value=1e-3, max_value=50.0),
)
# here the bound is exactly t, but the oracle's inequality rounds to "not in outage"
@example(kind=SinrKind.PRIVATE_INTERF, cls=ReceiverClass.CENTER, beta=0.5, rho=0.5, t=1 / 3)
def test_outage_region_agrees_with_the_bound(kind, cls, beta, rho, t):
    split = PowerSplit(beta=beta, rho=rho)
    spec = spec_for(kind, cls, split)
    bound = sinr_bound(kind, cls, stream_powers(PARAMS.P, split))
    # the oracle's split inequalities and the bound's power ratio round
    # differently, so within a few ulps of the bound only the package's own
    # contract is checked: coverage is exactly zero from the bound up
    if math.isinf(bound) or abs(t - bound) > 4 * math.ulp(bound):
        assert outage_region(kind, cls, t, split) == (t >= bound)
    if t >= bound:
        assert coverage(spec, t) == 0.0


def test_center_dominates_edge_at_equal_powers():
    # with rho = 1/2 both classes see identical stream powers, so the only
    # difference is distance; the closer class must have heavier tails
    for kind in SinrKind:
        c = spec_for(kind, ReceiverClass.CENTER)
        e = spec_for(kind, ReceiverClass.EDGE)
        for q in (0.7, 0.3):
            t = quantile(e, q)
            assert coverage(c, t) >= coverage(e, t)


def test_high_power_coverage_approaches_a_step():
    params = SystemParams(P=1e10)
    spec = dist_spec(
        SinrKind.COMMON,
        ReceiverClass.CENTER,
        stream_powers(params.P, SPLIT),
        params,
    )
    theta = spec.theta
    assert coverage(spec, 0.5 * theta) > 0.99
    assert coverage(spec, 0.999 * theta) > 0.5
    assert coverage(spec, theta) == 0.0


def test_scale_coordinates_round_trip():
    spec = spec_for(SinrKind.COMMON, ReceiverClass.CENTER)
    for t in (0.1, 0.5, 0.9):
        s = spec._s(t * spec.theta)
        assert level_of_s(spec, s) == pytest.approx(t * spec.theta, rel=1e-12)
    assert level_of_s(spec, math.inf) == spec.theta
    assert level_of_s(spec, 0.0) == 0.0


def test_scale_measure_matches_the_density():
    spec = spec_for(SinrKind.PRIVATE, ReceiverClass.EDGE)
    t = quantile(spec, 0.4)
    s = spec._s(t)
    # m(s) ds = g(t) dt, so m(s) = g(t) / s'(t)
    assert pdf_s_measure(spec, s) == pytest.approx(
        pdf(spec, t, PARAMS) / _s_prime(spec, t), rel=1e-10
    )


@pytest.mark.parametrize("cls", list(ReceiverClass))
def test_array_tail_is_the_scalar_tail(cls):
    # across both incomplete-gamma branches of the annulus (x_in = a + 1
    # sits near s = 1e-7 at the stock radii), the underflow point and the
    # ends s = 0, inf and NaN
    spec = spec_for(SinrKind.COMMON, cls)
    s = np.concatenate([np.geomspace(1e-300, 700.0, 301), [0.0, 745.0, 746.0, np.inf, np.nan]])
    got = scale_tail_array(s, *spec.tail)
    want = [tail_at(spec, float(x)) for x in s]
    assert got.tolist() == pytest.approx(want, rel=1e-13, abs=1e-300)
    assert got[-5:].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "kind,cls",
    [
        (SinrKind.COMMON, ReceiverClass.CENTER),
        (SinrKind.COMMON, ReceiverClass.EDGE),
        (SinrKind.PRIVATE, ReceiverClass.CENTER),
        (SinrKind.PRIVATE_IIC, ReceiverClass.EDGE),
        (SinrKind.PRIVATE_INTERF_IIC, ReceiverClass.CENTER),
    ],
)
def test_coverage_against_simulation(kind, cls):
    spec = spec_for(kind, cls)
    sim = SimConfig(samples=40_000, seed=7)
    for q in (0.7, 0.3):
        t = quantile(spec, q)
        a = coverage(spec, t)
        p, se = estimate_coverage(kind, cls, t, PARAMS, SPLIT, sim)
        assert abs(a - p) <= 3.0 * se
