"""Achieved-rate formulas: regime dispatch, integrals and cross-checks.

The time-shared common rate is validated by two independent routes. A
CCDF identity turns E[log2(1 + min of the two SINRs); both decode] into a
single integral of the product of coverages, touching no density code.
The retained two-axis integration of the joint density is the second
route. The Monte-Carlo estimator then closes the loop end to end.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rscache import quadrature, rates
from rscache.caching import Mode, parse_subcase_token
from rscache.distributions import coverage, dist_spec
from rscache.model import (
    PowerSplit,
    ReceiverClass,
    SinrKind,
    SystemParams,
    private_sinr_threshold,
    sinr_bound,
    stream_powers,
)
from rscache.montecarlo import SimConfig, estimate_rates
from rscache.quadrature import QuadratureError
from rscache.rates import (
    achieved_rate,
    asymptotic_report,
    common_rate_both,
    common_rate_single,
    common_stream_rate,
    evaluate_subcase,
    _pieces,
    _tail_pieces,
    gap_thresholds,
    sum_rate,
)
from rscache.sweep import MODE_SUBCASES, compare_reports

from oracles import integrate_interval, nested_common_rate_both

PARAMS = SystemParams()
SPLIT = PowerSplit(beta=0.5, rho=0.5)

interior_splits = st.builds(
    PowerSplit,
    beta=st.floats(min_value=0.02, max_value=0.98),
    rho=st.floats(min_value=0.02, max_value=0.98),
)


def _common_kind(cls, iic_at):
    return SinrKind.COMMON_IIC if iic_at is cls else SinrKind.COMMON


def min_rate_by_ccdf_identity(params, split, iic_at, rtol=1e-10):
    """Independent route to the both-decode common rate.

    For X = min of the two common SINRs, integration by parts gives
    E[log2(1+X); X > z] = log2(1+z) P[X > z] + (1/ln 2) * I with
    I the integral of P[X > t] / (1 + t) over t > z, and P[X > t] is the
    product of the two (independent) coverages. Normalizing by that
    product at z matches the conditional definition under test.
    """
    powers = stream_powers(params.P, split)
    z = params.zeta
    spec_c = dist_spec(_common_kind(ReceiverClass.CENTER, iic_at), ReceiverClass.CENTER, powers, params)
    spec_e = dist_spec(_common_kind(ReceiverClass.EDGE, iic_at), ReceiverClass.EDGE, powers, params)
    pi_c = coverage(spec_c, z, params)
    pi_e = coverage(spec_e, z, params)
    if pi_c == 0.0 or pi_e == 0.0:
        return 0.0
    top = min(spec_c.theta, spec_e.theta)

    def integrand(t):
        return coverage(spec_c, t, params) * coverage(spec_e, t, params) / (1.0 + t)

    integral = integrate_interval(integrand, z, top, rtol=rtol, open_upper=True)
    return math.log2(1.0 + z) + integral / (math.log(2.0) * pi_c * pi_e)


@pytest.mark.parametrize(
    "split,iic_at",
    [
        (PowerSplit(0.5, 0.5), None),
        (PowerSplit(0.3, 0.7), None),
        (PowerSplit(0.7, 0.2), None),
        (PowerSplit(0.5, 0.5), ReceiverClass.EDGE),
        (PowerSplit(0.6, 0.4), ReceiverClass.CENTER),
    ],
)
def test_min_rate_matches_the_ccdf_identity(split, iic_at):
    direct = common_rate_both(PARAMS, split, iic_at)
    identity = min_rate_by_ccdf_identity(PARAMS, split, iic_at)
    assert direct == pytest.approx(identity, rel=1e-7)


def test_min_rate_matches_the_two_axis_integration():
    # same quantity through the joint density; slow, so only spot points
    for split, iic_at in ((SPLIT, None), (PowerSplit(0.6, 0.4), ReceiverClass.EDGE)):
        direct = common_rate_both(PARAMS, split, iic_at)
        nested = nested_common_rate_both(PARAMS, split, iic_at, 1e-5)
        assert direct == pytest.approx(nested, rel=1e-5)


def test_min_rate_sits_between_its_almost_sure_bounds():
    bound = sinr_bound(SinrKind.COMMON, ReceiverClass.CENTER, stream_powers(PARAMS.P, SPLIT))
    got = common_rate_both(PARAMS, SPLIT, None)
    assert math.log2(1.0 + PARAMS.zeta) <= got <= math.log2(1.0 + bound)


def test_single_receiver_common_rate_bounds():
    for cls in ReceiverClass:
        got = common_rate_single(PARAMS, SPLIT, cls, False)
        bound = sinr_bound(SinrKind.COMMON, cls, stream_powers(PARAMS.P, SPLIT))
        assert math.log2(1.0 + PARAMS.zeta) <= got <= math.log2(1.0 + bound)


@settings(max_examples=60, deadline=None)
@given(split=interior_splits)
def test_gap_threshold_ordering(split):
    for cls in ReceiverClass:
        after, with_i = gap_thresholds(PARAMS, split, cls)
        powers = stream_powers(PARAMS.P, split)
        assert 0.0 < with_i <= after
        if PARAMS.zeta < sinr_bound(SinrKind.COMMON, cls, powers):
            # while the common stage is feasible, its gain threshold at
            # zeta exceeds the private one at the gap value, keeping the
            # dispatch inequalities consistent with the private bound
            private = sinr_bound(SinrKind.PRIVATE, cls, powers)
            assert after <= private or math.isinf(private)


FROZEN_RATES = (
    # (mode, token, R_c, R_e, R_sum, q_c, q_e, branch_c, branch_e)
    # frozen from this implementation at the bundled defaults; guards
    # against silent numerical drift, not an external source
    ("all-mpc", "efr/efr", 0.830281553134, 0.519137974367, 0.830281553134, 0.250662182432, 2.90250389516e-13, "B1", "B1"),
    ("cc-mpc", "xor/efr", 7.85217101216, 0.519137974367, 7.85217101216, 0.567025695241, 2.90250389516e-13, "B3", "B1"),
    ("cc-mpc", "xor/efr+iic-e", 7.85217100646, 0.528213066465, 7.8521709941, 0.567025695241, 2.44011516513e-09, "B3", "B1"),
    ("cc-mpc", "pfr/efr+iic-e", 3.90596085376, 0.528213066465, 3.90596083041, 0.250662182432, 2.44011516513e-09, "B2", "B1"),
    ("all-cc", "xor/xor", 7.85217101216, 1.12663911845, 7.84294478561, 0.567025695241, 0.00230548763587, "B3", "B3"),
    ("all-cc", "pfr/xor", 3.90596085699, 1.12663911845, 3.88951628114, 0.250662182432, 0.00230548763587, "B2", "B3"),
)


@pytest.mark.parametrize("case", FROZEN_RATES, ids=lambda c: f"{c[0]}:{c[1]}")
def test_frozen_rate_regressions(case):
    mode, token, r_c, r_e, r_sum, q_c, q_e, b_c, b_e = case
    sub = parse_subcase_token(Mode(mode), token)
    rep = evaluate_subcase(sub, PARAMS, SPLIT)
    assert rep.r_center == pytest.approx(r_c, rel=1e-8)
    assert rep.r_edge == pytest.approx(r_e, rel=1e-8)
    assert rep.r_sum == pytest.approx(r_sum, rel=1e-8)
    assert rep.q_center == pytest.approx(q_c, rel=1e-8)
    assert rep.q_edge == pytest.approx(q_e, rel=1e-6)
    assert (rep.branch_center, rep.branch_edge) == (b_c, b_e)


def _branch_reconstruction(params, split, cls, omega, iic_at):
    """Rebuild the dispatched rate from its components and probabilities."""
    powers = stream_powers(params.P, split)
    self_iic = iic_at is cls
    kind_0 = SinrKind.COMMON_IIC if self_iic else SinrKind.COMMON
    kind_p = SinrKind.PRIVATE_IIC if self_iic else SinrKind.PRIVATE
    kind_pi = SinrKind.PRIVATE_INTERF_IIC if self_iic else SinrKind.PRIVATE_INTERF
    xi_t = private_sinr_threshold(omega, params.xi)
    pi_0 = coverage(dist_spec(kind_0, cls, powers, params), params.zeta, params)
    pi_p = coverage(dist_spec(kind_p, cls, powers, params), xi_t, params)
    pi_pif = coverage(dist_spec(kind_pi, cls, powers, params), xi_t, params)
    rs0 = common_stream_rate(params, split, cls, omega, iic_at)
    got = achieved_rate(params, split, cls, omega, iic_at)
    if got.branch in ("B1", "B2", "B3"):
        from rscache.rates import private_rate_after_common, private_rate_with_interference

        rp = private_rate_after_common(params, split, cls, omega, self_iic)
        if got.branch == "B1":
            want = rs0 + (pi_p / pi_0 if pi_0 > 0 else 0.0) * rp
            assert got.q == pytest.approx(pi_0, rel=1e-12)
        elif got.branch == "B2":
            want = rs0 + rp
            assert got.q == pytest.approx(pi_0, rel=1e-12)
        else:
            rpi = private_rate_with_interference(params, split, cls, omega, self_iic)
            share = min(1.0, pi_0 / pi_pif) if pi_pif > 0 else 0.0
            want = share * (rs0 + rp) + (1.0 - share) * rpi
            assert got.q == pytest.approx(pi_pif, rel=1e-12)
    elif got.branch == "B4":
        from rscache.rates import private_rate_with_interference

        want = private_rate_with_interference(params, split, cls, omega, self_iic)
        assert got.q == pytest.approx(pi_pif, rel=1e-12)
    else:
        want = 0.0
        assert got.q == 0.0
    assert got.rate == pytest.approx(want, rel=1e-9, abs=1e-12)
    return got.branch


def test_branch_formulas_reconstruct_and_all_branches_appear():
    seen = set()
    grid = [0.05, 0.2, 0.34, 0.5, 0.75, 0.9]
    for beta in grid:
        for omega, iic_at in ((1.0, None), (10.0, None), (1.0, ReceiverClass.CENTER)):
            for cls in ReceiverClass:
                split = PowerSplit(beta=beta, rho=0.5)
                seen.add(_branch_reconstruction(PARAMS, split, cls, omega, iic_at))
    assert seen == {"B1", "B2", "B3", "B4", "Z"}


@settings(max_examples=150, deadline=None)
@given(
    split=interior_splits,
    omega=st.sampled_from([1.0, 2.5, 10.0]),
    cls=st.sampled_from(ReceiverClass),
    iic=st.sampled_from([None, ReceiverClass.CENTER, ReceiverClass.EDGE]),
)
# the cancelling edge receiver's single common rate is conditioned on a
# subnormal 1.3e-308 here, where the quadrature's error floor underflows
@example(
    split=PowerSplit(beta=0.10707827203019357, rho=0.7808177265864169),
    omega=1.0, cls=ReceiverClass.EDGE, iic=ReceiverClass.EDGE,
)
def test_dispatch_is_total_and_sane(split, omega, cls, iic):
    got = achieved_rate(PARAMS, split, cls, omega, iic)
    assert got.branch in ("B1", "B2", "B3", "B4", "Z")
    assert 0.0 <= got.q <= 1.0
    assert got.rate >= 0.0 and math.isfinite(got.rate)
    if got.branch == "Z":
        assert got.rate == 0.0 and got.q == 0.0


def test_dispatch_gives_a_finite_rate_over_a_fine_grid():
    # a 60 x 60 grid reaches conditioning probabilities below the smallest
    # normal float, e.g. the cancelling edge at (0.309, 0.973) and (0.973, 0.309)
    grid = [float(x) for x in np.linspace(0.01, 0.99, 60)]
    bad = []
    for beta in grid:
        for rho in grid:
            split = PowerSplit(beta=beta, rho=rho)
            for cls in ReceiverClass:
                for iic in (None, ReceiverClass.CENTER, ReceiverClass.EDGE):
                    try:
                        rate = achieved_rate(PARAMS, split, cls, 1.0, iic).rate
                    except QuadratureError as exc:
                        rate = exc
                    if not (isinstance(rate, float) and math.isfinite(rate)):
                        bad.append((beta, rho, cls, iic, rate))
    assert bad == []


def test_degenerate_splits_do_not_crash():
    import warnings

    sub = parse_subcase_token(Mode.ALL_CC, "xor/xor")
    for beta in (0.0, 1.0):
        for rho in (0.0, 0.5, 1.0):
            with warnings.catch_warnings():
                # switched-off streams hit the documented 0/0 bound warning
                warnings.simplefilter("ignore", RuntimeWarning)
                rep = evaluate_subcase(sub, PARAMS, PowerSplit(beta=beta, rho=rho))
            for v in (rep.r_center, rep.r_edge, rep.r_sum):
                assert v >= 0.0 and math.isfinite(v)
            assert 0.0 <= rep.q_center <= 1.0
            assert 0.0 <= rep.q_edge <= 1.0


def test_a_threshold_below_an_ulp_of_one_is_not_rounded_to_zero():
    # (1 + 1e-17)^1 - 1 is 0, which would make every private target a sure
    # event; at P = 1e-25 no SINR reaches 1e-17, so nothing is served
    params = SystemParams(P=1e-25, sigma2=1.0, xi=1e-17)
    assert private_sinr_threshold(1.0, params.xi) == 1e-17
    rep = evaluate_subcase(parse_subcase_token(Mode.ALL_MPC, "efr/efr"), params, PowerSplit())
    assert rep.q_center == rep.q_edge == 0.0


def test_decode_ceiling_exactly_at_threshold_keeps_the_interference_route():
    # beta=0.2 with cancellation puts the common ceiling p0/pc right at
    # zeta, so the receiver must still be served through the
    # common-as-interference route, not silenced by the boundary
    split = PowerSplit(beta=0.2, rho=0.5)
    powers = stream_powers(PARAMS.P, split)
    assert sinr_bound(SinrKind.COMMON_IIC, ReceiverClass.CENTER, powers) == PARAMS.zeta
    sub = parse_subcase_token(Mode.MPC_CC, "efr/xor+iic-c")
    rep = evaluate_subcase(sub, PARAMS, split)
    assert rep.branch_center == "B4"
    assert rep.r_center == pytest.approx(1.3505740856, rel=1e-8)
    assert rep.q_center == pytest.approx(0.1585322992, rel=1e-8)


def _halved(pieces):
    """A piece placement with every piece cut in two."""

    def halved(*args):
        edges = list(pieces(*args))
        out = edges[:1]
        for left, right in zip(edges[:-1], edges[1:]):
            out += [0.5 * (left + right), right]
        return out

    return halved


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_pieces_strictly_increase_when_an_efold_lands_on_a_knee(alpha):
    # from r_in = 0, scale s = y / k^alpha puts the e-fold y at the knee k
    # (exactly so at alpha = 4, s = y = 0.5, k = 1); a zero-width piece
    # there is an input error to the quadrature
    for k in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        for y in rates._EFOLDS:
            edges = _pieces(y / k**alpha, 0.0, 64.0, alpha)
            assert all(a < b for a, b in zip(edges, edges[1:])), (k, y)


def test_fixed_rule_is_stable_under_piece_halving(monkeypatch, cold_rate_caches):
    # the fixed G7K15 rules have no tolerance to refine, so this is their
    # order-raising check: twice the pieces, for the single-receiver rates'
    # position average and the min-rate's log-s axis, the same rates
    subs = [parse_subcase_token(m, tok) for m in Mode for tok in MODE_SUBCASES[m]]
    splits = [SPLIT, PowerSplit(beta=0.3, rho=0.2), PowerSplit(beta=0.8, rho=0.8)]

    def reports():
        return [evaluate_subcase(sub, PARAMS, split) for split in splits for sub in subs]

    base = reports()
    assert any(rep.components.r0_both > 0.0 for rep in base)
    cold_rate_caches()
    monkeypatch.setattr(rates, "_pieces", _halved(_pieces))
    monkeypatch.setattr(rates, "_tail_pieces", _halved(_tail_pieces))
    for a, b in zip(base, reports()):
        for x, y in zip(
            (a.r_center, a.r_edge, a.r_sum, *dataclasses.astuple(a.components)),
            (b.r_center, b.r_edge, b.r_sum, *dataclasses.astuple(b.components)),
        ):
            assert x == pytest.approx(y, rel=1e-12, abs=1e-300)


def _end_points(pieces):
    """A piece rule cut down to one piece from its first edge to its last."""

    def one_piece(*args):
        edges = pieces(*args)
        return [edges[0], edges[-1]]

    return one_piece


def test_fixed_rule_check_trips_on_an_under_resolved_integrand(monkeypatch, cold_rate_caches):
    # the check reads quadrature.DEFAULT_RTOL at each call: a target below
    # the rule's error estimate is refused; and one piece over the whole
    # disk cannot follow the fading factor e^-s d^alpha, which the check
    # must see, even at a target of 1e-8. Nor can one log-s piece from the
    # min-rate's start to its last e-fold follow the two tails.
    spec = dist_spec(
        SinrKind.PRIVATE_IIC, ReceiverClass.CENTER, stream_powers(PARAMS.P, SPLIT), PARAMS
    )
    args = (spec, 1.0, 1.0, math.inf, coverage(spec, 1.0, PARAMS), PARAMS)
    assert rates._mean_lograte(*args) > 0.0
    assert common_rate_both(PARAMS, SPLIT, None) > math.log2(1.0 + PARAMS.zeta)
    cold_rate_caches()
    monkeypatch.setattr(quadrature, "DEFAULT_RTOL", 1e-14)
    with pytest.raises(QuadratureError):
        rates._mean_lograte(*args)
    monkeypatch.setattr(quadrature, "DEFAULT_RTOL", 1e-8)
    monkeypatch.setattr(rates, "_pieces", _end_points(_pieces))
    with pytest.raises(QuadratureError):
        rates._mean_lograte(*args)
    monkeypatch.setattr(rates, "_tail_pieces", _end_points(_tail_pieces))
    with pytest.raises(QuadratureError, match="log-scaled quadrature failed: error estimate"):
        common_rate_both(PARAMS, SPLIT, None)


def test_sum_rate_weighting():
    rep = evaluate_subcase(parse_subcase_token(Mode.ALL_CC, "xor/xor"), PARAMS, SPLIT)
    q_c, q_e = rep.q_center, rep.q_edge
    want = (q_c * rep.r_center + q_e * rep.r_edge) / (q_c + q_e - q_c * q_e)
    assert rep.r_sum == pytest.approx(want, rel=1e-12)
    # nobody served, nothing summed
    from rscache.rates import ReceiverRate

    zero = ReceiverRate(rate=0.0, q=0.0, branch="Z")
    assert sum_rate(zero, zero) == 0.0


def test_all_common_share_to_center_empties_the_edge_min_term():
    params = dataclasses.replace(PARAMS, u=1.0)
    w = 2.5
    pi_c = coverage(
        dist_spec(SinrKind.COMMON, ReceiverClass.CENTER, stream_powers(params.P, SPLIT), params),
        params.zeta,
        params,
    )
    single = common_rate_single(params, SPLIT, ReceiverClass.EDGE, False)
    got = common_stream_rate(params, SPLIT, ReceiverClass.EDGE, w, None)
    assert got == pytest.approx(w * (1.0 - pi_c) * single, rel=1e-9)


def test_high_power_approaches_the_asymptote():
    params = dataclasses.replace(PARAMS, P=1e8, N=60, K=2, zeta=1.0, xi=2.0)
    split = PowerSplit(beta=0.6, rho=0.5)
    for token in ("efr/xor", "efr/pfr", "efr/efr"):
        sub = parse_subcase_token(Mode.MPC_CC, token)
        finite = evaluate_subcase(sub, params, split)
        limit = asymptotic_report(sub, params, split)
        assert finite.r_sum == pytest.approx(limit.r_sum, rel=0.01)
    # with cancellation at the center its private stream is noise limited
    # and the limit diverges; the finite-power rate must be large but finite
    sub = parse_subcase_token(Mode.MPC_CC, "efr/xor+iic-c")
    finite = evaluate_subcase(sub, params, split)
    limit = asymptotic_report(sub, params, split)
    assert math.isinf(limit.r_sum)
    assert math.isfinite(finite.r_sum) and finite.r_sum > 10.0


def test_monte_carlo_agrees_end_to_end():
    sub = parse_subcase_token(Mode.ALL_CC, "xor/xor")
    analytic = evaluate_subcase(sub, PARAMS, SPLIT)
    samples = 200_000
    mc = estimate_rates(sub, PARAMS, SPLIT, SimConfig(samples=samples, seed=5))
    checks = compare_reports("xor/xor", analytic, mc, samples)
    assert all(c.ok for c in checks), [c.detail for c in checks if not c.ok]


def test_component_stderr_mirrors_components():
    sub = parse_subcase_token(Mode.CC_MPC, "xor/efr")
    mc = estimate_rates(sub, PARAMS, SPLIT, SimConfig(samples=50_000, seed=9))
    parts = dataclasses.asdict(mc.components)
    errs = dataclasses.asdict(mc.component_stderr)
    assert set(parts) == set(errs)
    # a populated estimate carries a spread; an empty one stays at zero
    assert errs["rs0_center"] > 0.0
    if parts["r0_both"] == 0.0:
        assert errs["r0_both"] == 0.0
