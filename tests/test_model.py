"""Stream powers, SINR bounds and pre-log factors."""

import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import instantaneous_sinr

from rscache.distributions import dist_spec
from rscache.model import (
    PowerSplit,
    ReceiverClass,
    SinrKind,
    SystemParams,
    prelog_factors,
    private_sinr_threshold,
    sinr_bound,
    stream_powers,
)

splits = st.builds(
    PowerSplit,
    beta=st.floats(min_value=0.0, max_value=1.0),
    rho=st.floats(min_value=0.0, max_value=1.0),
)
interior_splits = st.builds(
    PowerSplit,
    beta=st.floats(min_value=0.01, max_value=0.99),
    rho=st.floats(min_value=0.01, max_value=0.99),
)


def test_default_prelog_factors():
    w = prelog_factors(5, 30, 50)
    assert w.efr == 1.0
    assert w.pfr == pytest.approx(2.5, abs=1e-12)
    assert w.xor == pytest.approx(10.0, abs=1e-12)
    assert (w.by_index(1), w.by_index(2), w.by_index(3)) == (w.efr, w.pfr, w.xor)


def test_default_private_thresholds():
    # rate target log2(1 + xi) with xi = 1 under each default pre-log
    assert private_sinr_threshold(1.0, 1.0) == pytest.approx(1.0, abs=1e-5)
    assert private_sinr_threshold(2.5, 1.0) == pytest.approx(0.31951, abs=1e-5)
    assert private_sinr_threshold(10.0, 1.0) == pytest.approx(0.07177, abs=1e-5)


@settings(max_examples=200, deadline=None)
@given(
    omega=st.floats(min_value=0.1, max_value=50.0),
    xi=st.floats(min_value=0.01, max_value=20.0),
)
def test_private_threshold_inverts_the_rate_target(omega, xi):
    t = private_sinr_threshold(omega, xi)
    assert omega * math.log2(1.0 + t) == pytest.approx(math.log2(1.0 + xi), rel=1e-12)


#: the stock pre-logs efr, pfr and xor (K = 5, M = 30, N = 50)
STOCK_PRELOGS = (1.0, 2.5, 10.0)


@pytest.mark.parametrize("omega", STOCK_PRELOGS)
def test_private_threshold_matches_mpmath_over_the_float_range(omega):
    # every decade of xi from 1e-300 to 1e300, a dense grid over the six
    # decades around 1, and both sides of the xi = 2^omega - 1 where the
    # threshold reaches 1 and the power form takes over. The reference
    # raises 1 + xi to 1/omega rounded to a double, the exponent the model
    # uses: at xi = 1e300 that rounding alone moves the threshold by
    # 1.5e-14 at omega = 2.5, which no double-precision form removes
    switch = 2.0**omega - 1.0
    xis = [
        *(10.0**k for k in range(-300, 301)),
        *np.geomspace(1e-3, 1e3, 601).tolist(),
        math.nextafter(switch, 0.0), switch, math.nextafter(switch, math.inf),
    ]
    exponent = mp.mpf(1.0 / omega)
    with mp.workdps(40):
        for xi in xis:
            want = mp.expm1(exponent * mp.log1p(mp.mpf(xi)))
            got = private_sinr_threshold(omega, xi)
            assert abs(got / want - 1) <= 1e-15, (omega, xi, got)


def test_private_threshold_keeps_the_power_forms_bits_where_it_reaches_one():
    # expm1(log1p(2) * 3) is 25.99999999999999, one ulp low
    assert private_sinr_threshold(1 / 3, 2.0) == 26.0
    for omega in STOCK_PRELOGS:
        for xi in (2.0 ** (omega + 1.0), 1e10, 1e300):
            assert private_sinr_threshold(omega, xi) == (1.0 + xi) ** (1.0 / omega) - 1.0


def test_prelog_rejects_fractional_replication():
    with pytest.raises(ValueError, match="integer"):
        prelog_factors(5, 7, 10)
    with pytest.raises(ValueError):
        prelog_factors(2, 0, 10)


@settings(max_examples=300, deadline=None)
@given(split=splits, p=st.floats(min_value=0.0, max_value=1e9))
def test_stream_powers_partition_the_budget(split, p):
    powers = stream_powers(p, split)
    assert powers.p0 + powers.pc + powers.pe == pytest.approx(p, rel=1e-12, abs=1e-300)
    assert min(powers.p0, powers.pc, powers.pe) >= 0.0


def test_private_powers_mirror_in_rho():
    a = stream_powers(10.0, PowerSplit(beta=0.4, rho=0.3))
    b = stream_powers(10.0, PowerSplit(beta=0.4, rho=0.7))
    assert a.pc == pytest.approx(b.pe, rel=1e-15)
    assert a.pe == pytest.approx(b.pc, rel=1e-15)
    assert a.own(ReceiverClass.CENTER) == a.pc
    assert a.other(ReceiverClass.EDGE) == a.pc


def test_receiver_class_other():
    assert ReceiverClass.CENTER.other is ReceiverClass.EDGE
    assert ReceiverClass.EDGE.other is ReceiverClass.CENTER


@settings(max_examples=300, deadline=None)
@given(split=interior_splits, cls=st.sampled_from(ReceiverClass))
def test_bounds_are_the_expected_power_ratios(split, cls):
    powers = stream_powers(10.0, split)
    b = {kind: sinr_bound(kind, cls, powers) for kind in SinrKind}
    pn, pk = powers.own(cls), powers.other(cls)
    assert b[SinrKind.COMMON] == pytest.approx(powers.p0 / (pn + pk), rel=1e-12)
    assert b[SinrKind.PRIVATE] == pytest.approx(pn / pk, rel=1e-12)
    assert b[SinrKind.PRIVATE_INTERF] == pytest.approx(pn / (powers.p0 + pk), rel=1e-12)
    assert b[SinrKind.COMMON_IIC] == pytest.approx(powers.p0 / pn, rel=1e-12)
    # removing the other private stream can only raise the common SINR
    assert b[SinrKind.COMMON] <= b[SinrKind.COMMON_IIC]
    assert b[SinrKind.PRIVATE_INTERF_IIC] == pytest.approx(
        1.0 / b[SinrKind.COMMON_IIC], rel=1e-12
    )
    assert b[SinrKind.PRIVATE_IIC] == math.inf
    for kind in SinrKind:
        assert b[kind] >= 0.0


EDGE_SPLITS = [
    PowerSplit(beta, rho) for beta in (0.0, 0.3, 1.0) for rho in (0.0, 0.6, 1.0)
]


@pytest.mark.parametrize("split", EDGE_SPLITS, ids=repr)
@pytest.mark.parametrize("cls", list(ReceiverClass))
@pytest.mark.parametrize("kind", list(SinrKind))
def test_distribution_support_is_the_table_bound(kind, cls, split):
    # one table: the distribution's support bound and the SINR bound are
    # the same signal/interference ratio, degenerate splits included
    powers = stream_powers(10.0, split)
    with warnings.catch_warnings():
        # switched-off streams hit the documented 0/0 bound warning
        warnings.simplefilter("ignore", RuntimeWarning)
        theta = dist_spec(kind, cls, powers, SystemParams()).theta
        bound = sinr_bound(kind, cls, powers)
    assert theta == bound


@settings(max_examples=200, deadline=None)
@given(split=interior_splits)
def test_common_bound_is_class_independent(split):
    powers = stream_powers(10.0, split)
    c = sinr_bound(SinrKind.COMMON, ReceiverClass.CENTER, powers)
    e = sinr_bound(SinrKind.COMMON, ReceiverClass.EDGE, powers)
    assert c == pytest.approx(e, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    split=interior_splits,
    cls=st.sampled_from(ReceiverClass),
    kind=st.sampled_from(SinrKind),
    gain=st.floats(min_value=1e-12, max_value=1e6),
)
def test_sinr_stays_below_its_bound(split, cls, kind, gain):
    powers = stream_powers(10.0, split)
    sinr = instantaneous_sinr(kind, cls, powers, gain, sigma2=1e-5)
    assert 0.0 <= sinr <= sinr_bound(kind, cls, powers)


@settings(max_examples=200, deadline=None)
@given(
    split=interior_splits,
    cls=st.sampled_from(ReceiverClass),
    kind=st.sampled_from(SinrKind),
)
def test_sinr_limits_in_the_link_gain(split, cls, kind):
    powers = stream_powers(10.0, split)
    assert instantaneous_sinr(kind, cls, powers, 0.0, 1e-5) == 0.0
    at_inf = instantaneous_sinr(kind, cls, powers, math.inf, 1e-5)
    bound = sinr_bound(kind, cls, powers)
    if math.isinf(bound):
        assert math.isinf(at_inf)
    else:
        assert at_inf == pytest.approx(bound, rel=1e-12)
    # more gain never hurts
    lo = instantaneous_sinr(kind, cls, powers, 0.3, 1e-5)
    hi = instantaneous_sinr(kind, cls, powers, 3.0, 1e-5)
    assert lo <= hi + 1e-15


def test_sinr_ratio_spot_check():
    powers = stream_powers(10.0, PowerSplit(beta=0.5, rho=0.5))
    # p0 = 5, pc = pe = 2.5; L = 1 makes the noise term sigma2 itself
    L = 1.0
    s2 = 1e-5
    got = instantaneous_sinr(SinrKind.COMMON, ReceiverClass.CENTER, powers, L, s2)
    assert got == pytest.approx(5.0 / (5.0 + s2), rel=1e-12)
    got = instantaneous_sinr(SinrKind.PRIVATE_IIC, ReceiverClass.EDGE, powers, L, s2)
    assert got == pytest.approx(2.5 / s2, rel=1e-12)


def test_param_validation():
    with pytest.raises(ValueError):
        SystemParams(alpha=2.0)
    with pytest.raises(ValueError):
        SystemParams(r_c=60.0, r_e=50.0)
    with pytest.raises(ValueError):
        SystemParams(M=50, N=50)
    with pytest.raises(ValueError):
        PowerSplit(beta=1.2, rho=0.5)
    with pytest.raises(ValueError):
        instantaneous_sinr(
            SinrKind.COMMON,
            ReceiverClass.CENTER,
            stream_powers(10.0, PowerSplit(0.5, 0.5)),
            -1.0,
            1e-5,
        )


@pytest.mark.parametrize("field", ["P", "sigma2", "alpha", "zeta", "xi"])
def test_param_validation_rejects_nan(field):
    with pytest.raises(ValueError):
        SystemParams(**{field: math.nan})


def test_infinite_power_budget_is_rejected():
    # every bound would be inf/inf; the asymptotic rows carry that limit
    with pytest.raises(ValueError, match="must.*--asymptotic"):
        SystemParams(P=math.inf)


@pytest.mark.parametrize("field, value", [("alpha", 200.0), ("r_0", 1e200)])
def test_path_loss_that_overflows_a_float_is_rejected(field, value):
    with pytest.raises(ValueError, match="must"):
        SystemParams(**{field: value})


@pytest.mark.parametrize("r_c, alpha", [(1e-200, 4.0), (1e-80, 4.0), (1e-160, 2.5)])
def test_disk_radius_whose_powers_underflow_is_rejected(r_c, alpha):
    # the position averages divide by r_c^2 and scale by r_c^alpha
    with pytest.raises(ValueError, match="must not underflow"):
        SystemParams(r_c=r_c, alpha=alpha)
    assert SystemParams(r_c=1e-70, alpha=4.0).r_c == 1e-70


@pytest.mark.parametrize("sigma2", [5e-324, 1e-310, sys.float_info.min * (1.0 - 2.0**-52)])
def test_subnormal_noise_power_is_rejected(sigma2):
    # the rates' noise scales sigma2 / (d1 + d2) would underflow to 0
    with pytest.raises(ValueError, match="must not be subnormal"):
        SystemParams(sigma2=sigma2)
    assert SystemParams(sigma2=sys.float_info.min).sigma2 == sys.float_info.min


def test_zero_power_bound_warns_on_degenerate_ratio():
    powers = stream_powers(0.0, PowerSplit(beta=0.5, rho=0.5))
    with pytest.warns(RuntimeWarning, match="0/0"):
        b = sinr_bound(SinrKind.COMMON, ReceiverClass.CENTER, powers)
    assert math.isinf(b)
