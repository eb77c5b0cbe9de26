"""The scale-coordinate density and the conditional rates against mpmath.

The density oracle is the model's own definition rather than the closed
form: the coverage is E_d[exp(-s (1 + d^alpha))] over the receiver's
position, so the scale measure is m(s) = E_d[(1 + d^alpha) exp(-s (1 +
d^alpha))], an integral of a positive integrand that cannot cancel. The
rate references then use the closed-form density with mpmath's upper
incomplete gamma difference Gamma(a, x_in) - Gamma(a, x_out), which does not
cancel either, so a few more digits than double precision are enough.

Edge receivers sit in the annulus (r_e, r_0); x_in = s r_e^alpha is the
inner-radius argument of the incomplete gamma. Past x_in ~ 20 the package
once formed the annulus density as a difference of two nearly equal terms
and lost every digit by x_in ~ 35; these checks cover that range to
x_in = 150.
"""

import functools
import math

import mpmath as mp
import pytest

from rscache import rates
from rscache.caching import Mode, parse_subcase_token
from rscache.distributions import coverage, dist_spec, scale_measure
from rscache.model import (
    PowerSplit,
    ReceiverClass,
    SinrKind,
    SystemParams,
    private_sinr_threshold,
    sinr_bound,
    stream_powers,
)
from rscache.rates import (
    common_rate_both,
    common_rate_single,
    gap_thresholds,
    omegas,
    private_rate_after_common,
    private_rate_with_interference,
)
from rscache.sweep import figure_presets

PARAMS = SystemParams()
STOCK = PowerSplit(beta=0.5, rho=0.5)
# q_e = 1.59e-49 here: the edge receiver's conditional laws sit at x_in > 100
DEEP = PowerSplit(beta=0.3, rho=0.2)
X_IN = (5.0, 10.0, 20.0, 28.0, 40.0, 60.0, 100.0, 150.0)
RATE_DPS = 20


def _geometry(cls):
    alpha = mp.mpf(PARAMS.alpha)
    if cls is ReceiverClass.EDGE:
        return alpha, mp.mpf(PARAMS.r_e), mp.mpf(PARAMS.r_0)
    return alpha, mp.mpf(0), mp.mpf(PARAMS.r_c)


@functools.lru_cache(maxsize=None)
def _position_average_measure(cls, s):
    """E_d[(1 + d^alpha) e^{-s (1 + d^alpha)}] with d uniform over the area.

    With u = d^alpha the area law is (2/alpha) u^(a-1) du / (r_out^2 -
    r_in^2); v = s (u - u_in) lifts the e^{-s u_in} decay out of the
    integral, so mp.quad's absolute tolerance acts on an O(1) integrand.
    The working precision is the one a cancelling reference would need,
    x_in / ln 10 + 30 digits; this one does not cancel, so it is margin.
    """
    x_in = s * PARAMS.r_e**PARAMS.alpha
    with mp.workdps(int(x_in / math.log(10)) + 30):
        alpha, r_in, r_out = _geometry(cls)
        a = 2 / alpha
        u_in, u_out = r_in**alpha, r_out**alpha
        s = mp.mpf(s)
        top = s * (u_out - u_in)

        def f(v):
            u = u_in + v / s
            return (1 + u) * u ** (a - 1) * mp.exp(-v)

        pts = [mp.mpf(0)] + [mp.mpf(p) for p in (1, 4, 16, 64, 256) if p < top] + [top]
        return (
            mp.exp(-s * (1 + u_in)) * (2 / alpha) * mp.quad(f, pts)
            / (s * (r_out**2 - r_in**2))
        )


@pytest.mark.parametrize("x_in", X_IN)
@pytest.mark.parametrize("kind", [SinrKind.COMMON, SinrKind.PRIVATE_INTERF])
@pytest.mark.parametrize("cls", list(ReceiverClass))
def test_scale_measure_matches_position_average(cls, kind, x_in):
    # the measure depends on the class alone; both kinds must see it
    spec = dist_spec(kind, cls, stream_powers(PARAMS.P, STOCK), PARAMS)
    s = x_in / PARAMS.r_e**PARAMS.alpha
    got = scale_measure(spec, PARAMS)(s)
    want = _position_average_measure(cls, s)
    assert want > 0
    assert abs((mp.mpf(got) - want) / want) < 1e-13


# -- conditional rates -------------------------------------------------------


def _coverage_at_scale(cls, s):
    """2 e^-s (Gamma(a, x_in) - Gamma(a, x_out)) / (alpha (r_out^2 - r_in^2) s^a)."""
    if s == mp.inf:
        return mp.mpf(0)
    alpha, r_in, r_out = _geometry(cls)
    a = 2 / alpha
    diff = mp.gammainc(a, s * r_in**alpha, s * r_out**alpha)
    return 2 * mp.exp(-s) * diff / (alpha * (r_out**2 - r_in**2) * s**a)


def _measure(cls, s):
    alpha, r_in, r_out = _geometry(cls)
    a = 2 / alpha
    x_in, x_out = s * r_in**alpha, s * r_out**alpha
    bracket = (s + a) * mp.gammainc(a, x_in, x_out) / s**a - (
        r_out**2 * mp.exp(-x_out) - r_in**2 * mp.exp(-x_in)
    )
    return 2 * mp.exp(-s) * bracket / (alpha * (r_out**2 - r_in**2) * s)


def _scale(spec, t):
    t = mp.mpf(t)
    den = mp.mpf(spec.d1) - mp.mpf(spec.d2) * t
    return mp.inf if den <= 0 else mp.mpf(spec.sigma2) * t / den


def _level(spec, s):
    return mp.mpf(spec.d1) * s / (mp.mpf(spec.sigma2) + mp.mpf(spec.d2) * s)


def _ref_coverage(spec, t):
    return _coverage_at_scale(spec.cls, _scale(spec, t))


def _ref_expect(spec, lo, hi, weight=None):
    """Integral of log2(1+t) weight(t) g(t) dt over (lo, min(hi, theta)).

    Integrated over x = s r^alpha (r the inner radius of the annulus, the
    radius of the disk). The integrand is divided by its starting value, so
    the absolute tolerance of mp.quad acts as a relative one, and it is cut
    45 units past x_lo. The cut is only sound for an integrand that decays
    like e^-x, as the annulus density does; the plain disk density decays
    by a power law on this axis. So where the cut applies and the integrand
    there has not fallen below e^-40 of its start, this raises instead of
    returning a value that is too low.
    """
    alpha, r_in, r_out = _geometry(spec.cls)
    r_alpha = (r_in if spec.cls is ReceiverClass.EDGE else r_out) ** alpha
    x_lo = _scale(spec, lo) * r_alpha
    x_hi = _scale(spec, min(hi, spec.theta)) * r_alpha

    def f(x):
        s = x / r_alpha
        t = _level(spec, s)
        w = 1 if weight is None else weight(t)
        return mp.log(1 + t, 2) * w * _measure(spec.cls, s) / r_alpha

    lift = 1 / f(x_lo)
    pts = [x_lo] + [x_lo + d for d in (1, 4, 12) if x_lo + d < x_hi]
    cut = x_lo + 45
    if cut < x_hi:
        left = abs(f(cut) * lift)
        if not left < mp.exp(-40):
            raise ValueError(f"integrand at the cut is {mp.nstr(left, 3)} of its start")
    pts.append(min(x_hi, cut))
    return mp.quad(lambda x: f(x) * lift, pts, method="gauss-legendre") / lift


def _powers(split):
    return stream_powers(PARAMS.P, split)


def test_common_rate_single_edge_matches_mpmath():
    spec = dist_spec(SinrKind.COMMON, ReceiverClass.EDGE, _powers(STOCK), PARAMS)
    with mp.workdps(RATE_DPS):
        want = _ref_expect(spec, PARAMS.zeta, spec.theta) / _ref_coverage(spec, PARAMS.zeta)
    got = rates._point(PARAMS, STOCK).at(common_rate_single, ReceiverClass.EDGE, False)
    assert got == pytest.approx(float(want), rel=1e-10)
    # the value a cancelling density froze: 0.5935459527, off by -1.4e-7
    assert got == pytest.approx(0.593546033263504, rel=1e-12)


def test_common_rate_both_matches_mpmath():
    powers = _powers(STOCK)
    c = dist_spec(SinrKind.COMMON, ReceiverClass.CENTER, powers, PARAMS)
    e = dist_spec(SinrKind.COMMON, ReceiverClass.EDGE, powers, PARAMS)
    z = PARAMS.zeta
    with mp.workdps(RATE_DPS):

        def half(outer, inner):
            return _ref_expect(inner, z, inner.theta, lambda t: _ref_coverage(outer, t))

        want = (half(e, c) + half(c, e)) / (_ref_coverage(c, z) * _ref_coverage(e, z))
    got = rates._point(PARAMS, STOCK).at(common_rate_both, None)
    assert got == pytest.approx(float(want), rel=1e-10)


def test_common_rate_both_ends_at_the_kink_like_mpmath():
    # fig3 at beta = 0.35 with cancellation at the edge: the center's
    # common bound (0.54) sits inside the edge's (1.08), so the center tail
    # in the edge half is exactly zero past its bound. The reference ends
    # that half there, on the log-s axis (the x-axis cut of _ref_expect
    # loses the slow decay of the disk half), and runs the other half to
    # s = e^8, where e^-s has underflowed.
    name, spec3 = figure_presets()["fig3"][1]
    params, split = spec3.at(0.35)
    powers = stream_powers(params.P, split)
    c = dist_spec(SinrKind.COMMON, ReceiverClass.CENTER, powers, params)
    e = dist_spec(SinrKind.COMMON_IIC, ReceiverClass.EDGE, powers, params)
    z = params.zeta
    assert z < c.theta < e.theta
    with mp.workdps(30):

        def half(outer, inner):
            lo = mp.log(_scale(inner, z))
            cap = min(outer.theta, inner.theta)
            hi = mp.mpf(8) if math.isinf(cap) else mp.log(_scale(inner, cap))

            def f(u):
                s = mp.exp(u)
                t = _level(inner, s)
                return mp.log(1 + t, 2) * _ref_coverage(outer, t) * _measure(inner.cls, s) * s

            pts = [lo] + [mp.mpf(k) for k in range(int(mp.floor(lo)) + 1, int(mp.ceil(hi)), 3)]
            return mp.quad(f, pts + [hi])

        want = (half(e, c) + half(c, e)) / (_ref_coverage(c, z) * _ref_coverage(e, z))
    got = rates._point(params, split).at(common_rate_both, ReceiverClass.EDGE)
    assert name == "fig3_cc-mpc.csv"
    assert got == pytest.approx(float(want), rel=1e-11)
    # integrating across the kink to infinity gave 0.5912165445, 1.2e-6 low
    assert got == pytest.approx(0.591217225173, rel=1e-11)


@pytest.mark.parametrize(
    "power,iic_at,want",
    [
        (1e9, None, 1.7369562257671506537),
        (1e10, None, 1.7369645000815383731),
        (1e9, ReceiverClass.EDGE, 1.7369640800628628379),
        (1e10, ReceiverClass.EDGE, 1.7369654266075034643),
        (1e11, ReceiverClass.EDGE, 1.7369655757955077218),
        (1e12, None, 1.7369655800804534653),
        (1e12, ReceiverClass.CENTER, 1.736965581411589441),
        (1e12, ReceiverClass.EDGE, 1.7369655921676534234),
        (1e100, None, math.log2(1.0 + 7.0 / 3.0)),
    ],
)
def test_common_rate_both_at_high_power_matches_mpmath(power, iic_at, want):
    # beta = 0.7, rho = 0.5: the two tails fall to zero within a few ulps of
    # the common bound 7/3 (4.67 at the cancelling edge), where t's distance
    # to the bound cancels. References from the tail-product integral at 40
    # digits, taken in the scale of either receiver; at P = 1e100 the rate is
    # its noise-free limit log2(1 + 7/3).
    point = rates._point(SystemParams(P=power), PowerSplit(beta=0.7, rho=0.5))
    got = point.at(common_rate_both, iic_at)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_private_rate_after_common_edge_matches_mpmath():
    # the pfr edge stream of mpc-cc efr/pfr: its private threshold sits
    # below the equal-gain point, so the common event (q = 2.9e-13) is the
    # conditioning and the integral starts at that point
    powers = _powers(STOCK)
    cls = ReceiverClass.EDGE
    sub = parse_subcase_token(Mode.MPC_CC, "efr/pfr")
    _, omega = omegas(PARAMS, sub)
    xi_t = private_sinr_threshold(omega, PARAMS.xi)
    after, _ = gap_thresholds(rates._point(PARAMS, STOCK), cls)
    assert xi_t < after
    spec = dist_spec(SinrKind.PRIVATE, cls, powers, PARAMS)
    spec0 = dist_spec(SinrKind.COMMON, cls, powers, PARAMS)
    bound = sinr_bound(SinrKind.PRIVATE, cls, powers)
    with mp.workdps(RATE_DPS):
        want = omega * _ref_expect(spec, after, bound) / _ref_coverage(spec0, PARAMS.zeta)
    got = rates._point(PARAMS, STOCK).at(private_rate_after_common, cls, omega, False)
    assert got == pytest.approx(float(want), rel=1e-10)


def test_private_rate_with_interference_deep_edge_matches_mpmath():
    # above the common bound the interference route carries the whole
    # conditioning, here on q_e = 1.59e-49; the cancelling density read 0
    powers = _powers(DEEP)
    cls = ReceiverClass.EDGE
    assert PARAMS.zeta >= sinr_bound(SinrKind.COMMON, cls, powers)
    spec = dist_spec(SinrKind.PRIVATE_INTERF, cls, powers, PARAMS)
    xi_t = private_sinr_threshold(1.0, PARAMS.xi)
    q = coverage(spec, xi_t, PARAMS)
    assert 1e-50 < q < 1e-48
    bound = sinr_bound(SinrKind.PRIVATE_INTERF, cls, powers)
    with mp.workdps(RATE_DPS):
        want = _ref_expect(spec, xi_t, bound) / _ref_coverage(spec, xi_t)
    got = rates._point(PARAMS, DEEP).at(private_rate_with_interference, cls, 1.0, False)
    assert got == pytest.approx(float(want), rel=1e-10)
    assert got == pytest.approx(1.00139693407776, rel=1e-12)


def _fig9_cancelled_interference_route():
    """fig9 at P = 10^5.5, beta = 0.3: the cancelling center's interference route."""
    name, spec9 = figure_presets()["fig9"][2]
    params, split = spec9.at(spec9.grid()[11])
    powers = stream_powers(params.P, split)
    assert name == "fig9_iic_beta03.csv"
    assert params.zeta >= sinr_bound(SinrKind.COMMON_IIC, ReceiverClass.CENTER, powers)
    spec = dist_spec(SinrKind.PRIVATE_INTERF_IIC, ReceiverClass.CENTER, powers, params)
    return params, split, spec, private_sinr_threshold(1.0, params.xi)


def test_ref_expect_refuses_a_disk_integrand_that_has_not_decayed():
    # unguarded, the x-axis cut read 0.96698 here against 1.11454 (15% low)
    _, _, spec, xi_t = _fig9_cancelled_interference_route()
    with mp.workdps(RATE_DPS), pytest.raises(ValueError, match="at the cut"):
        _ref_expect(spec, xi_t, spec.theta)
    # the disk half of common_rate_both at fig3 beta = 0.35, weighted by the
    # tail of a cancelling edge receiver that decays more slowly than e^-x;
    # unguarded, the common rate built on it read 0.569712 against 0.591217
    params, split = figure_presets()["fig3"][1][1].at(0.35)
    powers = stream_powers(params.P, split)
    c = dist_spec(SinrKind.COMMON, ReceiverClass.CENTER, powers, params)
    e = dist_spec(SinrKind.COMMON_IIC, ReceiverClass.EDGE, powers, params)
    with mp.workdps(RATE_DPS), pytest.raises(ValueError, match="at the cut"):
        _ref_expect(c, params.zeta, c.theta, lambda t: _ref_coverage(e, t))


def test_cancelled_interference_route_at_high_power_matches_mpmath():
    # fig9 at P = 10^5.5, beta = 0.3: the cancelling center receiver is
    # served only through the interference route, whose integral runs up
    # to the table bound theta = pc/p0. The disk density decays by a power
    # law in s, so the reference integrates in log s up to where e^-s has
    # underflowed (the x-axis cut of _ref_expect suits the annulus only).
    params, split, spec, xi_t = _fig9_cancelled_interference_route()
    cls = ReceiverClass.CENTER
    with mp.workdps(40):
        lo = mp.log(_scale(spec, xi_t))

        def f(u):
            s = mp.exp(u)
            return mp.log(1 + _level(spec, s), 2) * _measure(cls, s) * s

        pts = [lo] + [mp.mpf(k) for k in range(int(lo) + 1, 8)]
        want = mp.quad(f, pts) / _ref_coverage(spec, xi_t)
    got = rates._point(params, split).at(private_rate_with_interference, cls, 1.0, True)
    assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)
