"""The single-receiver rates in their E1 form against two independent references.

rates._mean_lograte takes the fading in closed form (e^x E1(x)) and the
position with a fixed G7K15 rule. The first reference takes the same
quantity as the adaptive Gauss-Kronrod integral of log2(1 + t) against the
closed-form scale density (oracles.mean_lograte_by_density), which does
not use the E1 form. The second evaluates the E1 form itself
with mpmath at 40 digits, where the high-power difference
e^x E1(x) - e^y E1(y) of two large, nearly equal terms costs nothing.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from rscache import rates
from rscache.caching import Mode, parse_subcase_token
from rscache.model import (
    PowerSplit,
    ReceiverClass,
    SinrKind,
    SystemParams,
    private_sinr_threshold,
)
from rscache.rates import evaluate_subcase
from rscache.sweep import MODE_SUBCASES, figure_presets

from oracles import mean_lograte_by_density


def _value(made):
    """A lone _mean_lograte's value: a number as it is, a request evaluated alone."""
    return made if isinstance(made, float) else made.finish(rates._integrate([made])[0])


def _captured_calls(monkeypatch, points):
    """Every distinct _mean_lograte argument tuple that evaluating the points asks for.

    Run it on cold rate caches, or a cached functional hides its call.
    """
    calls = {}
    inner = rates._mean_lograte

    def record(*args):
        calls[args] = None
        return inner(*args)

    monkeypatch.setattr(rates, "_mean_lograte", record)
    for params, split, subs in points:
        for sub in subs:
            evaluate_subcase(sub, params, split)
    monkeypatch.undo()
    return list(calls)


def _figure_points():
    """Every grid point of every figure preset, with its roster."""
    points = []
    for entries in figure_presets().values():
        for _name, spec in entries:
            subs = [parse_subcase_token(spec.mode, tok) for tok in spec.subcases]
            grid = spec.grid()
            for value in grid:
                points.append((*spec.at(value), subs))
    return points


def test_e1_form_matches_the_density_integral(monkeypatch, cold_rate_caches):
    params = SystemParams()
    roster = [parse_subcase_token(m, tok) for m in Mode for tok in MODE_SUBCASES[m]]
    # the stock edge receiver at (0.5, 0.5) is served with probability 2.9e-13
    deep = [(params, PowerSplit(beta=0.5, rho=0.5), roster)]
    calls = _captured_calls(monkeypatch, _figure_points() + deep)
    assert len(calls) > 200
    assert min(args[7] for args in calls) < 1e-12
    bad = []
    for args in calls:
        point, kind, cls, iic, omega, lo, hi, norm = args
        spec = point.law(kind, cls, iic)
        got = _value(rates._mean_lograte(*args))
        want = mean_lograte_by_density(spec, omega, lo, hi, norm, point.params)
        if not got == pytest.approx(want, rel=1e-10, abs=1e-300):
            bad.append((spec.kind, cls, lo, hi, norm, got, want))
    assert bad == []


def _e1_reference(spec, omega, lo, params):
    """omega E[log2(1 + SINR) | SINR > lo] from the E1 form at 40 digits.

    At distance d, with D = 1 + d^alpha, the fade integral above lo is
    e^-sD (ln(1 + lo) + phi(D (s + tau1)) - phi(D (s + tau2))), phi(x) =
    e^x E1(x); the position average and its normaliser E_d[e^-sD] are
    mpmath quadratures cut at the knees of ln(1 + d^alpha).
    """
    with mp.workdps(40):
        d1, d2, sigma2 = mp.mpf(spec.d1), mp.mpf(spec.d2), mp.mpf(spec.sigma2)
        lo = mp.mpf(lo)
        s = sigma2 * lo / (d1 - d2 * lo)
        alpha = mp.mpf(params.alpha)
        r_in, r_out = (
            (params.r_e, params.r_0) if spec.cls is ReceiverClass.EDGE else (0.0, params.r_c)
        )

        def phi(x):
            return mp.exp(x) * mp.e1(x)

        def fade(d):
            big_d = 1 + d**alpha
            value = mp.log1p(lo) + phi(big_d * (s + sigma2 / (d1 + d2)))
            if d2 > 0:
                value -= phi(big_d * (s + sigma2 / d2))
            return d * mp.exp(-s * big_d) * value

        cuts = [r_in, *(k for k in (0.25, 0.5, 1, 2, 4, 8, 16, 32) if r_in < k < r_out), r_out]
        num = mp.quad(fade, cuts)
        den = mp.quad(lambda d: d * mp.exp(-s * (1 + d**alpha)), cuts)
        return float(omega * num / (mp.log(2) * den))


@pytest.mark.parametrize("power", [1e11, 1e30, 1e100])
def test_e1_form_at_high_power_matches_mpmath(power):
    params = SystemParams(P=power)
    point = rates._point(params, PowerSplit(beta=0.7, rho=0.5))
    omega = 2.0
    xi_t = private_sinr_threshold(omega, params.xi)
    for kind, cls, iic, lo in (
        (SinrKind.COMMON, ReceiverClass.CENTER, False, params.zeta),
        (SinrKind.PRIVATE, ReceiverClass.EDGE, False, xi_t),
        # nothing interferes: no tau2 term, and the rate grows with P
        (SinrKind.PRIVATE, ReceiverClass.CENTER, True, xi_t),
    ):
        spec = point.law(kind, cls, iic)
        norm = point.cover(kind, cls, iic, lo)
        got = _value(rates._mean_lograte(point, kind, cls, iic, omega, lo, math.inf, norm))
        assert got == pytest.approx(_e1_reference(spec, omega, lo, params), rel=1e-13), spec.kind


def test_phi_matches_mpmath_on_both_sides_of_the_laguerre_switch():
    # below rates._PHI_LAGUERRE from scipy's exp1, above from the 16-node
    # Gauss-Laguerre sum, which must be numpy's rule
    nodes, weights = np.polynomial.laguerre.laggauss(16)
    assert np.array_equal(rates._LAGUERRE_NODES, nodes)
    assert np.array_equal(rates._LAGUERRE_WEIGHTS, weights)
    switch = rates._PHI_LAGUERRE
    x = np.concatenate([np.geomspace(1e-8, 1e8, 161), [switch * (1 - 1e-15), switch, 1e300]])
    got = rates._phi(x)
    with mp.workdps(30):
        want = [float(mp.exp(mp.mpf(v)) * mp.e1(mp.mpf(v))) for v in x]
    assert got == pytest.approx(want, rel=2e-15)
    assert rates._phi(np.array([np.inf]))[0] == 0.0
