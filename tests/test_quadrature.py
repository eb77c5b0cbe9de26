"""The fixed piecewise G7K15 rule and its log-axis use against closed forms."""

import math

import numpy as np
import pytest

from rscache.quadrature import QuadratureError, _check, gauss_kronrod
from rscache.rates import integrate_log_scaled


def _integral(fn, edges, scale=1.0):
    """integrate_log_scaled over consecutive log-s edges, summed and checked as the min-rate is."""
    edges = np.asarray(edges)
    pieces, errors = integrate_log_scaled(fn, edges[:-1], edges[1:])
    return _check(float(pieces.sum()), float(errors.sum()), "log-scaled quadrature failed", scale)


def _unit_log_edges(lo, hi, cuts=()):
    """Log-s edges over (lo, hi) at most 1 unit apart, also cut at the given scales."""
    a, b = math.log(lo), math.log(hi)
    inner = [math.log(c) for c in cuts if lo < c < hi]
    return sorted({a, b, *range(math.floor(a) + 1, math.ceil(b)), *inner})


@pytest.mark.parametrize("lo", [1e-3, 1e-16, 1e-100, 1e-200])
def test_finds_mass_far_above_the_lower_limit(lo):
    # s^(1/2) e^-s: on the log axis the mass sits ln(1/lo) units above the
    # start, up to 460 at lo = 1e-200, and everything between the start
    # and the mass is many decades smaller than the integral. Pieces cut at
    # e-folds of e^-s end at 64, which drops a share of about e^-64. The
    # reference is Gamma(3/2, lo) in closed form.
    want = math.sqrt(lo) * math.exp(-lo) + math.sqrt(math.pi) / 2.0 * math.erfc(math.sqrt(lo))
    edges = _unit_log_edges(lo, 64.0, cuts=(0.25, 0.5, 1, 2, 4, 8, 16, 32, 48))
    got = _integral(lambda s: np.sqrt(s) * np.exp(-s), edges)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("lo, hi", [(1e-3, 5.0), (0.5, 2.0), (1e-12, 1e12)])
def test_finite_range_matches_the_antiderivative(lo, hi):
    got = _integral(lambda s: 1.0 / (1.0 + s) ** 2, _unit_log_edges(lo, hi))
    assert got == pytest.approx(1.0 / (1.0 + lo) - 1.0 / (1.0 + hi), rel=1e-12)


def test_empty_range_and_bad_limits():
    empty = np.array([])
    pieces, errors = gauss_kronrod(np.exp, empty, empty)
    assert pieces.shape == errors.shape == (0,)
    assert _integral(np.exp, [math.log(2.0)]) == 0.0
    for left, right in ((2.0, 2.0), (3.0, 2.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            gauss_kronrod(np.exp, [left], [right])


def test_exact_on_polynomials_up_to_the_kronrod_degree():
    # K15 integrates degree 22 exactly and G7 degree 13, so the estimate
    # vanishes only below degree 14
    pieces, errors = gauss_kronrod(lambda x: x**13, [0.0, 1.0], [1.0, 3.0])
    assert pieces == pytest.approx([1.0 / 14.0, (3.0**14 - 1.0) / 14.0], rel=1e-14)
    assert errors == pytest.approx([0.0, 0.0], abs=1e-9)
    pieces, errors = gauss_kronrod(lambda x: x**22, [0.0], [1.0])
    assert pieces[0] == pytest.approx(1.0 / 23.0, rel=1e-14)
    assert errors[0] > 1e-6


def _noise(amplitude):
    rng = np.random.default_rng(7)
    return lambda s: amplitude * (1.0 + rng.random(s.shape))


def test_unresolvable_integrand_raises():
    with pytest.raises(QuadratureError, match="log-scaled quadrature failed"):
        _integral(_noise(1.0), _unit_log_edges(1.0, 10.0))


def test_a_single_under_resolved_piece_trips_the_check():
    # one piece over e^-50x on (0, 10) misses the integral 1/50 by far;
    # ten pieces at the e-folds of the decay still do not, a hundred do
    def rule(edges):
        pieces, errors = gauss_kronrod(lambda x: np.exp(-50.0 * x), edges[:-1], edges[1:])
        return _check(float(pieces.sum()), float(errors.sum()), "under-resolved")

    with pytest.raises(QuadratureError, match="under-resolved: error estimate"):
        rule(np.array([0.0, 10.0]))
    with pytest.raises(QuadratureError):
        rule(np.linspace(0.0, 10.0, 11))
    assert rule(np.linspace(0.0, 1.0, 101)) == pytest.approx(0.02 * (1.0 - math.exp(-50.0)))


def test_error_floor_scales_with_the_conditioning_probability():
    # noise of size 1e-20 leaves an error near 1e-20: under the 1e-15
    # floor, but not under the floor of a result later divided by 1e-10
    edges = _unit_log_edges(1.0, 10.0)
    assert _integral(_noise(1e-20), edges) > 0.0
    with pytest.raises(QuadratureError):
        _integral(_noise(1e-20), edges, scale=1e-10)


def test_non_finite_value_raises():
    with pytest.raises(QuadratureError, match="non-finite"):
        _integral(lambda s: np.full_like(s, math.nan), [0.0, 1.0])
    with pytest.raises(QuadratureError, match="non-finite"):
        _check(math.inf, 0.0, "infinite")
