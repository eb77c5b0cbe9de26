"""The log-axis Gauss–Kronrod integrator against closed forms."""

import math
import random

import pytest

from rscache.quadrature import QuadratureError, integrate_log_scaled


@pytest.mark.parametrize("lo", [1e-3, 1e-16, 1e-100, 1e-200])
def test_finds_mass_far_above_the_lower_limit(lo):
    # s^(1/2) e^-s: on the log axis the mass sits ln(1/lo) units above the
    # start, up to 460 at lo = 1e-200, and everything between the start
    # and the mass is many decades smaller than the integral. Running
    # error sums lose such terms beside the interval just split; a rule
    # that trusted them stopped at about 1e-75 for lo = 1e-100. The
    # reference is Gamma(3/2, lo) in closed form.
    want = math.sqrt(lo) * math.exp(-lo) + math.sqrt(math.pi) / 2.0 * math.erfc(math.sqrt(lo))
    got = integrate_log_scaled(lambda s: math.sqrt(s) * math.exp(-s), lo, math.inf)
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("lo, hi", [(1e-3, 5.0), (0.5, 2.0), (1e-12, 1e12)])
def test_finite_range_matches_the_antiderivative(lo, hi):
    got = integrate_log_scaled(lambda s: 1.0 / (1.0 + s) ** 2, lo, hi)
    assert got == pytest.approx(1.0 / (1.0 + lo) - 1.0 / (1.0 + hi), rel=1e-9)


def test_empty_range_and_bad_lower_limit():
    assert integrate_log_scaled(math.exp, 2.0, 2.0) == 0.0
    assert integrate_log_scaled(math.exp, 3.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        integrate_log_scaled(math.exp, 0.0, 1.0)


def _noise(amplitude):
    rng = random.Random(7)
    return lambda s: amplitude * (1.0 + rng.random())


def test_unresolvable_integrand_raises():
    with pytest.raises(QuadratureError, match="log-scaled quadrature failed"):
        integrate_log_scaled(_noise(1.0), 1.0, 10.0)


def test_error_floor_scales_with_the_conditioning_probability():
    # noise of size 1e-20 leaves an error near 1e-21: under the 1e-15
    # floor, but not under the floor of a result later divided by 1e-10
    assert integrate_log_scaled(_noise(1e-20), 1.0, 10.0) > 0.0
    with pytest.raises(QuadratureError):
        integrate_log_scaled(_noise(1e-20), 1.0, 10.0, scale=1e-10)


def test_non_finite_value_raises():
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_log_scaled(lambda s: math.nan, 1.0, 2.0)
