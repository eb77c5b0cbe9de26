"""Incomplete gamma against a high-precision reference.

The table below was frozen from mpmath.gammainc at 40 decimal digits;
the live hypothesis check reuses mpmath directly.
"""

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rscache.incgamma import reg_lower, reg_lower_diff, reg_upper

# (a, x, regularized lower value); a = 2/alpha for the exponents the
# coverage formulas use, plus a > 1 to cross the series/fraction split.
_REG_LOWER_TABLE = (
    (0.5, 1e-08, 0.00011283791633342487),
    (0.5, 0.01, 0.11246291601828489),
    (0.5, 0.4, 0.62890663047730244),
    (0.5, 1.0, 0.84270079294971487),
    (0.5, 1.3, 0.89313628500662054),
    (0.5, 5.0, 0.99843459774199745),
    (0.5, 30.0, 0.99999999999999051),
    (0.5, 500.0, 1.0),
    (0.6666666666666666, 1e-06, 0.00011077317243397445),
    (0.6666666666666666, 0.2, 0.35033779455905983),
    (0.6666666666666666, 1.1, 0.80062967731663546),
    (0.6666666666666666, 8.0, 0.9998806146636987),
    (0.6666666666666666, 80.0, 1.0),
    (0.25, 0.03, 0.45642277724133952),
    (0.25, 2.0, 0.98271398814048323),
    (0.25, 60.0, 1.0),
    (1.0, 0.5, 0.39346934028736658),
    (1.0, 3.0, 0.95021293163213606),
    (3.7, 0.9, 0.021879054517008111),
    (3.7, 4.6, 0.72762939008466319),
    (3.7, 120.0, 1.0),
)


@pytest.mark.parametrize("a,x,expected", _REG_LOWER_TABLE)
def test_reg_lower_matches_frozen_reference(a, x, expected):
    got = reg_lower(a, x)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("a,x,expected", _REG_LOWER_TABLE)
def test_reg_upper_is_the_complement(a, x, expected):
    assert reg_lower(a, x) + reg_upper(a, x) == pytest.approx(1.0, rel=1e-12)


def test_edge_values():
    assert reg_lower(0.5, 0.0) == 0.0
    assert reg_upper(0.5, 0.0) == 1.0


def test_diff_of_bounds():
    a, x_lo, x_hi = 0.5, 0.7, 4.1
    direct = reg_lower(a, x_hi) - reg_lower(a, x_lo)
    assert reg_lower_diff(a, x_lo, x_hi) == pytest.approx(direct, rel=1e-10)
    assert reg_lower_diff(a, x_hi, x_hi) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(min_value=0.05, max_value=20.0),
    x=st.floats(min_value=0.0, max_value=200.0),
)
def test_reg_lower_matches_mpmath(a, x):
    with mp.workdps(30):
        want = float(mp.gammainc(mp.mpf(a), 0, mp.mpf(x), regularized=True))
    assert reg_lower(a, x) == pytest.approx(want, rel=1e-12, abs=1e-280)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(min_value=0.05, max_value=20.0),
    x=st.floats(min_value=1e-12, max_value=200.0),
    y=st.floats(min_value=1e-12, max_value=200.0),
)
def test_reg_lower_is_monotone_in_x(a, x, y):
    lo, hi = sorted((x, y))
    assert reg_lower(a, lo) <= reg_lower(a, hi) + 1e-15
