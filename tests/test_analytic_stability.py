"""Numerical stability of the analytic layer.

Upper-tail incomplete gamma differences are checked against mpmath at 50
digits, NaN input must raise, and every roster subcase is pinned at three
working points so that a change in any layer below the rates (incomplete
gamma, coverage, density, quadrature integrands) shows up as drift. The
scalar incomplete gamma and the coverage are pinned bit for bit: the first
against the scipy.special ufuncs, the second against frozen values.
"""

import math
from collections import Counter

import mpmath as mp
import numpy as np
import pytest
import scipy.special

from rscache import quadrature, rates
from rscache.caching import Mode, parse_subcase_token
from rscache.distributions import coverage, dist_spec
from rscache.incgamma import reg_lower, reg_lower_diff, reg_upper
from rscache.model import (
    PowerSplit,
    ReceiverClass,
    SinrKind,
    SystemParams,
    stream_powers,
)
from rscache.quadrature import QuadratureError
from rscache.rates import asymptotic_report, evaluate_subcase, slot
from rscache.sweep import MODE_SUBCASES, figure_presets

from oracles import level_of_s

PARAMS = SystemParams()


@pytest.mark.parametrize(
    "a,x_lo,x_hi",
    [(0.5, 30.0, 45.0), (0.5, 60.0, 70.0), (0.5, 200.0, 260.0),
     (2.0 / 3.0, 90.0, 91.0), (0.5, 500.0, 700.0)],
)
def test_reg_lower_diff_upper_regime_matches_mpmath(a, x_lo, x_hi):
    # both P values round to 1 here; only the Q - Q form keeps the digits
    with mp.workdps(50):
        want = float(mp.gammainc(mp.mpf(a), mp.mpf(x_lo), mp.mpf(x_hi), regularized=True))
    assert want > 0.0
    assert reg_lower_diff(a, x_lo, x_hi) == pytest.approx(want, rel=1e-12)
    assert reg_lower_diff(a, x_hi, x_lo) == pytest.approx(-want, rel=1e-12)


@pytest.mark.parametrize("fn", [reg_lower, reg_upper])
@pytest.mark.parametrize("a,x", [(0.5, math.nan), (math.nan, 1.0), (math.nan, math.nan)])
def test_nan_arguments_raise(fn, a, x):
    with pytest.raises(ValueError):
        fn(a, x)


def test_nan_difference_raises():
    with pytest.raises(ValueError):
        reg_lower_diff(0.5, math.nan, 2.0)


# (beta, rho, mode, token, R_c, R_e, R_sum, q_c, q_e) for every roster
# subcase at three working points, frozen from the hand-rolled incomplete
# gamma that preceded the scipy-backed one; guards against silent drift.
# The 30 cases with an edge value at x_in > 20 were re-frozen from the
# cancellation-free annulus density; each new value is closer to the
# mpmath reference (within 2e-14) than the one it replaced
ROSTER_RATES = (
    (0.3, 0.2, 'all-mpc', 'efr/efr', 0.0, 1.001396934077763, 1.001396934077763, 0.0, 1.5926115702126012e-49),
    (0.3, 0.2, 'cc-mpc', 'xor/efr+iic-e', 1.6574430463415781, 1.0064275502922955, 1.6574430463415781, 0.3699346286732249, 6.187769320235489e-24),
    (0.3, 0.2, 'cc-mpc', 'pfr/efr+iic-e', 0.0, 1.0064275502922955, 1.0064275502922955, 0.0, 6.187769320235489e-24),
    (0.3, 0.2, 'cc-mpc', 'xor/efr', 1.6574430463415781, 1.001396934077763, 1.6574430463415781, 0.3699346286732249, 1.5926115702126012e-49),
    (0.3, 0.2, 'cc-mpc', 'pfr/efr', 0.0, 1.001396934077763, 1.001396934077763, 0.0, 1.5926115702126012e-49),
    (0.3, 0.2, 'cc-mpc', 'efr/efr', 0.0, 1.001396934077763, 1.001396934077763, 0.0, 1.5926115702126012e-49),
    (0.3, 0.2, 'mpc-cc', 'efr/xor+iic-c', 2.9291159701243883, 1.3793309440501627, 2.677569034721885, 0.24042677055891068, 0.09240729564344244),
    (0.3, 0.2, 'mpc-cc', 'efr/pfr+iic-c', 2.9291159701243883, 1.057259411527886, 2.929082420748063, 0.24042677055891068, 6.908372134988891e-06),
    (0.3, 0.2, 'mpc-cc', 'efr/xor', 0.0, 1.3793309440501627, 1.3793309440501627, 0.0, 0.09240729564344244),
    (0.3, 0.2, 'mpc-cc', 'efr/pfr', 0.0, 1.057259411527886, 1.057259411527886, 0.0, 6.908372134988891e-06),
    (0.3, 0.2, 'mpc-cc', 'efr/efr', 0.0, 1.001396934077763, 1.001396934077763, 0.0, 1.5926115702126012e-49),
    (0.3, 0.2, 'all-cc', 'xor/xor', 1.6574430463415781, 1.3793309440501627, 1.7297518447892823, 0.3699346286732249, 0.09240729564344244),
    (0.3, 0.2, 'all-cc', 'xor/pfr', 1.6574430463415781, 1.057259411527886, 1.657443288397514, 0.3699346286732249, 6.908372134988891e-06),
    (0.3, 0.2, 'all-cc', 'xor/efr', 1.6574430463415781, 1.001396934077763, 1.6574430463415781, 0.3699346286732249, 1.5926115702126012e-49),
    (0.3, 0.2, 'all-cc', 'pfr/xor', 0.0, 1.3793309440501627, 1.3793309440501627, 0.0, 0.09240729564344244),
    (0.3, 0.2, 'all-cc', 'pfr/pfr', 0.0, 1.057259411527886, 1.057259411527886, 0.0, 6.908372134988891e-06),
    (0.3, 0.2, 'all-cc', 'pfr/efr', 0.0, 1.001396934077763, 1.001396934077763, 0.0, 1.5926115702126012e-49),
    (0.3, 0.2, 'all-cc', 'efr/xor', 0.0, 1.3793309440501627, 1.3793309440501627, 0.0, 0.09240729564344244),
    (0.3, 0.2, 'all-cc', 'efr/pfr', 0.0, 1.057259411527886, 1.057259411527886, 0.0, 6.908372134988891e-06),
    (0.3, 0.2, 'all-cc', 'efr/efr', 0.0, 1.001396934077763, 1.001396934077763, 0.0, 1.5926115702126012e-49),
    (0.5, 0.5, 'all-mpc', 'efr/efr', 0.8302815531344341, 0.5191379743669549, 0.8302815531343148, 0.2506621824324468, 2.9025038951606783e-13),
    (0.5, 0.5, 'cc-mpc', 'xor/efr+iic-e', 7.852171006457664, 0.5282130664647884, 7.852170994100246, 0.5670256952412673, 2.4401151651299727e-09),
    (0.5, 0.5, 'cc-mpc', 'pfr/efr+iic-e', 3.905960853764932, 0.5282130664647884, 3.9059608304146454, 0.2506621824324468, 2.4401151651299727e-09),
    (0.5, 0.5, 'cc-mpc', 'xor/efr', 7.852171012159322, 0.5191379743669549, 7.852171012157848, 0.5670256952412673, 2.9025038951606783e-13),
    (0.5, 0.5, 'cc-mpc', 'pfr/efr', 3.9059608569893776, 0.5191379743669549, 3.9059608569865896, 0.2506621824324468, 2.9025038951606783e-13),
    (0.5, 0.5, 'cc-mpc', 'efr/efr', 0.8302815531344341, 0.5191379743669549, 0.8302815531343148, 0.2506621824324468, 2.9025038951606783e-13),
    (0.5, 0.5, 'mpc-cc', 'efr/xor+iic-c', 2.9865751075232687, 1.1266391184252735, 2.979528940525596, 0.3069839241335217, 0.0023054876358744184),
    (0.5, 0.5, 'mpc-cc', 'efr/pfr+iic-c', 2.9865751075232687, 2.3153691371281253, 2.9865751075235005, 0.3069839241335217, 2.9025038951606783e-13),
    (0.5, 0.5, 'mpc-cc', 'efr/xor', 0.8302815531344341, 1.1266391184463123, 0.8348897716514174, 0.2506621824324468, 0.0023054876358744184),
    (0.5, 0.5, 'mpc-cc', 'efr/pfr', 0.8302815531344341, 2.3571474464211453, 0.8302815531364431, 0.2506621824324468, 2.9025038951606783e-13),
    (0.5, 0.5, 'mpc-cc', 'efr/efr', 0.8302815531344341, 0.5191379743669549, 0.8302815531343148, 0.2506621824324468, 2.9025038951606783e-13),
    (0.5, 0.5, 'all-cc', 'xor/xor', 7.852171012159322, 1.1266391184463123, 7.8429447856122785, 0.5670256952412673, 0.0023054876358744184),
    (0.5, 0.5, 'all-cc', 'xor/pfr', 7.852171012159322, 2.3571474464211453, 7.852171012158788, 0.5670256952412673, 2.9025038951606783e-13),
    (0.5, 0.5, 'all-cc', 'xor/efr', 7.852171012159322, 0.5191379743669549, 7.852171012157848, 0.5670256952412673, 2.9025038951606783e-13),
    (0.5, 0.5, 'all-cc', 'pfr/xor', 3.9059608569893776, 1.1266391184463123, 3.8895162811430612, 0.2506621824324468, 0.0023054876358744184),
    (0.5, 0.5, 'all-cc', 'pfr/pfr', 3.9059608569893776, 2.3571474464211453, 3.9059608569887176, 0.2506621824324468, 2.9025038951606783e-13),
    (0.5, 0.5, 'all-cc', 'pfr/efr', 3.9059608569893776, 0.5191379743669549, 3.9059608569865896, 0.2506621824324468, 2.9025038951606783e-13),
    (0.5, 0.5, 'all-cc', 'efr/xor', 0.8302815531344341, 1.1266391184463123, 0.8348897716514174, 0.2506621824324468, 0.0023054876358744184),
    (0.5, 0.5, 'all-cc', 'efr/pfr', 0.8302815531344341, 2.3571474464211453, 0.8302815531364431, 0.2506621824324468, 2.9025038951606783e-13),
    (0.5, 0.5, 'all-cc', 'efr/efr', 0.8302815531344341, 0.5191379743669549, 0.8302815531343148, 0.2506621824324468, 2.9025038951606783e-13),
    (0.8, 0.8, 'all-mpc', 'efr/efr', 1.8896423777957807, 0.4935003228226827, 1.8896226830542737, 0.4182612874324169, 1.359855663673632e-05),
    (0.8, 0.8, 'cc-mpc', 'xor/efr+iic-e', 21.75672358274574, 0.5009803578775066, 21.755591550979556, 0.4182612874324169, 3.8953646981534276e-05),
    (0.8, 0.8, 'cc-mpc', 'pfr/efr+iic-e', 5.175507802519598, 0.5009803578775066, 5.175274070468361, 0.4182612874324169, 3.8953646981534276e-05),
    (0.8, 0.8, 'cc-mpc', 'xor/efr', 21.756994704913975, 0.4935003228226827, 21.756599255067485, 0.4182612874324169, 1.359855663673632e-05),
    (0.8, 0.8, 'cc-mpc', 'pfr/efr', 5.175575583061657, 0.4935003228226827, 5.175493740825296, 0.4182612874324169, 1.359855663673632e-05),
    (0.8, 0.8, 'cc-mpc', 'efr/efr', 1.8896423777957807, 0.4935003228226827, 1.8896226830542737, 0.4182612874324169, 1.359855663673632e-05),
    (0.8, 0.8, 'mpc-cc', 'efr/xor+iic-c', 2.561716932393008, 4.917083920870922, 2.5618273038472825, 0.4240204814322825, 1.359855663673632e-05),
    (0.8, 0.8, 'mpc-cc', 'efr/pfr+iic-c', 2.561716932393008, 1.2292709802123836, 2.5617090359592836, 0.4240204814322825, 1.359855663673632e-05),
    (0.8, 0.8, 'mpc-cc', 'efr/xor', 1.8896423777957807, 4.935003228248214, 1.8897670829504791, 0.4182612874324169, 1.359855663673632e-05),
    (0.8, 0.8, 'mpc-cc', 'efr/pfr', 1.8896423777957807, 1.2337508070567067, 1.8896467497036413, 0.4182612874324169, 1.359855663673632e-05),
    (0.8, 0.8, 'mpc-cc', 'efr/efr', 1.8896423777957807, 0.4935003228226827, 1.8896226830542737, 0.4182612874324169, 1.359855663673632e-05),
    (0.8, 0.8, 'all-cc', 'xor/xor', 21.756994704913975, 4.935003228248214, 21.75674365496369, 0.4182612874324169, 1.359855663673632e-05),
    (0.8, 0.8, 'all-cc', 'xor/pfr', 21.756994704913975, 1.2337508070567067, 21.756623321716848, 0.4182612874324169, 1.359855663673632e-05),
    (0.8, 0.8, 'all-cc', 'xor/efr', 21.756994704913975, 0.4935003228226827, 21.756599255067485, 0.4182612874324169, 1.359855663673632e-05),
    (0.8, 0.8, 'all-cc', 'pfr/xor', 5.175575583061657, 4.935003228248214, 5.1756381407215, 0.4182612874324169, 1.359855663673632e-05),
    (0.8, 0.8, 'all-cc', 'pfr/pfr', 5.175575583061657, 1.2337508070567067, 5.175517807474663, 0.4182612874324169, 1.359855663673632e-05),
    (0.8, 0.8, 'all-cc', 'pfr/efr', 5.175575583061657, 0.4935003228226827, 5.175493740825296, 0.4182612874324169, 1.359855663673632e-05),
    (0.8, 0.8, 'all-cc', 'efr/xor', 1.8896423777957807, 4.935003228248214, 1.8897670829504791, 0.4182612874324169, 1.359855663673632e-05),
    (0.8, 0.8, 'all-cc', 'efr/pfr', 1.8896423777957807, 1.2337508070567067, 1.8896467497036413, 0.4182612874324169, 1.359855663673632e-05),
    (0.8, 0.8, 'all-cc', 'efr/efr', 1.8896423777957807, 0.4935003228226827, 1.8896226830542737, 0.4182612874324169, 1.359855663673632e-05),
)


@pytest.mark.parametrize(
    "case", ROSTER_RATES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}:{c[3]}"
)
def test_roster_rates_are_frozen(case):
    beta, rho, mode, token, *want = case
    sub = parse_subcase_token(Mode(mode), token)
    rep = evaluate_subcase(sub, PARAMS, PowerSplit(beta=beta, rho=rho))
    got = [rep.r_center, rep.r_edge, rep.r_sum, rep.q_center, rep.q_edge]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "fn,ufunc",
    [(reg_lower, scipy.special.gammainc), (reg_upper, scipy.special.gammaincc)],
)
@pytest.mark.parametrize("a", [0.4, 0.5, 2.0 / 3.0, 0.8])
@pytest.mark.parametrize("x", [1e-300, 1e-8, 0.3, "a+1", 30.0, 745.0, 800.0])
def test_scalar_incgamma_is_the_ufunc_bit_for_bit(fn, ufunc, a, x):
    x = a + 1.0 if x == "a+1" else x
    got = fn(a, x)
    assert type(got) is float
    assert got == float(ufunc(a, x))


# (working point, kind, class, coverage at each level of _coverage_levels),
# frozen by repr from the per-call coverage formula that preceded the bound
# tail; working point 0 is SystemParams() at (beta, rho) = (0.4, 0.3),
# working point 1 the same at P = 3.16e7 and (0.6, 0.7)
COVERAGE_POINTS = (
    (SystemParams(), PowerSplit(0.4, 0.3)),
    (SystemParams(P=3.16e7), PowerSplit(0.6, 0.7)),
)
COVERAGE_VALUES = (
    (0, 'COMMON', 'CENTER', (1.0, 1.0, 0.1585322992407622, 0.2745855364423145, 0.0, 0.0, 0.0, 0.9795515389255083, 0.35434615510068007, 0.07926496063705434, 0.011198778053486033, 1.0681875712809455e-06, 1.32102808583542e-309, 0.0)),
    (0, 'COMMON', 'EDGE', (1.0, 1.0, 1.52820219332573e-30, 2.6096677268465365e-11, 0.0, 0.0, 0.0, 0.8339978835536068, 2.4259331682230934e-07, 1.4378778816266073e-115, 0.0, 0.0, 0.0, 0.0)),
    (0, 'PRIVATE', 'CENTER', (1.0, 1.0, 0.0, 0.22973571793925127, 0.0, 0.0, 0.0, 0.9795515389255083, 0.3543461551006801, 0.07926496063705435, 0.011198778053486487, 1.068187569590533e-06, 1.32108656458358e-309, 0.0)),
    (0, 'PRIVATE', 'EDGE', (1.0, 1.0, 2.041142268514505e-10, 1.0276051275690913e-33, 0.0, 0.0, 0.0, 0.833997883553607, 2.4259331682231056e-07, 1.4378778816266894e-115, 0.0, 0.0, 0.0, 0.0)),
    (0, 'PRIVATE_INTERF', 'CENTER', (1.0, 1.0, 0.0, 0.3209743247861199, 0.0, 0.0, 0.0, 0.9795515389255083, 0.3543461551006801, 0.07926496063705436, 0.011198778053485755, 1.0681875706509525e-06, 1.321030691001054e-309, 0.0)),
    (0, 'PRIVATE_INTERF', 'EDGE', (1.0, 1.0, 6.187769320235304e-24, 1.1986425795131535e-11, 0.0, 0.0, 0.0, 0.833997883553607, 2.42593316822311e-07, 1.4378778816266073e-115, 0.0, 0.0, 0.0, 0.0)),
    (0, 'COMMON_IIC', 'CENTER', (1.0, 1.0, 0.27912387457747107, 0.15039686093742272, 0.0, 0.0, 0.0, 0.9795515389255083, 0.35434615510068007, 0.07926496063705436, 0.0111987780534864, 1.0681875708826122e-06, 1.321024596862275e-309, 0.0)),
    (0, 'COMMON_IIC', 'EDGE', (1.0, 1.0, 6.174902202005867e-17, 1.7543366937259301e-15, 0.0, 0.0, 0.0, 0.8339978835536068, 2.4259331682230934e-07, 1.4378778816269365e-115, 0.0, 0.0, 0.0, 0.0)),
    (0, 'PRIVATE_IIC', 'CENTER', (1.0, 1.0, 0.21269387048272972, 0.004729643834365117, 5.81425483744077e-07, 0.0, 0.9795515389255083, 0.35434615510068007, 0.07926496063705436, 0.011198778053486414, 1.0681875708519163e-06, 1.32104794472462e-309, 0.0)),
    (0, 'PRIVATE_IIC', 'EDGE', (1.0, 1.0, 1.735303179377866e-08, 0.0, 0.0, 0.0, 0.8339978835536068, 2.4259331682231056e-07, 1.4378778816268544e-115, 0.0, 0.0, 0.0, 0.0)),
    (0, 'PRIVATE_INTERF_IIC', 'CENTER', (1.0, 1.0, 0.0, 0.22419908307159617, 0.0, 0.0, 0.0, 0.9795515389255083, 0.3543461551006801, 0.07926496063705436, 0.011198778053486092, 1.0681875693812484e-06, 1.3210867219683e-309, 0.0)),
    (0, 'PRIVATE_INTERF_IIC', 'EDGE', (1.0, 1.0, 7.467004742901326e-15, 3.574214059415997e-16, 0.0, 0.0, 0.0, 0.833997883553608, 2.42593316822311e-07, 1.4378778816266894e-115, 0.0, 0.0, 0.0, 0.0)),
    (1, 'COMMON', 'CENTER', (1.0, 1.0, 0.9999991758968403, 0.9999983517949032, 0.00018064750888016444, 0.0, 0.0, 0.9795515389255781, 0.35434615508076067, 0.07926496062994126, 0.01119877688746528, 1.0659540203594972e-06, 0.0, 0.0)),
    (1, 'COMMON', 'EDGE', (1.0, 1.0, 0.9999927993406782, 0.9999855987347903, 0.0, 0.0, 0.0, 0.8339978835541345, 2.4259331644037244e-07, 1.4378778144814053e-115, 0.0, 0.0, 0.0, 0.0)),
    (1, 'PRIVATE', 'CENTER', (1.0, 1.0, 0.9999985016315271, 0.9999945060020257, 1.5619987150994936e-05, 0.0, 0.0, 0.9795515389255166, 0.35434615510844447, 0.07926496065318518, 0.011198778092169204, 1.0672555094445225e-06, 7.652031299841113e-308, 0.0)),
    (1, 'PRIVATE', 'EDGE', (1.0, 1.0, 0.0, 0.9999794268294281, 0.0, 0.0, 0.0, 0.8339978835536861, 2.425933165301138e-07, 1.4378775368197748e-115, 0.0, 0.0, 0.0, 0.0)),
    (1, 'PRIVATE_INTERF', 'CENTER', (1.0, 1.0, 0.0, 0.9999990843298984, 0.00034451865504072423, 0.0, 0.0, 0.9795515389255149, 0.3543461551177735, 0.079264960664351, 0.01119877718407922, 1.0743014791660132e-06, 7.652031299823703e-308, 7.652031299824572e-308)),
    (1, 'PRIVATE_INTERF', 'EDGE', (1.0, 1.0, 0.0, 0.9999934539438572, 0.0, 0.0, 0.0, 0.8339978835539207, 2.425933183750889e-07, 1.437875317009621e-115, 0.0, 0.0, 0.0, 0.0)),
    (1, 'COMMON_IIC', 'CENTER', (1.0, 1.0, 0.9999992833884875, 0.9999976454227861, 0.00010767471599921935, 0.0, 0.0, 0.9795515389255014, 0.35434615507778267, 0.07926496065220391, 0.011198777725410395, 1.065954020359894e-06, 7.13307e-318, 0.0)),
    (1, 'COMMON_IIC', 'EDGE', (1.0, 1.0, 0.9999946661731473, 0.9999519966139697, 0.0, 0.0, 0.0, 0.8339978835536178, 2.4259331679137813e-07, 1.4378781533614929e-115, 0.0, 0.0, 0.0, 0.0)),
    (1, 'PRIVATE_IIC', 'CENTER', (1.0, 1.0, 0.9999988227101463, 0.9976503990660545, 0.3333901785044218, 0.0, 0.9795515389255083, 0.35434615510068007, 0.07926496063705436, 0.011198778053486414, 1.0681875708519172e-06, 1.321047944724325e-309, 0.0)),
    (1, 'PRIVATE_IIC', 'EDGE', (1.0, 1.0, 0.9999759980100811, 0.9531631938803062, 5.734280841245855e-17, 0.0, 0.8339978835536068, 2.4259331682231056e-07, 1.4378778816268544e-115, 0.0, 0.0, 0.0, 0.0)),
    (1, 'PRIVATE_INTERF_IIC', 'CENTER', (1.0, 1.0, 0.0, 0.9999989011960579, 0.0002880340707364914, 0.0, 0.0, 0.9795515389255128, 0.3543461551765116, 0.0792649605854398, 0.011198778976092552, 1.0672555094420438e-06, 0.0, 0.0)),
    (1, 'PRIVATE_INTERF_IIC', 'EDGE', (1.0, 1.0, 0.0, 0.9999903991327767, 0.0, 0.0, 0.0, 0.8339978835537457, 2.425933170401443e-07, 1.4378776432863911e-115, 0.0, 0.0, 0.0, 0.0)),
)


def _coverage_levels(spec, params):
    theta = spec.theta
    if math.isfinite(theta):
        ts = [-1.0, 0.0, params.zeta, theta / 2, theta * (1 - 1e-12), theta, 2 * theta]
    else:
        ts = [-1.0, 0.0, params.zeta, 1e3, 1e6, theta]
    # levels at fixed scales: both gamma regimes, and either side of the
    # exp underflow point at s = 745
    return ts + [level_of_s(spec, s) for s in (1e-8, 1e-6, 2e-5, 1e-3, 5.0, 700.0, 800.0)]


@pytest.mark.parametrize(
    "case", COVERAGE_VALUES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}"
)
def test_coverage_is_frozen_bit_for_bit(case):
    point, kind, cls, want = case
    params, split = COVERAGE_POINTS[point]
    spec = dist_spec(SinrKind[kind], ReceiverClass[cls], stream_powers(params.P, split), params)
    got = tuple(coverage(spec, t, params) for t in _coverage_levels(spec, params))
    assert got == want


# -- served receivers and the quadrature behind them -------------------------

GRID = tuple(0.02 + 0.96 * i / 11 for i in range(12))


def test_served_receivers_get_a_positive_rate():
    # q > 0 means the receiver is served, so its conditional rate is a mean
    # of log2(1 + t) over t > 0; deep-outage edge points once read R = 0
    subs = [parse_subcase_token(m, tok) for m in Mode for tok in MODE_SUBCASES[m]]
    assert len(subs) == 20
    bad = []
    for beta in GRID:
        for rho in GRID:
            split = PowerSplit(beta=beta, rho=rho)
            for sub in subs:
                rep = evaluate_subcase(sub, PARAMS, split)
                if rep.q_center > 0.0 and not rep.r_center > 0.0:
                    bad.append((beta, rho, sub, "center", rep.q_center))
                if rep.q_edge > 0.0 and not rep.r_edge > 0.0:
                    bad.append((beta, rho, sub, "edge", rep.q_edge))
    assert bad == []


def test_evaluate_subcase_runs_each_receiver_term_once(monkeypatch, cold_rate_caches):
    # both receivers of all-cc xor/xor sit in B3 at the stock split, where
    # the dispatch uses all three terms; the components reuse them
    names = ("common_stream_rate", "private_rate_after_common", "private_rate_with_interference")
    calls = Counter()
    for name in names:
        def counted(point, cls, *args, _name=name, _fn=getattr(rates, name)):
            calls[_name, cls] += 1
            return _fn(point, cls, *args)

        monkeypatch.setattr(rates, name, counted)
    sub = parse_subcase_token(Mode.ALL_CC, "xor/xor")
    rep = evaluate_subcase(sub, PARAMS, PowerSplit(beta=0.5, rho=0.5))
    assert (rep.branch_center, rep.branch_edge) == ("B3", "B3")
    assert calls == {(name, cls): 1 for name in names for cls in ReceiverClass}


def test_components_are_the_functionals_bit_for_bit():
    # a term the receiver's branch does not use is reported as zero, which
    # must be exactly what its functional gives at that point
    subs = [parse_subcase_token(m, tok) for m in Mode for tok in MODE_SUBCASES[m]]
    branches = set()
    for beta, rho in ((0.05, 0.5), (0.3, 0.2), (0.5, 0.5), (0.7, 0.8), (0.9, 0.3)):
        split = PowerSplit(beta=beta, rho=rho)
        for sub in subs:
            rep = evaluate_subcase(sub, PARAMS, split)
            parts = rep.components
            branches |= {rep.branch_center, rep.branch_edge}
            for cls, w in zip(ReceiverClass, rates.omegas(PARAMS, sub)):
                args, iic = (rates._point(PARAMS, split), cls, w), sub.iic_at is cls
                want = (
                    rates.common_stream_rate(*args, sub.iic_at),
                    args[0].at(rates.private_rate_after_common, *args[1:], iic),
                    args[0].at(rates.private_rate_with_interference, *args[1:], iic),
                )
                got = tuple(getattr(parts, f"{k}_{cls.value}") for k in ("rs0", "rp", "rpi"))
                assert got == want, (beta, rho, sub.token, cls)
    assert branches == {"B1", "B2", "B3", "B4", "Z"}


def _direct_difference_tail(s, a, gamma_a, norm, out_alpha, in_alpha):
    """The array tail, its incomplete gammas subtracted directly.

    P(a, x_out) and P(a, x_in) both round to about 1 once x_in = s r_e^alpha
    passes a few units, so the annulus's difference keeps only rounding
    noise; the disk's x_in is 0, where the difference is P(a, x_out).
    """
    p = scipy.special.gammainc(a, s * out_alpha) - scipy.special.gammainc(a, s * in_alpha)
    return np.clip(2.0 * np.exp(-s) * gamma_a * p / (norm * s**a), 0.0, 1.0)


def test_noisy_density_fails_the_scaled_error_floor(monkeypatch, cold_rate_caches):
    # the stock edge class is conditioned on q_e = 2.9e-13; an error floor
    # fixed at 1e-15 let QUADPACK's integral of the noise through, one
    # scaled by the conditioning probability refuses it. The noise enters
    # through the edge tail of the min-rate's tail product.
    monkeypatch.setattr(rates, "scale_tail_array", _direct_difference_tail)
    sub = parse_subcase_token(Mode.ALL_MPC, "efr/efr")
    split = PowerSplit(beta=0.5, rho=0.5)
    edge = dist_spec(SinrKind.COMMON, ReceiverClass.EDGE, stream_powers(PARAMS.P, split), PARAMS)
    assert coverage(edge, PARAMS.zeta, PARAMS) == pytest.approx(2.9e-13, rel=0.05)
    with pytest.raises(QuadratureError, match="log-scaled quadrature failed"):
        evaluate_subcase(sub, PARAMS, split)


def test_no_figure_preset_integral_comes_near_the_tolerance(monkeypatch, cold_rate_caches):
    # every rate integral of every preset point keeps its error estimate
    # under a hundredth of what the check allows, so a preset cannot fail
    # on a point the rule resolves only barely
    ratios = []
    check = rates._check

    def recorded(value, abserr, message, scale=1.0):
        allowed = max(quadrature.DEFAULT_RTOL * abs(value), quadrature._ABS_TOL * scale)
        ratios.append((abserr / allowed, message))
        return check(value, abserr, message, scale)

    monkeypatch.setattr(rates, "_check", recorded)
    for entries in figure_presets().values():
        for _name, spec in entries:
            subs = [parse_subcase_token(spec.mode, tok) for tok in spec.subcases]
            for value in spec.grid():
                params, split = spec.at(value)
                for sub in subs:
                    evaluate_subcase(sub, params, split)
    assert {message for _, message in ratios} == {
        "log-scaled quadrature failed", "position-averaged E1 rule failed"
    }
    assert max(ratios)[0] <= 1e-2


@pytest.mark.parametrize("power", [1e11, 1e12, 1e16, 1e30, 1e50, 1e100])
def test_high_power_roster_matches_the_limit(power):
    # past P ~ 1e10 every finite served rate sits within 1e-6 of its
    # noise-free limit; a cancelling receiver's limit is infinite, and its
    # finite-P rate must still be a number
    params = SystemParams(P=power)
    subs = [parse_subcase_token(m, tok) for m in Mode for tok in MODE_SUBCASES[m]]
    bad = []
    for beta in (0.3, 0.7):
        split = PowerSplit(beta=beta, rho=0.5)
        for sub in subs:
            rep = evaluate_subcase(sub, params, split)
            limit = asymptotic_report(slot(sub, params, split))
            for field in ("r_center", "r_edge", "r_sum"):
                got, want = getattr(rep, field), getattr(limit, field)
                if not math.isfinite(got) or (
                    math.isfinite(want) and got != pytest.approx(want, rel=1e-6, abs=0.0)
                ):
                    bad.append((beta, sub.token, field, got, want))
    assert bad == []
