"""The served-probability reference against a plain draw of positions and fades.

    python3 -m pytest bench/test_reference.py

The draw uses nothing from reference.py but the parameters: receivers are
placed uniformly over the disk or the annulus, fades are Exp(1), and the
served event is read off the SINR definitions directly.
"""

import math

import numpy as np
import pytest

import reference

DRAWS = 400_000


def simulate(center, iic, p, omega, rng):
    if center:
        d = p["r_c"] * np.sqrt(rng.random(DRAWS))
    else:
        d = np.sqrt(p["r_e"] ** 2 + rng.random(DRAWS) * (p["r_0"] ** 2 - p["r_e"] ** 2))
    g = rng.standard_exponential(DRAWS) / (1.0 + d ** p["alpha"])
    p0 = p["beta"] * p["P"]
    pc = p["rho"] * (1.0 - p["beta"]) * p["P"]
    pe = (1.0 - p["rho"]) * (1.0 - p["beta"]) * p["P"]
    own, other = (pc, pe) if center else (pe, pc)
    leak = 0.0 if iic else other
    common = p0 * g / ((own + leak) * g + p["sigma2"])
    private = own * g / ((p0 + leak) * g + p["sigma2"])
    xi_t = (1.0 + p["xi"]) ** (1.0 / omega) - 1.0
    return np.mean((common > p["zeta"]) | (private > xi_t))


FIG9 = dict(reference.STOCK, N=60, K=2, zeta=1.0, xi=2.0, rho=0.5)
CASES = [
    # (params, center, iic, technique)
    (dict(reference.STOCK, P=10.0, beta=0.6, rho=0.5), True, False, "xor"),
    (dict(reference.STOCK, P=10.0, beta=0.6, rho=0.5), False, False, "efr"),
    (dict(reference.STOCK, P=10.0, beta=0.2, rho=0.7), True, False, "pfr"),
    (dict(reference.STOCK, P=10.0, beta=0.45, rho=0.3), False, True, "xor"),
    (dict(FIG9, P=31.6, beta=0.6), True, True, "efr"),
    (dict(FIG9, P=1e5, beta=0.3), False, False, "pfr"),
]


@pytest.mark.parametrize("p, center, iic, tech", CASES)
def test_reference_matches_a_plain_draw(p, center, iic, tech):
    omega = reference.prelog(tech, p["K"], p["M"], p["N"])
    c = reference.served_scale(
        center, iic, p["P"], p["beta"], p["rho"], omega, p["zeta"], p["xi"], p["sigma2"]
    )
    r_in, r_out = (0.0, p["r_c"]) if center else (p["r_e"], p["r_0"])
    want = reference.served_probability(c, r_in, r_out, p["alpha"])
    got = simulate(center, iic, p, omega, np.random.default_rng(7))
    sd = math.sqrt(want * (1.0 - want) / DRAWS)
    assert abs(got - want) <= 5.0 * sd + 5.0 / DRAWS


@pytest.mark.parametrize("c", [1e-9, 1e-3, 0.5, 40.0, 1e6])
def test_disk_integral_has_the_closed_form(c):
    # alpha = 4 over the disk, scale s = c / r^4:
    # (1/r^2) int_0^{r^2} exp(-s (1 + v^2)) dv = e^-s sqrt(pi/s) erf(sqrt(c)) / (2 r^2)
    r = 50.0
    s = c / r**4
    want = math.exp(-s) * math.sqrt(math.pi / s) * math.erf(math.sqrt(c)) / (2.0 * r**2)
    got = reference.served_probability(s, 0.0, r, 4.0)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_no_decode_means_never_served():
    assert reference.served_probability(math.inf, 0.0, 50.0, 4.0) == 0.0
    # beta = 0 leaves no common power and zeta > 0; a zero private share too
    assert reference.served_scale(True, False, 10.0, 0.0, 0.0, 1.0, 0.5, 1.0, 1e-5) == math.inf
