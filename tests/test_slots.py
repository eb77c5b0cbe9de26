"""One slot, one report: both methods' point functions against their one-subcase forms.

A subcase's report at a working point is fixed by its slot (rates.slot):
the point, the receiver that cancels and the two pre-logs. evaluate_points
and estimate_points take any list of slots, with repeats, in any order and
over several working points, and must give each slot, bit for bit, the
report evaluate_subcase or estimate_rates gives a subcase with that slot
alone. A sweep looks its rows up by slot, so the order of a spec's methods
must not change its file.
"""

import dataclasses

import numpy as np
import pytest

from rscache import run_sweep
from rscache.caching import Mode, parse_subcase_token
from rscache.model import PowerSplit, SystemParams
from rscache.montecarlo import SimConfig, estimate_points, estimate_rates
from rscache.rates import RateComponents, evaluate_points, evaluate_subcase, slot
from rscache.sweep import MODE_SUBCASES, SweepSpec

UNION = [parse_subcase_token(mode, tok) for mode in Mode for tok in MODE_SUBCASES[mode]]
# two working points that share one draw (r_c, r_e, r_0 and alpha)
POINTS = [
    (SystemParams(), PowerSplit(beta=0.4, rho=0.3)),
    (SystemParams(P=1000.0), PowerSplit(beta=0.6, rho=0.5)),
]
# every roster at both points: efr/efr comes from all four modes and
# xor/efr, pfr/efr, efr/xor and efr/pfr from two, so slots repeat
CASES = [(sub, *point) for point in POINTS for sub in UNION]
INPUTS = {
    "as-listed": CASES,
    "permuted": [CASES[i] for i in np.random.default_rng(0).permutation(len(CASES))],
}


def test_the_inputs_repeat_slots_over_two_points():
    slots = [slot(*case) for case in CASES]
    assert len(set(slots)) < len(slots)
    assert len({key[:2] for key in slots}) == 2


@pytest.mark.parametrize("order", INPUTS)
def test_evaluate_points_gives_each_slot_its_report_alone(order):
    cases = INPUTS[order]
    reports = evaluate_points([slot(*case) for case in cases])
    assert [repr(r) for r in reports] == [repr(evaluate_subcase(*case)) for case in cases]


@pytest.mark.parametrize("components", [True, False], ids=["components", "served-only"])
@pytest.mark.parametrize("order", INPUTS)
def test_estimate_points_gives_each_slot_its_report_alone(order, components):
    sim = SimConfig(samples=10_000, seed=34, chunk=4_000)
    cases = INPUTS[order]
    reports = estimate_points([slot(*case) for case in cases], sim, components=components)
    assert len(reports) == len(cases)
    for case, got in zip(cases, reports):
        want = estimate_rates(*case, sim)
        if not components:
            want = dataclasses.replace(
                want, components=RateComponents(), component_stderr=RateComponents()
            )
        assert repr(got) == repr(want), case


def test_the_order_of_a_specs_methods_does_not_change_its_file(tmp_path):
    spec = SweepSpec(
        variable="P", start=10.0, stop=1e4, points=3, log_scale=True, mode=Mode.CC_MPC,
        methods=("analytic", "monte-carlo", "asymptotic"), sim=SimConfig(samples=5_000, seed=35),
    )
    files = []
    for methods in (spec.methods, spec.methods[::-1]):
        path = tmp_path / f"{'-'.join(methods)}.csv"
        run_sweep(dataclasses.replace(spec, methods=methods), str(path))
        files.append(path.read_bytes())
    assert files[0] == files[1]
    # each subcase's rows: analytic, then monte-carlo, then asymptotic
    methods = [line.split(",")[7] for line in files[0].decode().splitlines()[1:4]]
    assert methods == ["analytic", "monte-carlo", "asymptotic"]
