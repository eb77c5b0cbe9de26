"""One analytic table per working point: the same reports, each shared term made once.

evaluate_point builds every subcase's report at a point from one table of
the terms they share (laws, coverages, gap thresholds, common-rate lookups
and per-receiver dispatches). Each report must be exactly the one
evaluate_subcase gives that subcase alone, and the table must make each
shared term once, however many subcases ask for it.
"""

import dataclasses
from pathlib import Path

import pytest

from rscache import rates, run_sweep, run_sweeps
from rscache.caching import Mode, parse_subcase_token
from rscache.model import PowerSplit, ReceiverClass, SystemParams
from rscache.rates import evaluate_point, evaluate_subcase, omegas
from rscache.sweep import MODE_SUBCASES, figure_presets

ROSTERS = {mode.value: [parse_subcase_token(mode, tok) for tok in MODE_SUBCASES[mode]] for mode in Mode}
UNION = [sub for subs in ROSTERS.values() for sub in subs]
INPUTS = {**ROSTERS, "union": UNION, "union-reversed": UNION[::-1]}

POINTS = {
    "P1e3": (SystemParams(P=1000.0), PowerSplit(beta=0.4, rho=0.3)),
    "P3.16e7": (SystemParams(P=3.16e7), PowerSplit(beta=0.4, rho=0.3)),
    "all-common": (SystemParams(u=1.0), PowerSplit(beta=1.0, rho=0.0)),
    "all-center-private": (SystemParams(u=0.0), PowerSplit(beta=0.0, rho=1.0)),
    # a receiver of some subcases falls in the dead zone Z here
    "with-Z": (SystemParams(), PowerSplit(beta=0.3, rho=0.2)),
}


@pytest.mark.filterwarnings("ignore:0/0 SINR bound")
@pytest.mark.parametrize("point", POINTS)
def test_the_table_gives_each_subcase_its_report_alone(point, cold_rate_caches):
    params, split = POINTS[point]
    alone = {}
    for sub in UNION:
        cold_rate_caches()
        alone[sub] = repr(evaluate_subcase(sub, params, split))
    branches = set()
    for name, subs in INPUTS.items():
        want = [alone[sub] for sub in subs]
        cold_rate_caches()
        reports = evaluate_point(params, split, subs)
        assert [repr(r) for r in reports] == want, name
        branches |= {b for r in reports for b in (r.branch_center, r.branch_edge)}
        # the pre-logs a sweep passes in give the same reports
        cold_rate_caches()
        prelogs = [omegas(params, sub) for sub in subs]
        assert [repr(r) for r in evaluate_point(params, split, subs, prelogs)] == want, name
    if point == "with-Z":
        assert "Z" in branches


def test_the_union_at_a_point_makes_each_dispatch_and_coverage_once(monkeypatch):
    # with the point's integrals already cached, every coverage call comes
    # from the table: on a miss an integral functional forms its own
    params, split = SystemParams(), PowerSplit(beta=0.4, rho=0.3)
    evaluate_point(params, split, UNION)
    dispatched, covered = [], []
    dispatch, coverage = rates.achieved_rate, rates.coverage

    def counted_dispatch(params, split, cls, omega, iic_at=None, *rest):
        dispatched.append((cls, omega, iic_at))
        return dispatch(params, split, cls, omega, iic_at, *rest)

    def counted_coverage(spec, t, params):
        covered.append((spec, t))
        return coverage(spec, t, params)

    monkeypatch.setattr(rates, "achieved_rate", counted_dispatch)
    monkeypatch.setattr(rates, "coverage", counted_coverage)
    evaluate_point(params, split, UNION)
    receivers = {
        (cls, w, sub.iic_at) for sub in UNION for cls, w in zip(ReceiverClass, omegas(params, sub))
    }
    assert len(receivers) == len(dispatched) == 12 and set(dispatched) == receivers
    assert covered and len(covered) == len(set(covered))


def test_fig3_builds_one_table_per_point_and_writes_each_file_as_alone(monkeypatch, tmp_path):
    specs = [dataclasses.replace(spec, methods=("analytic",)) for _, spec in figure_presets()["fig3"]]
    tables = []

    class CountedPoint(rates._Point):
        def __init__(self, params, split):
            tables.append((params, split))
            super().__init__(params, split)

    monkeypatch.setattr(rates, "_Point", CountedPoint)
    together = [(spec, str(tmp_path / f"together{i}.csv")) for i, spec in enumerate(specs)]
    counts = run_sweeps(together)
    # the four modes share the grid and the working point at each value
    assert len(tables) == len(set(tables)) == specs[0].points
    monkeypatch.undo()
    for i, (spec, path) in enumerate(together):
        alone = tmp_path / f"alone{i}.csv"
        assert run_sweep(spec, str(alone)) == counts[i]
        assert Path(path).read_bytes() == alone.read_bytes(), i
