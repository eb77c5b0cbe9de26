"""One analytic table per working point: the same reports, each shared term made once.

evaluate_points builds the reports of every slot at a point from one table
of the terms they share (laws, coverages, gap thresholds, common-rate
lookups, integral functionals and per-receiver dispatches), kept for the
process. Each report must be exactly the one evaluate_subcase gives that
subcase alone, and the table must make each shared term once, however many
subcases and calls ask for it.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from rscache import rates, run_sweep, run_sweeps
from rscache.caching import Mode, parse_subcase_token
from rscache.model import PowerSplit, ReceiverClass, SystemParams
from rscache.rates import evaluate_points, evaluate_subcase, omegas, slot
from rscache.sweep import MODE_SUBCASES, SweepSpec, figure_presets

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
        reports = evaluate_points([slot(sub, params, split) for sub in subs])
        assert [repr(r) for r in reports] == want, name
        branches |= {b for r in reports for b in (r.branch_center, r.branch_edge)}
    if point == "with-Z":
        assert "Z" in branches


def _requests(monkeypatch) -> list:
    """Every integral request that the union asks for at two points, from cold tables."""
    made = []
    integrate = rates._integrate

    def recorded(requests):
        made.extend(requests)
        return integrate(requests)

    monkeypatch.setattr(rates, "_integrate", recorded)
    evaluate_points([slot(sub, *POINTS[name]) for name in ("P1e3", "with-Z") for sub in UNION])
    monkeypatch.undo()
    return made


def _bits(raw) -> list[str]:
    """The exact values of what _integrate gives one request, error estimates included."""
    return [float(x).hex() for part in raw for x in np.atleast_1d(part)]


def test_what_shares_a_batch_changes_no_integral_or_error_estimate(monkeypatch, cold_rate_caches):
    # an integral's value and its rule's error estimates, and so the verdict
    # of the check on them, must not depend on which other integrals share
    # its rule evaluation, nor on where the blocks cut the pieces
    requests = _requests(monkeypatch)
    assert {type(r) for r in requests} == {rates._LogRate, rates._MinRate}
    alone = [rates._integrate([r])[0] for r in requests]
    union = rates._integrate(requests)
    backward = rates._integrate(requests[::-1])[::-1]
    uneven, start = [], 0
    for size in (1, 2, 5, 17, 3, len(requests)):
        uneven += rates._integrate(requests[start:start + size])
        start += size
    blocks = {}
    for size in (1, 7):
        monkeypatch.setattr(rates, "_BLOCK", size)
        blocks[f"blocks of {size}"] = rates._integrate(requests)
    want = [_bits(raw) for raw in alone]
    values = [repr(r.finish(raw)) for r, raw in zip(requests, alone)]
    ways = {"union": union, "reversed": backward, "uneven": uneven, **blocks}
    for name, way in ways.items():
        assert len(way) == len(requests)
        assert [_bits(raw) for raw in way] == want, name
        assert [repr(r.finish(raw)) for r, raw in zip(requests, way)] == values, name


FUNCTIONALS = (
    "common_rate_single",
    "common_rate_both",
    "private_rate_after_common",
    "private_rate_with_interference",
)


def _counted(monkeypatch, names) -> list:
    """Wrap rates' names so that every call is recorded as (name, args); returns the record."""
    made = []
    for name in names:
        def counted(*args, _name=name, _fn=getattr(rates, name)):
            made.append((_name, args))
            return _fn(*args)

        monkeypatch.setattr(rates, name, counted)
    return made


def test_the_union_at_a_point_makes_each_dispatch_and_coverage_once(monkeypatch, cold_rate_caches):
    # from a cold table: the integral functionals take their conditioning
    # coverages from the table, so no (law, threshold) coverage is formed twice
    params, split = SystemParams(), PowerSplit(beta=0.4, rho=0.3)
    made = _counted(monkeypatch, ("achieved_rate", "coverage"))
    evaluate_points([slot(sub, params, split) for sub in UNION])
    dispatched = [args[1:4] for name, args in made if name == "achieved_rate"]
    covered = [args[:2] for name, args in made if name == "coverage"]
    receivers = {
        (cls, w, sub.iic_at) for sub in UNION for cls, w in zip(ReceiverClass, omegas(params, sub))
    }
    assert len(receivers) == len(dispatched) == 12 and set(dispatched) == receivers
    assert covered and len(covered) == len(set(covered))


def test_only_evaluate_points_asks_for_a_table_once_per_slot(cold_rate_caches, monkeypatch):
    # the functionals are handed the table they are memoised in, so from cold
    # caches no one but evaluate_points looks a table up, once per slot
    slots = [slot(sub, SystemParams(), PowerSplit(beta=0.4, rho=0.3)) for sub in UNION]
    callers = []
    table = rates._point

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return table(*args)

    monkeypatch.setattr(rates, "_point", counted)
    evaluate_points(slots)
    assert len(slots) == 20
    assert callers == ["evaluate_points"] * len(slots)


def test_per_mode_sweeps_of_a_line_share_each_coverage_and_integral(
    monkeypatch, cold_rate_caches, tmp_path
):
    # the four per-mode run_sweep calls of one line of beta points, one after
    # another: the tables outlive each call, so the four calls together make
    # each coverage and each functional key once, and write the bytes that
    # run_sweeps writes for the same specs
    specs = [
        SweepSpec(
            variable="beta", start=0.2, stop=0.8, points=4, mode=mode,
            split=PowerSplit(beta=0.5, rho=0.35),
        )
        for mode in Mode
    ]
    made = _counted(monkeypatch, ("coverage", *FUNCTIONALS))
    per_mode = [tmp_path / f"{mode.value}.csv" for mode in Mode]
    counts = [run_sweep(spec, str(path)) for spec, path in zip(specs, per_mode)]
    covered = [args[:2] for name, args in made if name == "coverage"]
    integrals = [call for call in made if call[0] != "coverage"]
    assert covered and len(covered) == len(set(covered))
    assert {name for name, _ in integrals} == set(FUNCTIONALS)
    assert len(integrals) == len(set(integrals))
    monkeypatch.undo()
    cold_rate_caches()
    together = [(spec, str(tmp_path / f"together{i}.csv")) for i, spec in enumerate(specs)]
    assert run_sweeps(together) == counts
    for (_, path), alone in zip(together, per_mode):
        assert Path(path).read_bytes() == alone.read_bytes(), alone.name


def test_fig3_builds_one_table_per_point_and_writes_each_file_as_alone(
    monkeypatch, tmp_path, cold_rate_caches
):
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
