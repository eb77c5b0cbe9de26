"""Grid sweeps over a working-point variable, CSV emission, and comparison.

A sweep evaluates every requested subcase at every grid point by the
requested methods (analytic, monte-carlo and the high-power limit,
asymptotic) and writes one CSV row per (point, subcase, method).
The CSV is the stable interface: 9-significant-digit values, LF line
endings, and a fixed header, so a pinned (seed, spec) reproduces the file
byte for byte at any worker count.

run_sweeps writes several; run_sweep is its one-spec case. Specs that
share a grid, a SimConfig and the draw's inputs share each point's draw
and analytic tables: the analytic and asymptotic methods run once over the
slots (rates.slot) the specs ask for at every point, the simulator once
per point, and every row, of every method, looks up its report by its
subcase's slot. Each file still gets the bytes its spec writes alone.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .caching import Mode, Subcase, parse_subcase_token
from .model import PowerSplit, SystemParams
from .montecarlo import SimConfig, draw_inputs, estimate_points
from .rates import RateReport, Slot, asymptotic_report, evaluate_points, slot
# estimate_rates and evaluate_subcase are this module's names for the one-subcase
# simulator and evaluation, kept for code that hooks them here (bench/tracer.py)
from .montecarlo import estimate_rates  # noqa: F401
from .rates import evaluate_subcase  # noqa: F401

# (CSV column, RateReport field) for every numeric column a report fills;
# the header, the row writer and the row reader all follow this table
_REPORT_COLUMNS = (
    ("R_c", "r_center"),
    ("R_e", "r_edge"),
    ("R_sum", "r_sum"),
    ("q_c", "q_center"),
    ("q_e", "q_edge"),
    ("stderr_Rc", "stderr_center"),
    ("stderr_Re", "stderr_edge"),
    ("stderr_Rsum", "stderr_sum"),
)

CSV_HEADER = ",".join(
    ("var", "value", "mode", "subcase", "omega_c", "omega_e", "iic", "method",
     *(column for column, _ in _REPORT_COLUMNS))
)

SWEEP_VARIABLES = ("beta", "rho", "u", "P")

# Per-mode subcase rosters: the union of the subcase table rows and the
# achievable-rate lists of the mode walkthrough (each omits entries the
# other states).
MODE_SUBCASES: dict[Mode, tuple[str, ...]] = {
    Mode.ALL_MPC: ("efr/efr",),
    Mode.CC_MPC: (
        "xor/efr+iic-e",
        "pfr/efr+iic-e",
        "xor/efr",
        "pfr/efr",
        "efr/efr",
    ),
    Mode.MPC_CC: (
        "efr/xor+iic-c",
        "efr/pfr+iic-c",
        "efr/xor",
        "efr/pfr",
        "efr/efr",
    ),
    Mode.ALL_CC: (
        "xor/xor",
        "xor/pfr",
        "xor/efr",
        "pfr/xor",
        "pfr/pfr",
        "pfr/efr",
        "efr/xor",
        "efr/pfr",
        "efr/efr",
    ),
}

METHOD_ANALYTIC = "analytic"
METHOD_MC = "monte-carlo"
METHOD_ASYMPTOTIC = "asymptotic"


def _fmt(x: float) -> str:
    return "%.9g" % x


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: the swept variable, its grid, the fixed working point and the methods.

    methods is any nonempty choice of METHOD_ANALYTIC, METHOD_MC and
    METHOD_ASYMPTOTIC; each subcase's rows are written in that order,
    whatever order methods lists them in.
    """

    variable: str
    start: float
    stop: float
    points: int
    mode: Mode
    params: SystemParams = SystemParams()
    split: PowerSplit = PowerSplit()
    subcases: tuple[str, ...] = ()
    methods: tuple[str, ...] = (METHOD_ANALYTIC,)
    sim: SimConfig = SimConfig()
    log_scale: bool = False

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if self.points < 2:
            raise ValueError("a sweep needs at least 2 grid points")
        if self.variable == "P":
            if self.start <= 0.0:
                raise ValueError("transmit power must be positive")
        else:
            if not (0.0 <= self.start and self.stop <= 1.0):
                raise ValueError(f"{self.variable} grid must stay within [0, 1]")
        if self.start >= self.stop:
            raise ValueError("grid start must lie below its stop")
        if self.log_scale and self.variable != "P":
            raise ValueError("log grids only make sense for the power sweep")
        known = (METHOD_ANALYTIC, METHOD_MC, METHOD_ASYMPTOTIC)
        bad = [m for m in self.methods if m not in known]
        if bad or not self.methods:
            raise ValueError(f"unknown methods {bad!r}")
        if not self.subcases:
            object.__setattr__(self, "subcases", MODE_SUBCASES[self.mode])

    def grid(self) -> list[float]:
        if self.log_scale:
            pts = np.geomspace(self.start, self.stop, self.points)
        else:
            pts = np.linspace(self.start, self.stop, self.points)
        return [float(v) for v in pts]

    def at(self, value: float) -> tuple[SystemParams, PowerSplit]:
        """The working point at one grid value: the swept field of the split or the params."""
        if hasattr(self.split, self.variable):
            return self.params, dataclasses.replace(self.split, **{self.variable: value})
        return dataclasses.replace(self.params, **{self.variable: value}), self.split


def _template(spec: SweepSpec, subcase: Subcase, omegas: tuple[float, float]) -> str:
    """The % template of a (spec, subcase)'s rows: its fixed cells written out.

    What is left to fill is the grid value, the method and the report's
    columns (_REPORT_COLUMNS), each number as _fmt writes it.
    """
    iic = subcase.iic_at.value if subcase.iic_at else "none"
    fixed = ",".join((spec.mode.value, subcase.token.partition("+")[0], *map(_fmt, omegas), iic))
    return f"{spec.variable},%.9g,{fixed.replace('%', '%%')},%s" + ",%.9g" * len(_REPORT_COLUMNS)


_REPORT_VALUES = operator.attrgetter(*(name for _, name in _REPORT_COLUMNS))


def _row(template: str, value: float, report: RateReport) -> str:
    return template % (value, report.method, *_REPORT_VALUES(report))


def _rows(specs: Sequence[SweepSpec]) -> list[list[str]]:
    """Each spec's data rows, in the pinned (point, subcase, method) order.

    The analytic and asymptotic methods run once over the slots that the
    specs ask for at every point; the simulator runs once per point.
    """
    subcases = [[parse_subcase_token(spec.mode, tok) for tok in spec.subcases] for spec in specs]
    # each slot past its working point: no swept variable changes K, M or N,
    # so neither do the pre-logs
    rests = [
        [slot(sub, spec.params, spec.split)[2:] for sub in subs]
        for spec, subs in zip(specs, subcases)
    ]
    grid = specs[0].grid()
    # keys[point][spec]: the slot of each of the spec's subcases at the point
    keys = [
        [[(*spec.at(value), *rest) for rest in row] for spec, row in zip(specs, rests)]
        for value in grid
    ]
    # in the order a subcase's rows are written, whatever a spec's order
    methods = (METHOD_ANALYTIC, METHOD_MC, METHOD_ASYMPTOTIC)
    asked = {
        method: [
            [key for spec, row in zip(specs, point) if method in spec.methods for key in row]
            for point in keys
        ]
        for method in methods
    }
    reports: dict[str, dict[Slot, RateReport]] = {}
    for method, run in (
        (METHOD_ANALYTIC, evaluate_points),
        (METHOD_ASYMPTOTIC, partial(map, asymptotic_report)),
    ):
        every = [key for point in asked[method] for key in point]
        if every:
            reports[method] = dict(zip(every, run(every)))
    reports[METHOD_MC] = {}
    for point_index, point in enumerate(asked[METHOD_MC]):
        if point:
            # one draw per point, shared by all of its simulated slots; a row
            # holds no component, so the simulator estimates none
            sim = dataclasses.replace(specs[0].sim, spawn=(point_index,))
            reports[METHOD_MC].update(zip(point, estimate_points(point, sim, components=False)))
    rows: list[list[str]] = [[] for _ in specs]
    for i, spec in enumerate(specs):
        templates = [_template(spec, sub, rest[1:]) for sub, rest in zip(subcases[i], rests[i])]
        spec_methods = [method for method in methods if method in spec.methods]
        for value, point in zip(grid, keys):
            for template, key in zip(templates, point[i]):
                for method in spec_methods:
                    rows[i].append(_row(template, value, reports[method][key]))
    return rows


def run_sweeps(pairs: Sequence[tuple[SweepSpec, str]]) -> list[int]:
    """Write each (spec, path) sweep CSV; returns each file's number of data rows.

    Specs that agree on the swept variable, the grid, the SimConfig and
    draw_inputs run together, sampling each point once for all of them.
    """
    groups: dict[tuple, list[int]] = {}
    for index, (spec, _) in enumerate(pairs):
        key = (spec.variable, spec.start, spec.stop, spec.points, spec.log_scale, spec.sim)
        groups.setdefault(key + draw_inputs(spec.params), []).append(index)
    counts = [0] * len(pairs)
    for members in groups.values():
        for index, rows in zip(members, _rows([pairs[i][0] for i in members])):
            with open(pairs[index][1], "w", encoding="ascii", newline="") as fh:
                fh.write(CSV_HEADER + "\n")
                for row in rows:
                    fh.write(row + "\n")
            counts[index] = len(rows)
    return counts


def run_sweep(spec: SweepSpec, out_path: str) -> int:
    """Write the sweep CSV; returns the number of data rows."""
    return run_sweeps([(spec, out_path)])[0]


@dataclass(frozen=True)
class QuantityCheck:
    """Agreement verdict for one rate quantity at one working point."""

    key: str
    quantity: str
    ok: bool
    detail: str
    z: float | None = None


@dataclass(frozen=True)
class CompareSummary:
    checks: tuple[QuantityCheck, ...]
    worst_by_subcase: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[QuantityCheck]:
        return [c for c in self.checks if not c.ok]


def _gate(
    key: str,
    quantity: str,
    analytic: float,
    mc: float,
    stderr: float,
    count: float,
    expected: float,
) -> QuantityCheck:
    """Agreement rule honest about event-counting statistics.

    With a healthy sample count the usual 3-sigma test applies. Below 25
    conditioned draws the conditional mean has no trustworthy stderr, so
    the check falls back to the event frequency itself: the observed count
    must sit within a 3-sigma Poisson band of the analytically expected
    one (a band widened by +3 to stay meaningful near zero).
    """
    if count >= 25.0 and stderr > 0.0:
        z = abs(analytic - mc) / stderr
        return QuantityCheck(
            key, quantity, z <= 3.0, f"z={z:.2f} (n={count:.0f})", z
        )
    if count >= 25.0:
        ok = abs(analytic - mc) <= 1e-9
        return QuantityCheck(key, quantity, ok, "degenerate spread")
    slack = 3.0 * math.sqrt(max(expected, count)) + 3.0
    ok = abs(count - expected) <= slack
    detail = f"event count {count:.0f} vs expected {expected:.2f}"
    return QuantityCheck(key, quantity, ok, detail)


def compare_reports(
    key: str, analytic: RateReport, mc: RateReport, samples: int
) -> list[QuantityCheck]:
    """Compare per-receiver and sum rates of an analytic/MC report pair."""
    n_c = mc.q_center * samples
    n_e = mc.q_edge * samples
    n_union = (mc.q_center + mc.q_edge - mc.q_center * mc.q_edge) * samples
    e_c = analytic.q_center * samples
    e_e = analytic.q_edge * samples
    e_union = (
        analytic.q_center + analytic.q_edge - analytic.q_center * analytic.q_edge
    ) * samples
    return [
        _gate(key, "R_c", analytic.r_center, mc.r_center, mc.stderr_center, n_c, e_c),
        _gate(key, "R_e", analytic.r_edge, mc.r_edge, mc.stderr_edge, n_e, e_e),
        _gate(key, "R_sum", analytic.r_sum, mc.r_sum, mc.stderr_sum, n_union, e_union),
    ]


def figure_presets() -> dict[str, tuple[tuple[str, SweepSpec], ...]]:
    """Pre-canned sweeps behind the ``figure`` subcommand, keyed fig3..fig9.

    Each entry maps to (file name, spec) pairs; multi-file figures split
    along whatever the figure varies besides its x-axis (mode, the share
    u and class size K, or the power split and decoding-gap parameter).
    """
    both = (METHOD_ANALYTIC, METHOD_MC)

    def beta_sweep(mode: Mode, **kw) -> SweepSpec:
        return SweepSpec(
            variable="beta", start=0.05, stop=0.95, points=19,
            mode=mode, methods=both, **kw,
        )

    per_mode = tuple(
        (f"{{}}_{mode.value}.csv", beta_sweep(mode)) for mode in Mode
    )
    presets: dict[str, tuple[tuple[str, SweepSpec], ...]] = {
        # the per-receiver rate curves read from the same data
        "fig3": tuple((name.format("fig3"), spec) for name, spec in per_mode),
        "fig4": tuple((name.format("fig4"), spec) for name, spec in per_mode),
        "fig5": (("fig5.csv", beta_sweep(Mode.CC_MPC)),),
        "fig6": (("fig6.csv", beta_sweep(Mode.MPC_CC)),),
        "fig7": (("fig7.csv", beta_sweep(Mode.ALL_CC)),),
    }

    base = SystemParams()
    rho_params = dataclasses.replace(base, N=60, zeta=0.5, xi=2.0)
    presets["fig8"] = tuple(
        (
            f"fig8_u{int(u * 10):02d}_K{k}.csv",
            SweepSpec(
                variable="rho", start=0.05, stop=0.95, points=19,
                mode=Mode.ALL_CC, subcases=("xor/xor",), methods=both,
                params=dataclasses.replace(rho_params, u=u, K=k),
                split=PowerSplit(beta=0.7, rho=0.5),
            ),
        )
        for u in (0.2, 0.5)
        for k in (2, 4)
    )

    def power_sweep(beta: float, xi: float, subcases: tuple[str, ...]) -> SweepSpec:
        return SweepSpec(
            variable="P", start=1.0, stop=1e8, points=17, log_scale=True,
            mode=Mode.MPC_CC, subcases=subcases, methods=(*both, METHOD_ASYMPTOTIC),
            params=dataclasses.replace(base, N=60, K=2, zeta=1.0, xi=xi),
            split=PowerSplit(beta=beta, rho=0.5),
        )

    iic = ("efr/xor+iic-c", "efr/pfr+iic-c")
    presets["fig9"] = (
        ("fig9_loads.csv", power_sweep(0.6, 2.0, ("efr/xor", "efr/pfr", "efr/efr"))),
        ("fig9_iic_beta06.csv", power_sweep(0.6, 2.0, iic)),
        ("fig9_iic_beta03.csv", power_sweep(0.3, 1.0, iic)),
    )
    return presets


def _report_from_row(row: dict[str, str]) -> RateReport:
    values = {name: float(row[column]) for column, name in _REPORT_COLUMNS}
    return RateReport(method=row["method"], **values)


def compare_csv(path: str, samples: int) -> CompareSummary:
    """Check every analytic/monte-carlo row pair of a sweep CSV.

    samples must be the simulated draw count the sweep ran with; it turns
    the frequency columns back into event counts for the rare-event gate.
    """
    if samples < 1:
        # no draws leave no event to count, and every count gate would pass
        raise ValueError(f"samples must be at least 1, got {samples}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER.split(","):
            raise ValueError(f"{path} does not carry the sweep CSV header")
        # keyed by point in first-seen order
        groups: dict[tuple[str, ...], dict[str, RateReport]] = {}
        for row in reader:
            if None in row.values():
                raise ValueError(f"{path}: short row near line {reader.line_num}")
            key = tuple(row[k] for k in ("var", "value", "mode", "subcase", "iic"))
            groups.setdefault(key, {})[row["method"]] = _report_from_row(row)

    checks: list[QuantityCheck] = []
    worst: dict[str, float] = {}
    for key, pair in groups.items():
        if METHOD_ANALYTIC not in pair or METHOD_MC not in pair:
            continue
        label = "{}={} {} iic={}".format(key[0], key[1], key[3], key[4])
        for check in compare_reports(
            label, pair[METHOD_ANALYTIC], pair[METHOD_MC], samples
        ):
            checks.append(check)
            if check.z is not None:
                tag = f"{key[3]}+{key[4]}"
                worst[tag] = max(worst.get(tag, 0.0), check.z)
    if not checks:
        raise ValueError(f"{path} holds no analytic/monte-carlo row pairs")
    return CompareSummary(checks=tuple(checks), worst_by_subcase=worst)
