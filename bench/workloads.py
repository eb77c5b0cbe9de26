"""Workload inputs, built from the seed, and the timed calls into the package.

Every workload is a list of units. A unit is a fixed piece of work that is
timed on its own; every round of a run repeats the same units in a fresh
interpreter, and the reported time sums each unit's median over the rounds.

analytic-roster, mc-roster
    One unit per line of working points: a beta sweep at one rho, run for
    every mode with that mode's full subcase roster (the modes share the
    points, as the fig3 preset does).
fig9-compare
    The stock fig9 preset through the command line, then compare_csv on
    each of its three files. The input is the preset itself, so it does not
    depend on the seed.

This module imports nothing from the package at load time, so that the
worker can import ``rscache`` first and time exactly what a user pays.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

WORKLOADS = ("analytic-roster", "mc-roster", "fig9-compare")

MODES = ("all-mpc", "cc-mpc", "mpc-cc", "all-cc")

#: the simulated draws per estimate of the figure presets and of compare
SAMPLES = 100_000

FIG9_FILES = ("fig9_loads.csv", "fig9_iic_beta06.csv", "fig9_iic_beta03.csv")

# analytic-roster: a lattice of LINES rho values times POINTS beta values
# across (0.05, 0.95), every line and every grid end moved by a seeded
# offset of at most JITTER. The cost of one cold point runs from 10 ms to
# 900 ms and jumps with the quadrature's subdivisions, so points drawn
# uniformly over the square made the seed, not the program, set the run
# time (seed-to-seed spread of 15% or more); the jittered lattice keeps the
# regime mix of every seed the same while no two seeds share a point.
ANALYTIC_LINES = 3
ANALYTIC_POINTS = 10
JITTER = 0.005

# mc-roster: simulation cost does not depend on the working point, so its
# points are drawn over the whole square, one rho stratum per line
MC_LINES = 2
MC_POINTS = 3


@dataclass(frozen=True)
class Line:
    """One beta sweep at fixed rho: the grid and the rho it runs at."""

    name: str
    rho: float
    beta_start: float
    beta_stop: float
    points: int

    def betas(self) -> list[float]:
        import numpy as np

        return [float(b) for b in np.linspace(self.beta_start, self.beta_stop, self.points)]


def lines(workload: str, seed: int) -> list[Line]:
    """The working points of a roster workload, a pure function of the seed."""
    import numpy as np

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out = []
    if workload == "analytic-roster":
        for j in range(ANALYTIC_LINES):
            rho = 0.05 + 0.9 * (j + 0.5) / ANALYTIC_LINES
            rho += JITTER * rng.uniform(-1.0, 1.0)
            start = 0.05 + JITTER * rng.uniform(-1.0, 1.0)
            stop = 0.95 + JITTER * rng.uniform(-1.0, 1.0)
            out.append(Line(f"line{j}", rho, start, stop, ANALYTIC_POINTS))
    elif workload == "mc-roster":
        for j in range(MC_LINES):
            rho = 0.05 + 0.9 * (j + rng.random()) / MC_LINES
            start = 0.05 + 0.3 * rng.random()
            out.append(Line(f"line{j}", rho, start, start + 0.6, MC_POINTS))
    else:
        raise ValueError(f"{workload} has no working-point lines")
    return out


def method_of(workload: str) -> str:
    return "analytic" if workload == "analytic-roster" else "monte-carlo"


def sweep_spec(line: Line, mode: str, method: str, seed: int):
    """The SweepSpec of one line and mode; MC draws are seeded by the run seed."""
    import rscache

    return rscache.SweepSpec(
        variable="beta",
        start=line.beta_start,
        stop=line.beta_stop,
        points=line.points,
        mode=rscache.Mode(mode),
        split=rscache.PowerSplit(beta=0.5, rho=line.rho),
        methods=(method,),
        sim=rscache.SimConfig(samples=SAMPLES, seed=seed, workers=1),
    )


def csv_name(line: Line, mode: str) -> str:
    return f"{line.name}_{mode}.csv"


def build(workload: str, seed: int) -> list[tuple[str, list]]:
    """The units of a workload: (name, sweeps to run), ready to run."""
    if workload == "fig9-compare":
        return [("figure", []), ("compare", [])]
    method = method_of(workload)
    return [
        (line.name, [(csv_name(line, mode), sweep_spec(line, mode, method, seed)) for mode in MODES])
        for line in lines(workload, seed)
    ]


def run_unit(name: str, sweeps: list, out_dir: str) -> list:
    """Run one unit; returns the (file, compare summary) pairs it produced."""
    import rscache
    import rscache.cli

    for file_name, spec in sweeps:
        rscache.run_sweep(spec, os.path.join(out_dir, file_name))
    if name == "figure":
        with contextlib.redirect_stdout(io.StringIO()):
            code = rscache.cli.main(["figure", "fig9", "--out-dir", out_dir])
        if code != 0:
            raise RuntimeError(f"rscache figure fig9 exited {code}")
    if name != "compare":
        return []
    return [
        (file_name, rscache.compare_csv(os.path.join(out_dir, file_name), SAMPLES))
        for file_name in FIG9_FILES
    ]


def operations(workload: str, out_dir: str, summaries: list) -> tuple[list[str], list[str]]:
    """The operations of one round and those the program itself failed.

    A roster operation is one CSV row (a subcase at a point by one method);
    a fig9-compare operation is one compare check, and the failed ones are
    the checks compare_csv put outside its gate.
    """
    if workload == "fig9-compare":
        ops = [
            op_id(file_name, check.key, check.quantity)
            for file_name, summary in summaries
            for check in summary.checks
        ]
        failed = [
            op_id(file_name, check.key, check.quantity)
            for file_name, summary in summaries
            for check in summary.failures
        ]
        return ops, failed
    ops = []
    for file_name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, file_name), encoding="ascii") as fh:
            rows = sum(1 for _ in fh) - 1
        ops += [f"{file_name}:{i}" for i in range(rows)]
    return ops, []


def op_id(file_name: str, key: str, quantity: str) -> str:
    return f"{file_name}|{key}|{quantity}"
