"""Output checks of one round, run in their own process after the timed rounds.

    python3 bench/checks.py WORKLOAD SEED ROUND_DIR WORK_DIR

Reads the CSV files the round wrote to ROUND_DIR, re-runs what the checks
need in WORK_DIR, and writes WORK_DIR/checks.json:

  failed    ids of the operations an output check failed
  problems  failures that belong to no operation (a missing file, a wrong
            row count); any of them makes the run incorrect
  notes     one line per failed check, for the reader
  checks    how many checks ran

Every check compares against the independent reference in reference.py or
against a stated property, never against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

import reference
import workloads

# Two-sided normal tail beyond 5 sigma: 5.7e-7 per check.
Z_GATE = 5.0
# A simulated rate is compared once its event holds this many draws.
MIN_EVENTS = 100
# Analytic q against the reference: the CSV rounds to 9 significant digits,
# half a unit in the last place is at most 5e-9 of the value.
Q_RTOL = 5.5e-9
Q_ATOL = 1e-15
# fig9: finite high-power limits against the analytic rates at P = 1e8.
ASYMPTOTIC_GAP = 1e-3
# R_sum <= R_c + R_e after each value was rounded to 9 digits.
SUM_RTOL = 1e-8
# The determinism check splits every estimate into 7 chunks so that the
# chunk-order reduction runs; at the stock chunk of 131 072 draws a
# 100 000-draw estimate is one chunk at any worker count.
DETERMINISM_CHUNK = 16_384

ROSTER_SIZE = {"all-mpc": 1, "cc-mpc": 5, "mpc-cc": 5, "all-cc": 9}

# The stock fig9 preset: a log power sweep from 1 to 1e8 in the mpc-cc mode
# with N = 60, K = 2, zeta = 1 and rho = 0.5; beta and xi per file.
FIG9_PARAMS = dict(reference.STOCK, N=60, K=2, zeta=1.0, rho=0.5)
FIG9_FILE_PARAMS = dict(zip(workloads.FIG9_FILES, (
    dict(FIG9_PARAMS, beta=0.6, xi=2.0),
    dict(FIG9_PARAMS, beta=0.6, xi=2.0),
    dict(FIG9_PARAMS, beta=0.3, xi=1.0),
)))

RATES = ("R_c", "R_e", "R_sum")


class Verdict:
    def __init__(self) -> None:
        self.failed: set[str] = set()
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.checks = 0

    def check(self, ok: bool, ops: list[str], why: str) -> None:
        self.checks += 1
        if not ok:
            self.failed.update(ops)
            self.notes.append(why)

    def problem(self, why: str) -> None:
        self.problems.append(why)


def read_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def served_reference(row: dict[str, str], p: dict) -> tuple[float, float]:
    """Reference (q_c, q_e) for a row at the working point p."""
    techs = row["subcase"].split("/")
    out = []
    for center, tech, r_in, r_out in (
        (True, techs[0], 0.0, p["r_c"]),
        (False, techs[1], p["r_e"], p["r_0"]),
    ):
        omega = reference.prelog(tech, p["K"], p["M"], p["N"])
        iic = row["iic"] == ("center" if center else "edge")
        c = reference.served_scale(
            center, iic, p["P"], p["beta"], p["rho"], omega, p["zeta"], p["xi"], p["sigma2"]
        )
        out.append(reference.served_probability(c, r_in, r_out, p["alpha"]))
    return out[0], out[1]


def check_row(v: Verdict, row: dict[str, str], p: dict, ops: list[str], where: str) -> None:
    """Properties every analytic and simulated row must have, and its q."""
    x = {k: float(row[k]) for k in RATES + ("q_c", "q_e", "stderr_Rc", "stderr_Re", "stderr_Rsum")}
    v.check(all(math.isfinite(val) for val in x.values()), ops, f"{where}: non-finite value")
    v.check(all(0.0 <= x[q] <= 1.0 for q in ("q_c", "q_e")), ops, f"{where}: q outside [0, 1]")
    v.check(
        all(x[k] >= 0.0 for k in x if k not in ("q_c", "q_e")), ops, f"{where}: negative rate"
    )
    v.check(
        x["R_sum"] <= (x["R_c"] + x["R_e"]) * (1.0 + SUM_RTOL),
        ops, f"{where}: R_sum {x['R_sum']} above R_c + R_e",
    )
    techs = row["subcase"].split("/")
    for col, tech in (("omega_c", techs[0]), ("omega_e", techs[1])):
        want = "%.9g" % reference.prelog(tech, p["K"], p["M"], p["N"])
        v.check(row[col] == want, ops, f"{where}: {col} {row[col]} != {want}")
    ref = served_reference(row, p)
    for q, want in zip(("q_c", "q_e"), ref):
        got = x[q]
        if row["method"] == "analytic":
            ok = abs(got - want) <= Q_RTOL * want + Q_ATOL
        else:
            n = workloads.SAMPLES
            sd = math.sqrt(n * want * (1.0 - want))
            ok = abs(got * n - want * n) <= Z_GATE * sd + Z_GATE
        v.check(ok, ops, f"{where}: {row['method']} {q}={got} vs reference {want:.12g}")


def rate_agreement(v: Verdict, mc: dict, analytic: dict, ops: list[str], where: str) -> None:
    """Simulated rates against the analytic ones, in units of their stderr."""
    n = workloads.SAMPLES
    q_c, q_e = float(mc["q_c"]), float(mc["q_e"])
    events = {"R_c": q_c * n, "R_e": q_e * n, "R_sum": (q_c + q_e - q_c * q_e) * n}
    for rate, se_col in zip(RATES, ("stderr_Rc", "stderr_Re", "stderr_Rsum")):
        if events[rate] < MIN_EVENTS:
            continue
        a, m, se = float(analytic[rate]), float(mc[rate]), float(mc[se_col])
        ok = abs(a - m) <= (Z_GATE * se if se > 0.0 else 1e-9 * max(1.0, abs(a)))
        v.check(ok, ops, f"{where}: {rate} monte-carlo {m} vs analytic {a} (stderr {se})")


def same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def same_at_any_worker_count(v: Verdict, name: str, spec, work_dir: str, ops: list[str]) -> None:
    """The determinism contract: workers=1 and workers=2 write the same bytes."""
    import rscache

    paths = []
    for workers in (1, 2):
        sim = dataclasses.replace(spec.sim, chunk=DETERMINISM_CHUNK, workers=workers)
        paths.append(os.path.join(work_dir, f"workers{workers}_{name}"))
        rscache.run_sweep(dataclasses.replace(spec, sim=sim), paths[-1])
    v.check(same_bytes(*paths), ops,
            f"{name}: bytes differ between workers=1 and workers=2 at chunk {DETERMINISM_CHUNK}")


def check_roster(v: Verdict, workload: str, seed: int, round_dir: str, work_dir: str) -> None:
    import rscache

    lines = workloads.lines(workload, seed)
    method = workloads.method_of(workload)
    # file -> (row index, row, working point) of every row at a known point
    rows_of: dict[str, list] = {}
    for line in lines:
        betas = {"%.9g" % b: b for b in line.betas()}
        for mode in workloads.MODES:
            name = workloads.csv_name(line, mode)
            path = os.path.join(round_dir, name)
            if not os.path.exists(path):
                v.problem(f"{name} was not written")
                continue
            rows = read_rows(path)
            if len(rows) != line.points * ROSTER_SIZE[mode]:
                v.problem(f"{name}: {len(rows)} rows, want {line.points * ROSTER_SIZE[mode]}")
            rows_of[name] = []
            for i, row in enumerate(rows):
                if row["value"] not in betas or row["method"] != method or row["mode"] != mode:
                    v.problem(f"{name} row {i}: unexpected point, method or mode")
                    continue
                p = dict(reference.STOCK, beta=betas[row["value"]], rho=line.rho)
                rows_of[name].append((i, row, p))
                check_row(v, row, p, [f"{name}:{i}"], f"{name} row {i}")
    if workload != "mc-roster":
        return

    rng = np.random.default_rng([seed, 99])
    # rates of one seeded line against an analytic sweep of the same points
    line = lines[rng.integers(len(lines))]
    for mode in workloads.MODES:
        name = workloads.csv_name(line, mode)
        path = os.path.join(work_dir, "analytic_" + name)
        rscache.run_sweep(workloads.sweep_spec(line, mode, "analytic", seed), path)
        analytic = {(r["value"], r["subcase"], r["iic"]): r for r in read_rows(path)}
        for i, row, p in rows_of.get(name, []):
            other = analytic.get((row["value"], row["subcase"], row["iic"]))
            if other is None:
                v.problem(f"{name} row {i}: no analytic row to compare with")
                continue
            check_row(v, other, p, [f"{name}:{i}"], f"analytic re-run of {name} row {i}")
            rate_agreement(v, row, other, [f"{name}:{i}"], f"{name} row {i}")

    line = lines[rng.integers(len(lines))]
    mode = workloads.MODES[rng.integers(len(workloads.MODES))]
    name = workloads.csv_name(line, mode)
    same_at_any_worker_count(v, name, workloads.sweep_spec(line, mode, method, seed), work_dir,
                             [f"{name}:{i}" for i, _row, _p in rows_of.get(name, [])])


def check_fig9(v: Verdict, round_dir: str, work_dir: str, ops_of: dict) -> None:
    import rscache

    def ops(name: str, row: dict[str, str], rates=RATES) -> list[str]:
        # the compare checks of the row's point, as compare_csv labels them
        label = "{}={} {} iic={}".format(row["var"], row["value"], row["subcase"], row["iic"])
        return [workloads.op_id(name, label, rate) for rate in rates]

    for name, p_file in FIG9_FILE_PARAMS.items():
        path = os.path.join(round_dir, name)
        if not os.path.exists(path):
            v.problem(f"{name} was not written")
            continue
        rows = read_rows(path)
        by_key: dict[tuple, dict] = {}
        top = max(float(r["value"]) for r in rows)
        for row in rows:
            by_key[(row["value"], row["subcase"], row["iic"], row["method"])] = row
            if row["method"] == "asymptotic":
                continue
            p = dict(p_file, P=float(row["value"]))
            check_row(v, row, p, ops(name, row),
                      f"{name} P={row['value']} {row['subcase']} {row['method']}")
        for (value, sub, iic, method), row in by_key.items():
            if method != "asymptotic" or float(value) != top:
                continue
            analytic = by_key.get((value, sub, iic, "analytic"))
            for rate in RATES:
                limit = float(row[rate])
                if analytic is None or not math.isfinite(limit):
                    continue
                a = float(analytic[rate])
                gap = abs(limit - a) / a if a > 0.0 else abs(limit)
                v.check(gap <= ASYMPTOTIC_GAP, ops(name, row, (rate,)),
                        f"{name} {sub} iic={iic} {rate}: limit {limit} is {gap:.2e} from {a}")

    # the preset's simulated rows; the analytic ones use no worker pool
    for name, spec in rscache.figure_presets()["fig9"]:
        spec = dataclasses.replace(spec, methods=("monte-carlo",))
        same_at_any_worker_count(v, name, spec, work_dir, ops_of.get(name, []))


def main(argv: list[str]) -> None:
    workload, seed, round_dir, work_dir = argv[0], int(argv[1]), argv[2], argv[3]
    with open(round_dir.rstrip("/") + ".json") as fh:
        round_ops = json.load(fh)["operations"]
    v = Verdict()
    if workload == "fig9-compare":
        ops_of: dict[str, list] = {}
        for op in round_ops:
            ops_of.setdefault(op.split("|", 1)[0], []).append(op)
        check_fig9(v, round_dir, work_dir, ops_of)
    else:
        check_roster(v, workload, seed, round_dir, work_dir)
    unknown = v.failed - set(round_ops)
    if unknown:
        v.problem(f"{len(unknown)} failed checks match no operation, e.g. {sorted(unknown)[0]}")
    with open(os.path.join(work_dir, "checks.json"), "w") as fh:
        json.dump(
            {"failed": sorted(v.failed), "problems": v.problems, "notes": v.notes,
             "checks": v.checks},
            fh,
        )


if __name__ == "__main__":
    main(sys.argv[1:])
