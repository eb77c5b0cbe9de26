"""Benchmark of the rscache package: time to a solution, set-up and memory.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
./src. Workloads: analytic-roster, mc-roster and fig9-compare (see
workloads.py and README.md).

A run repeats rounds of the workload until S seconds have passed. Every
round is a fresh interpreter (bench/worker.py), so the package's caches
start empty as in a user's command-line run, and every round does the same
operations. The output checks (bench/checks.py) run once, in their own
process, on the first round's files; later rounds must write the same
bytes. With --trace 0 the run reports the end-to-end metrics:

  wall_s       sum over units of the unit's median time across rounds
  setup_s      median time from starting an interpreter to inputs ready
  peak_rss_mb  mean peak resident memory of the first four rounds

With --trace 1 it alternates plain and traced rounds and reports the
per-layer metrics of bench/tracer.py instead. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import METRICS, import_times
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
#: set-up is sampled at least this many times per run
MIN_SETUP_SAMPLES = 5
#: peak_rss_mb is the mean of this many plain rounds, however fast they run
RSS_ROUNDS = 4
#: one round or one check process; a run must end within 180 s
PROCESS_TIMEOUT = 120


class BenchError(Exception):
    pass


def units() -> dict[str, str]:
    """Every metric's unit, as BENCHMARK.json states it."""
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def spawn(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable] + cmd, env=env, capture_output=True, text=True,
        timeout=PROCESS_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc


def run_round(args, runs: Path, index: int, env: dict, flag: str | None) -> dict:
    out = runs / f"round{index}"
    out.mkdir()
    cmd = ["-X", "importtime"] if flag == "--trace" else []
    cmd += [str(BENCH / "worker.py"), args.workload, str(args.seed), str(out)]
    cmd += [flag] if flag else []
    started = time.monotonic()
    proc = spawn(cmd, env)
    with open(runs / f"round{index}.json") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - started
    result["traced"] = flag == "--trace"
    if result["traced"]:
        result["layers"].update(import_times(proc.stderr))
    if index > 0:
        shutil.rmtree(out)
    return result


def wall(rounds: list[dict]) -> float:
    """Sum over units of each unit's median time across the rounds."""
    units = rounds[0]["units"]
    return sum(statistics.median(r["units"][u] for r in rounds) for u in units)


def measure(args, runs: Path, env: dict) -> tuple[dict, int, int, bool, list[str]]:
    kinds = [None, "--trace"] if args.trace else [None]
    least = len(kinds) if args.trace else RSS_ROUNDS
    rounds: list[dict] = []
    start = time.monotonic()
    while len(rounds) < least or time.monotonic() - start < args.seconds:
        rounds.append(run_round(args, runs, len(rounds), env, kinds[len(rounds) % len(kinds)]))

    work = runs / "checks"
    work.mkdir()
    spawn([str(BENCH / "checks.py"), args.workload, str(args.seed), str(runs / "round0"),
           str(work)], env)
    with open(work / "checks.json") as fh:
        verdict = json.load(fh)

    first = rounds[0]
    failed_first = set(first["failed"]) | set(verdict["failed"])
    attempted = failed = 0
    for r in rounds:
        attempted += len(r["operations"])
        same = r["digest"] == first["digest"] and r["failed"] == first["failed"]
        # a round that wrote other bytes for the same inputs failed whole
        failed += len(failed_first) if same else len(r["operations"])
    notes = verdict["problems"] + verdict["notes"]
    if any(r["digest"] != first["digest"] for r in rounds):
        notes.append("rounds wrote different bytes for the same inputs")

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        names = sorted(set().union(*(r["layers"] for r in traced)))
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced if name in r["layers"])
            for name in names
        }
        metrics["trace.overhead_ratio"] = wall(traced) / wall(plain)
    else:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_round(args, runs, len(rounds) + len(setups), env,
                                    "--setup-only")["setup_s"])
        metrics = {
            "wall_s": wall(plain),
            "setup_s": statistics.median(setups),
            # a round's peak sits at a low or a high level 5-15% apart, by
            # how many malloc arenas the simulator's pool threads touched;
            # the mean of a fixed number of rounds weighs both levels and
            # does not depend on how many rounds fit in the run
            "peak_rss_mb": statistics.fmean(r["peak_rss_mb"] for r in plain[:RSS_ROUNDS]),
        }
    return metrics, attempted, failed, not verdict["problems"], notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "rscache" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'rscache'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    # the fig9 preset must run at its own seed
    env.pop("RSCACHE_SEED", None)

    (root / ".bench_runs").mkdir(exist_ok=True)
    runs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_runs"))
    try:
        metrics, attempted, failed, correct, notes = measure(args, runs, env)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runs, ignore_errors=True)

    unit = units()
    for note in notes[:20]:
        print(f"check: {note}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit[name]}")
    if args.trace:
        for name in sorted(set(METRICS) - set(metrics)):
            print(f"{name} absent: a function it wraps no longer exists")
    print(f"operations attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
