"""Run every workload once per seed and report the spread of each metric.

    python3 bench/steadiness.py [--seeds 1-10] [WORKLOAD ...]

For each workload and end-to-end metric it prints the median over the
seeds and the distance between the first and third quartile as a share of
the median, the figure BENCHMARK.json's bounds are set against, plus the
share of failed operations. Every run lasts BENCHMARK.json's run_seconds,
the length the bounds hold for. Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]

    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True,
            ).stdout.splitlines()[-1]
            result = json.loads(out)
            shares.add((result["failed"] / result["attempted"], result["correct"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
            ), f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{workload} {name} median={statistics.median(vals):.6g} spread={spread:.4f}")
        print(f"{workload} failed share / correct: {sorted(shares)}", flush=True)


if __name__ == "__main__":
    main()
