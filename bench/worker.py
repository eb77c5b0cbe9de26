"""One round of a workload in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED OUT_DIR [--trace | --setup-only]

Imports the package first, builds the workload's inputs and reads the
monotonic clock: run.py read the same clock before it started this
interpreter, and the difference is the set-up time. It then runs and times
each unit, reads the peak resident memory before anything else can raise
it, and writes its result to OUT_DIR.json. Output checks run in another process.
"""

import sys
import time


def main(argv: list[str]) -> None:
    workload, seed, out_dir = argv[0], int(argv[1]), argv[2]
    flags = set(argv[3:])

    import rscache  # noqa: F401 - first, so that it pays for numpy and scipy
    import rscache.cli  # noqa: F401

    import hashlib
    import json
    import os
    import resource

    import workloads

    units = workloads.build(workload, seed)
    result = {"ready": time.monotonic()}
    if "--setup-only" not in flags:
        tracer = None
        if "--trace" in flags:
            from tracer import Tracer

            tracer = Tracer().install()
        times = {}
        summaries = []
        for name, sweeps in units:
            start = time.perf_counter()
            summaries += workloads.run_unit(name, sweeps, out_dir)
            times[name] = time.perf_counter() - start
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ops, failed = workloads.operations(workload, out_dir, summaries)
        digest = hashlib.sha256()
        for file_name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, file_name), "rb") as fh:
                digest.update(file_name.encode() + b"\0" + fh.read())
        result.update(
            units=times,
            peak_rss_mb=rss_kib / 1024.0,
            operations=ops,
            failed=failed,
            digest=digest.hexdigest(),
            layers=tracer.metrics() if tracer else {},
        )
    with open(os.path.join(out_dir, "..", os.path.basename(out_dir) + ".json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
