"""Per-layer spans recorded from outside the package.

Each hook replaces one function at a layer boundary with a wrapper that
times the call and counts it. Where a module imports a function by name,
the wrapper goes into that importing module's namespace, because that is
the name the caller looks up; the package's source is not touched. Spans
nest per thread: a span's self time is its duration minus the durations of
the spans it directly encloses.

A hook whose function no longer exists is skipped, and the metrics built
on it are reported as absent, so that a restructured layer does not stop
the run.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from collections import defaultdict

# (module, attribute, span key, layer). Keys name the metrics; a key can
# have several call sites, one per module that imports the function.
HOOKS = (
    ("rscache.distributions", "reg_lower", "incgamma", "incgamma"),
    ("rscache.distributions", "reg_lower_diff", "incgamma", "incgamma"),
    ("rscache.rates", "coverage", "distributions.coverage", "distributions"),
    ("rscache.rates", "pdf_s_measure", "distributions.pdf_s_measure", "distributions"),
    ("rscache.rates", "integrate_log_scaled", "quadrature", "quadrature"),
    ("rscache.rates", "common_rate_both", "rates.common_rate_both", "rates"),
    ("rscache.rates", "common_rate_single", "rates.common_rate_single", "rates"),
    ("rscache.rates", "private_rate_after_common", "rates.private_rates", "rates"),
    ("rscache.rates", "private_rate_with_interference", "rates.private_rates", "rates"),
    ("rscache.sweep", "evaluate_subcase", "rates.evaluate_subcase", "rates"),
    ("rscache.sweep", "asymptotic_report", "rates.asymptotic_report", "rates"),
    ("rscache.cli", "asymptotic_report", "rates.asymptotic_report", "rates"),
    ("rscache.rates", "prelog_factors", "model.prelog_factors", "model"),
    ("rscache.sweep", "parse_subcase_token", "caching.parse_subcase_token", "caching"),
    ("rscache.cli", "parse_subcase_token", "caching.parse_subcase_token", "caching"),
    ("rscache.sweep", "estimate_rates", "montecarlo.estimate_rates", "montecarlo"),
    ("rscache.montecarlo", "sample_channels", "montecarlo.sample_channels", "montecarlo"),
    ("rscache", "run_sweep", "sweep.run_sweep", "sweep"),
    ("rscache.cli", "run_sweep", "sweep.run_sweep", "sweep"),
    ("rscache", "compare_csv", "sweep.compare_csv", "sweep"),
    ("rscache.cli", "compare_csv", "sweep.compare_csv", "sweep"),
    ("rscache.cli", "main", "cli.main", "cli"),
)

RATES_KEYS = tuple(dict.fromkeys(key for _m, _a, key, layer in HOOKS if layer == "rates"))

# metric -> (span field: 0 calls, 1 inclusive seconds, 2 self seconds; span keys)
SPAN_METRICS = {
    "incgamma.calls": (0, ("incgamma",)),
    "incgamma.s": (1, ("incgamma",)),
    "distributions.coverage.calls": (0, ("distributions.coverage",)),
    "distributions.pdf_s_measure.calls": (0, ("distributions.pdf_s_measure",)),
    "distributions.self_s": (2, ("distributions.coverage", "distributions.pdf_s_measure")),
    "quadrature.calls": (0, ("quadrature",)),
    "quadrature.self_s": (2, ("quadrature",)),
    "rates.evaluate_subcase.calls": (0, ("rates.evaluate_subcase",)),
    "rates.evaluate_subcase.s": (1, ("rates.evaluate_subcase",)),
    "rates.common_rate_both.s": (1, ("rates.common_rate_both",)),
    "rates.common_rate_single.s": (1, ("rates.common_rate_single",)),
    "rates.private_rates.s": (1, ("rates.private_rates",)),
    "rates.asymptotic_report.s": (1, ("rates.asymptotic_report",)),
    "rates.self_s": (2, RATES_KEYS),
    "model.prelog_factors.calls": (0, ("model.prelog_factors",)),
    "model.prelog_factors.s": (1, ("model.prelog_factors",)),
    "caching.parse_subcase_token.calls": (0, ("caching.parse_subcase_token",)),
    "montecarlo.estimate_rates.calls": (0, ("montecarlo.estimate_rates",)),
    "montecarlo.sample_channels.s": (1, ("montecarlo.sample_channels",)),
    "sweep.self_s": (2, ("sweep.run_sweep",)),
    "sweep.compare_csv.s": (1, ("sweep.compare_csv",)),
    "cli.main.self_s": (2, ("cli.main",)),
}

# work counters -> the span key whose wrapper counts them
COUNTERS = {
    "quadrature.evals": "quadrature",
    "montecarlo.draws": "montecarlo.sample_channels",
    "sweep.rows": "sweep.run_sweep",
    "sweep.csv_bytes": "sweep.run_sweep",
    "sweep.compare.checks": "sweep.compare_csv",
}

# every per-layer metric a traced run reports when all its hooks exist
METRICS = (
    *SPAN_METRICS, *COUNTERS,
    "incgamma.us_per_call", "quadrature.evals_per_call", "montecarlo.kernel_s",
    "montecarlo.draws_per_s", "rates.cache_hit_ratio",
    "setup.import_s", "setup.scipy_import_s", "trace.overhead_ratio",
)


class Tracer:
    """Span totals per key plus the work counters measured at the hooks."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        # key -> [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()
        self.cached: list = []

    def install(self) -> "Tracer":
        # the lru-cached rate functionals, taken before their names are wrapped
        rates = importlib.import_module("rscache.rates")
        self.cached = [
            obj for obj in vars(rates).values() if hasattr(obj, "cache_info")
        ]
        for module_name, attr, key, _layer in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            setattr(module, attr, self._wrap(fn, key))
            self.installed.add(key)
        return self

    def _wrap(self, fn, key):
        record = self._record
        count = self._count
        if key == "quadrature":
            # a plain counter per call, added once the call returns, keeps
            # the per-evaluation cost of counting small
            def call(integrand, *args, **kwargs):
                evals = 0

                def counted(x):
                    nonlocal evals
                    evals += 1
                    return integrand(x)

                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    count("quadrature.evals", evals)
        else:
            call = fn

        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = call(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record(key, elapsed, elapsed - children)
            self._after(key, args, kwargs, result)
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, key: str, elapsed: float, own: float) -> None:
        with self._lock:
            span = self.spans[key]
            span[0] += 1
            span[1] += elapsed
            span[2] += own

    def _count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def _after(self, key: str, args, kwargs, result) -> None:
        if key == "montecarlo.sample_channels":
            self._count("montecarlo.draws", kwargs.get("n", args[2] if len(args) > 2 else 0))
        elif key == "sweep.run_sweep":
            self._count("sweep.rows", result)
            self._count("sweep.csv_bytes", os.path.getsize(kwargs.get("out_path", args[1])))
        elif key == "sweep.compare_csv":
            self._count("sweep.compare.checks", len(result.checks))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this process; those without their hooks are left out."""
        have = self.installed
        out = {
            name: float(sum(self.spans[k][field] for k in keys))
            for name, (field, keys) in SPAN_METRICS.items()
            if all(k in have for k in keys)
        }
        out.update({name: self.counts[name] for name, key in COUNTERS.items() if key in have})

        def per(num: float, den: float) -> float:
            return num / den if den else 0.0

        if "incgamma" in have:
            out["incgamma.us_per_call"] = per(1e6 * out["incgamma.s"], out["incgamma.calls"])
        if "quadrature" in have:
            out["quadrature.evals_per_call"] = per(out["quadrature.evals"], out["quadrature.calls"])
        if {"montecarlo.estimate_rates", "montecarlo.sample_channels"} <= have:
            estimate_s = self.spans["montecarlo.estimate_rates"][1]
            out["montecarlo.kernel_s"] = estimate_s - out["montecarlo.sample_channels.s"]
            out["montecarlo.draws_per_s"] = per(out["montecarlo.draws"], estimate_s)
        if self.cached:
            hits = lookups = 0
            for fn in self.cached:
                info = fn.cache_info()
                hits += info.hits
                lookups += info.hits + info.misses
            out["rates.cache_hit_ratio"] = per(hits, lookups)
        return out


def import_times(stderr: str) -> dict[str, float]:
    """setup.import_s and setup.scipy_import_s from ``-X importtime`` output.

    The output lists modules children first, indented two spaces per level;
    a module's parent is the next line at a lower level. scipy time is the
    cumulative time of every scipy module whose parent is not itself scipy.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        level = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((level, name.strip(), int(cumulative) * 1e-6))
    out = {}
    scipy = 0.0
    for i, (level, name, cumulative) in enumerate(rows):
        if name == "rscache" and level == 0:
            out["setup.import_s"] = cumulative
        if name.split(".")[0] != "scipy":
            continue
        parent = next((r[1] for r in rows[i + 1:] if r[0] < level), "")
        if parent.split(".")[0] != "scipy":
            scipy += cumulative
    if "setup.import_s" in out:
        out["setup.scipy_import_s"] = scipy
    return out
