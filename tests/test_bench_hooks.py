"""The benchmark tracer's hooks still name functions of the package.

bench/tracer.py wraps package functions by (module, attribute) and reads
the rate caches' cache_info. A hook whose name is gone is skipped there,
and its metrics drop out of a traced run; these checks fail first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_is_a_package_callable():
    hooks = _load_tracer().HOOKS
    missing = [
        (module, attr)
        for module, attr, _key, _layer in hooks
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert hooks and missing == []


def test_the_rates_module_keeps_a_cache_for_the_hit_ratio():
    rates = importlib.import_module("rscache.rates")
    assert any(hasattr(obj, "cache_info") for obj in vars(rates).values())
