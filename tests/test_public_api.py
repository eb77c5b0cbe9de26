"""The package's public surface is the one the README documents."""

import inspect
import re
from pathlib import Path

import rscache

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_is_documented():
    text = README.read_text()
    missing = [name for name in rscache.__all__ if not re.search(rf"\b{name}\b", text)]
    assert not missing, f"exported but not in README.md: {missing}"


def test_every_exported_name_exists():
    for name in rscache.__all__:
        assert hasattr(rscache, name), name


def test_rate_entry_points_take_what_the_library_example_passes():
    # README's Library example calls these with exactly these arguments
    for fn, names in (
        (rscache.evaluate_subcase, ["subcase", "params", "split"]),
        (rscache.estimate_rates, ["subcase", "params", "split", "sim"]),
        (rscache.parse_subcase_token, ["mode", "token"]),
    ):
        assert list(inspect.signature(fn).parameters) == names, fn.__name__
