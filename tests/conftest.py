"""Fixtures shared by the test modules."""

import pytest

from rscache import rates

RATE_CACHES = (
    rates.common_rate_single,
    rates.common_rate_both,
    rates.private_rate_after_common,
    rates.private_rate_with_interference,
)


def _clear_rate_caches():
    for fn in RATE_CACHES:
        fn.cache_clear()


@pytest.fixture
def cold_rate_caches():
    """Run with empty rate caches, and drop what the test put in them.

    Yields the function that empties them, for a test that needs them
    cold more than once.
    """
    _clear_rate_caches()
    yield _clear_rate_caches
    _clear_rate_caches()
