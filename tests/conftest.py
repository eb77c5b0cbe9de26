"""Fixtures shared by the test modules."""

import pytest

from rscache import rates


@pytest.fixture
def cold_rate_caches():
    """Run with no working point's table kept, and drop the tables the test made.

    Yields the function that empties the table cache, for a test that needs
    it cold more than once.
    """
    rates._point.cache_clear()
    yield rates._point.cache_clear
    rates._point.cache_clear()
