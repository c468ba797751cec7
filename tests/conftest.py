import pytest

from specsense import detection


@pytest.fixture
def cold_ladders():
    """Start the test with no cached coefficient ladders, grid Poisson-tail
    tables or grid thresholds."""
    detection._ladders.clear()
    detection._tails.clear()
    detection._grid_thresholds.cache_clear()
    yield
