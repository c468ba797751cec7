import pytest

from specsense import detection, special_fn


@pytest.fixture
def cold_ladders():
    """Start the test with no cached coefficient ladders, grid thresholds or
    grid Poisson tables of either kind (detection._ladders,
    detection._grid_thresholds and the one table memo special_fn._tails)."""
    detection._ladders.clear()
    special_fn._tails.clear()
    detection._grid_thresholds.cache_clear()
    yield
