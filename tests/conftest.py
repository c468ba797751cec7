import pytest

from specsense import detection, special_fn


@pytest.fixture
def cold_ladders():
    """Start the test with no cached coefficient ladders, grid Poisson-tail
    tables, grid thresholds or Marcum Q lower-tail tables."""
    detection._ladders.clear()
    detection._tails.clear()
    detection._grid_thresholds.cache_clear()
    special_fn._lower_tails.clear()
    yield
