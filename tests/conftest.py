import pytest

from specsense import detection, special_fn


@pytest.fixture
def cold_ladders():
    """Start the test with no cached coefficient ladders, grid Poisson
    tables of either kind, or small per-grid entries: thresholds, stop
    vectors, AWGN plans and AUC weights (detection._ladders, and
    special_fn's _tails and _u_tables)."""
    detection._ladders.clear()
    special_fn._tails.clear()
    special_fn._u_tables.clear()
    yield
