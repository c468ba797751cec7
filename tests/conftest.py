import pytest

from specsense import detection, special_fn


@pytest.fixture
def cold_ladders():
    """Start the test with no cached coefficient ladders, per-u tables, grid
    thresholds or grid Poisson tables of either kind (detection._ladders,
    detection._u_tables and the one table memo special_fn._tails)."""
    detection._ladders.clear()
    special_fn._tails.clear()
    detection._u_tables.clear()
    yield
