import pytest

from specsense import detection


@pytest.fixture
def cold_ladders():
    """Start the test with no cached coefficient ladders."""
    with detection._ladders_lock:
        detection._ladders.clear()
    yield
