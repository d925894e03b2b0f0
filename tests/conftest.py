import pytest

from ellorders import walk


@pytest.fixture(autouse=True)
def cold_trace_store():
    """Each test starts with an empty trace store: tests that spy on
    _count_chunk, or make it lie, see every prime of a walk or survey
    counted, whatever earlier tests stored."""
    walk._TRACES.clear()
    yield
    walk._TRACES.clear()
