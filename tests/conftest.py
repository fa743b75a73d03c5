"""Tooling shared by the tests."""

import tracemalloc

import pytest


def _alloc_peak(run, nbytes: int) -> float:
    """Peak of traced allocations during the second call of `run`, over
    `nbytes`. The first call is a warm-up, so that caches and lazily built
    tables are not counted."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / nbytes
    finally:
        tracemalloc.stop()


@pytest.fixture
def alloc_peak():
    """The allocation peak the budget tests read (tooling, not timing)."""
    return _alloc_peak
