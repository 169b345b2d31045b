import tracemalloc

import pytest


def _traced_peak(fn) -> int:
    """The most bytes tracemalloc saw allocated at once while fn() ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _working_peak(fn) -> int:
    """The most bytes allocated at once while fn() ran, beyond what the
    caller holds once it returns (fn's result): the working memory fn
    needed on top of its inputs and its output."""
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841 - held while the memory is read
        held, peak = tracemalloc.get_traced_memory()
        return peak - held
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak


@pytest.fixture
def working_peak():
    return _working_peak
