import os
import tracemalloc

import pytest

from soupadapter import workers


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


@pytest.fixture
def forking(monkeypatch):
    """workers.deal forks as in a one-thread CLI process on 2 usable
    cores; the list holds the pid of every child forked, and each must be
    reaped by the end of the test. (This process keeps the helper threads
    its OpenBLAS started; OpenBLAS's fork handler stops them first.)"""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(workers, "_one_thread", lambda: True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "fork", recording)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):  # no such child is left
            os.waitpid(pid, os.WNOHANG)
