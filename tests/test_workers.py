"""workers.deal: round-robin shares, forked children, their errors, and
that none outlives the call (the ``forking`` fixture of conftest)."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from soupadapter import dataio, workers
from soupadapter.errors import NormViolation

SRC = Path(__file__).resolve().parents[1] / "src"


def test_shares_are_dealt_round_robin_and_run_in_children(forking):
    results = workers.deal(5, lambda share: (os.getpid(), share))
    assert [share for _, share in results] == [[0, 2, 4], [1, 3]]
    assert results[0][0] == os.getpid()
    assert results[1][0] == forking[0] != os.getpid()


def test_more_cores_than_items_forks_one_child_an_item(forking, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    assert workers.deal(3, lambda share: share) == [[0], [1], [2]]
    assert len(forking) == 2


@pytest.mark.parametrize("threads,cores", [(False, 2), (True, 1)])
def test_more_threads_or_one_core_scores_in_process(monkeypatch, threads,
                                                    cores):
    monkeypatch.setattr(workers, "_one_thread", lambda: threads)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)
    assert workers.deal(3, lambda share: (os.getpid(), share)) \
        == [(os.getpid(), [0, 1, 2])]


def test_a_second_thread_counts():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not workers._one_thread()
    finally:
        stop.set()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="threads are counted in /proc/self/task")
def test_a_cli_process_runs_one_thread(tmp_path):
    # __main__ pins BLAS before numpy loads, over the caller's count, so
    # OpenBLAS starts no helper thread
    path = tmp_path / "x.sadp"
    dataio.write_container(dataio.EmbeddingSet(
        features=np.eye(4, dtype=np.float32)[:, None, :],
        labels=np.arange(4), n_classes=4), path)
    code = ("import atexit, sys\n"
            "from soupadapter import __main__, workers\n"
            "atexit.register(lambda: print(workers._one_thread()))\n"
            "sys.argv[1:] = ['info', '--embeddings', sys.argv[1]]\n"
            "__main__.entry()\n")
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.splitlines()[-1] == "True"


def test_a_childs_library_error_reaches_the_parent_with_class_and_message(
        forking):
    def score(share):
        if share == [1]:
            raise NormViolation("set.sadp: sample 3 view 0 has norm 2")
        return share
    with pytest.raises(NormViolation,
                       match="^set.sadp: sample 3 view 0 has norm 2$"):
        workers.deal(2, score)
    assert len(forking) == 1


def test_a_childs_other_error_reaches_the_parent_too(forking):
    def score(share):
        if share == [1]:
            raise KeyError("missing")
        return share
    with pytest.raises(KeyError, match="missing"):
        workers.deal(2, score)


def test_a_child_that_dies_is_an_error(forking):
    def score(share):
        if share == [1]:
            os._exit(7)
        return share
    with pytest.raises(RuntimeError, match="worker process"):
        workers.deal(2, score)


def test_the_callers_own_error_kills_and_reaps_the_children(forking):
    read, write = os.pipe()

    def score(share):
        if share == [1]:
            os.read(read, 1)  # would block for ever: only a kill ends it
        raise NormViolation("first share")
    try:
        with pytest.raises(NormViolation, match="first share"):
            workers.deal(2, score)
    finally:
        os.close(read)
        os.close(write)
    assert len(forking) == 1
