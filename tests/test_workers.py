"""workers.deal: round-robin shares, forked children, the serial loop's
results and failure, and that no child outlives the call (the
``forking`` fixture of conftest)."""

import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from soupadapter import dataio, errors, workers
from soupadapter.errors import NormViolation, WorkerFailure, prefixed

SRC = Path(__file__).resolve().parents[1] / "src"


def _items(fail=None):
    """A run for workers.deal whose item i is (i, its share, the pid that
    computed it), and which raises fail(i) where that is not None."""
    def run(share):
        for i in share:
            error = fail and fail(i)
            if error is not None:
                raise error
            yield i, list(share), os.getpid()
    return run


def test_shares_are_dealt_round_robin_and_run_in_children(forking):
    results = workers.deal(5, _items())
    assert [i for i, _, _ in results] == [0, 1, 2, 3, 4]
    assert [share for _, share, _ in results] \
        == [[0, 2, 4], [1, 3], [0, 2, 4], [1, 3], [0, 2, 4]]
    assert {pid for _, _, pid in results[0::2]} == {os.getpid()}
    assert {pid for _, _, pid in results[1::2]} == {forking[0]}
    assert forking[0] != os.getpid()


def test_more_cores_than_items_forks_one_child_an_item(forking, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    assert [(i, share) for i, share, _ in workers.deal(3, _items())] \
        == [(0, [0]), (1, [1]), (2, [2])]
    assert len(forking) == 2


def test_no_items_is_an_empty_list_and_no_run(forking):
    def run(share):
        raise AssertionError("run is not called")
    assert workers.deal(0, run) == []
    assert forking == []


@pytest.mark.parametrize("threads,cores", [(False, 2), (True, 1)])
def test_more_threads_or_one_core_scores_in_process(monkeypatch, threads,
                                                    cores):
    monkeypatch.setattr(workers, "_one_thread", lambda: threads)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)
    assert workers.deal(3, _items()) \
        == [(i, [0, 1, 2], os.getpid()) for i in range(3)]


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
    with pytest.raises(NormViolation,
                       match="^set.sadp: sample 3 view 0 has norm 2$"):
        workers.deal(2, _items(lambda i: NormViolation(
            "set.sadp: sample 3 view 0 has norm 2") if i == 1 else None))
    assert len(forking) == 1


def test_a_childs_other_error_reaches_the_parent_too(forking):
    with pytest.raises(KeyError, match="missing"):
        workers.deal(2, _items(lambda i: KeyError("missing") if i == 1
                               else None))


def test_a_child_that_dies_is_an_error(forking):
    def run(share):
        for i in share:
            if i == 1:
                os._exit(7)
            yield i
    with pytest.raises(WorkerFailure, match=r"^worker process \d+ ended "
                       r"without a reply \(exit status 7\)$"):
        workers.deal(2, run)


def test_a_fork_that_fails_is_an_error_once_the_children_are_reaped(
        forking, monkeypatch):
    # on 3 cores the second fork fails: the first child is killed and
    # reaped (the fixture checks) and the OSError becomes a library error
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    fork = os.fork

    def second_fails():
        if forking:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()
    monkeypatch.setattr(os, "fork", second_fails)
    with pytest.raises(WorkerFailure, match="^cannot start a worker process: "
                       r"\[Errno 11\] Resource temporarily unavailable$"):
        workers.deal(3, _items())
    assert len(forking) == 1


def test_the_callers_own_error_kills_and_reaps_the_children(forking):
    # a KeyboardInterrupt is no item's failure: the child is not waited for
    read, write = os.pipe()

    def fail(i):
        if i == 1:
            os.read(read, 1)  # would block for ever: only a kill ends it
        return KeyboardInterrupt()
    try:
        with pytest.raises(KeyboardInterrupt):
            workers.deal(2, _items(fail))
    finally:
        os.close(read)
        os.close(write)
    assert len(forking) == 1


def test_a_childs_lower_failing_index_wins_over_the_callers(forking):
    # share 0 (this process) fails at index 2, share 1 (a child) at 1,
    # as the serial loop would: index 1 fails first
    with pytest.raises(ValueError, match="^1$"):
        workers.deal(4, _items(lambda i: ValueError(str(i)) if i in (1, 2)
                               else None))
    assert len(forking) == 1


def test_a_childs_keyboard_interrupt_wins_over_any_item_failure(forking):
    def fail(i):
        return ValueError(str(i)) if i == 0 else KeyboardInterrupt()
    with pytest.raises(KeyboardInterrupt):
        workers.deal(2, _items(fail))
    assert len(forking) == 1


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cores=st.integers(1, 4), count=st.integers(0, 12),
       failing=st.sets(st.integers(0, 11)))
def test_deal_is_the_serial_loop_whatever_fails_and_wherever(
        forking, monkeypatch, cores, count, failing):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)

    def f(i):
        if i in failing:
            raise ValueError(i)
        return i * i

    def run(share):
        for i in share:
            yield f(i)
    forked = len(forking)
    try:
        serial = [f(i) for i in range(count)]
    except ValueError as first:
        with pytest.raises(ValueError) as caught:
            workers.deal(count, run)
        assert caught.value.args == first.args
    else:
        assert workers.deal(count, run) == serial
    assert len(forking) - forked == max(0, min(count, cores) - 1)
    for pid in forking[forked:]:
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(pid, os.WNOHANG)


def _library_errors():
    """One instance of every exception class of errors, as raised, and
    each again with a prefixed message, as prefixed leaves it."""
    made = {errors.InsufficientShots: lambda: errors.InsufficientShots(3, 2),
            errors.EquivalenceViolation:
                lambda: errors.EquivalenceViolation(1.5e-3, 7)}
    classes = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, BaseException)
               and cls.__module__ == errors.__name__]
    assert set(made) < set(classes)
    for cls in classes:
        plain = made.get(cls, lambda: cls(f"{cls.__name__} message"))()
        wrapped = made.get(cls, lambda: cls(f"{cls.__name__} message"))()
        with pytest.raises(cls), prefixed("set.sadp"):
            raise wrapped
        yield plain
        yield wrapped


def _same_error(got, want):
    assert type(got) is type(want)
    assert got.args == want.args
    assert vars(got) == vars(want)


@pytest.mark.parametrize("exc", _library_errors(), ids=repr)
def test_every_library_error_survives_a_pickle(exc):
    _same_error(pickle.loads(pickle.dumps(exc)), exc)


def test_every_library_error_reaches_the_parent_whole(forking):
    sent = list(_library_errors())
    for exc in sent:
        with pytest.raises(type(exc)) as caught:
            workers.deal(2, _items(lambda i: exc if i == 1 else None))
        _same_error(caught.value, exc)
    assert len(forking) == len(sent)
