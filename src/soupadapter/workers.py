"""Work dealt to forked worker processes, and the cores they may use.

``deal(count, run)`` is [f(i) for i in range(count)], raising what that
loop raises, where run(share) is a generator that yields f(i) for each
i of ``share``, a range, in order; what a process keeps across its items
(a bank read once, a stream's position) lives in the generator's locals.
range(count) is dealt round-robin to w = min(count, usable_cores())
shares, share s holding s, s + w, s + 2 w, .... Share 0 runs in the
calling process; every other share runs in a child made by ``os.fork``,
which sends its results back pickled through a pipe and exits with
``os._exit``, so it never returns into the caller's stack. A child is a
copy of the caller, so run reads the caller's arrays and open files
without sending them; a file must then be read at explicit offsets
(os.preadv), since the processes share its position.

A fork copies only the calling thread, and a lock that another thread
held stays held in the child, so ``deal`` forks only where os.fork
exists and the process runs one OS thread (counted in /proc/self/task).
Otherwise one share, all of range(count), runs in process. The CLI pins
OpenBLAS to one thread before numpy loads, so its process has one
thread; a process that loaded OpenBLAS with more keeps its helper
threads, and stays in process.

The failure rule, kept here alone: an Exception at an index ends its
share, and once every child is reaped ``deal`` raises the one of the
lowest failing index, whichever share held it, so the one a single
process would have met first. A child's exception arrives pickled, with
its class, args and attributes (errors whose __init__ takes other
arguments rebuild through their __reduce__). A BaseException that is
not an Exception (KeyboardInterrupt) in the caller kills the children
at once; from a child it is raised, like the WorkerFailure of a child
that died without a reply (killed for memory, say), once every child is
reaped. An OSError of os.pipe or os.fork (EAGAIN, EMFILE) kills the
children already forked and is raised as a WorkerFailure. No child
outlives ``deal``.
"""

from __future__ import annotations

import os
import pickle
import signal

from .errors import WorkerFailure


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set, else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _one_thread() -> bool:
    """Whether this process runs exactly one OS thread; False where
    /proc/self/task cannot be read."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _run(run, share: range):
    """(the results of run(share), None), or (the results before the
    index that raised an Exception, (that index, the exception))."""
    results = []
    try:
        for result in run(share):
            results.append(result)
    except Exception as exc:
        return results, (share[len(results)], exc)
    return results, None


def _child(run, share: range, pipe: int):
    """Send _run's reply, or the BaseException that ended it, from a
    forked child and exit; status 1 if nothing could be sent."""
    status = 1
    try:
        try:
            reply = _run(run, share)
        except BaseException as exc:  # sent to the parent, which raises it
            reply = exc
        with os.fdopen(pipe, "wb") as out:
            pickle.dump(reply, out)
        status = 0
    finally:
        os._exit(status)


def _collect(pid: int, pipe: int):
    """The reply of child pid, read to the end of its pipe before the
    child is reaped, so a reply larger than the pipe cannot block it."""
    try:
        with os.fdopen(pipe, "rb") as reply:
            blob = reply.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not blob:
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise WorkerFailure(f"worker process {pid} ended without a reply "
                            f"({how})")
    sent = pickle.loads(blob)  # bytes our own child wrote
    if isinstance(sent, BaseException):
        raise sent
    return sent


def deal(count: int, run) -> list:
    """[f(i) for i in range(count)], where run(share) yields f(i) for
    each i of its share; see the module docstring."""
    forks = hasattr(os, "fork") and _one_thread()
    width = min(count, usable_cores() if forks else 1)
    shares = [range(s, count, width) for s in range(width)]
    children = []  # (pid, read end of its pipe)
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(run, share, write)  # exits, never returns
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            children.append((pid, read))
        replies = [_run(run, share) for share in shares[:1]]  # [] if no item
    except BaseException as exc:
        for pid, read in children:
            os.kill(pid, signal.SIGKILL)
            os.close(read)
            os.waitpid(pid, 0)
        if isinstance(exc, OSError):  # os.pipe or os.fork; _run keeps run's
            raise WorkerFailure(f"cannot start a worker process: {exc}") \
                from exc
        raise
    crash = None
    for pid, read in children:  # every child is reaped before a raise
        try:
            replies.append(_collect(pid, read))
        except BaseException as exc:
            crash = crash or exc
    if crash is not None:
        raise crash
    failures = [failure for _, failure in replies if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * count
    for s, (values, _) in enumerate(replies):
        results[s::width] = values
    return results
