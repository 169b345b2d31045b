"""Work dealt to forked worker processes, and the cores they may use.

``deal(count, score)`` splits range(count) round-robin into
min(count, usable_cores()) shares and returns [score(share) for each
share], in share order. Share 0 runs in the calling process; every other
share runs in a child made by ``os.fork``, which sends score's result
back pickled through a pipe and exits with ``os._exit``, so it never
returns into the caller's stack. A child is a copy of the caller, so
score reads the caller's arrays and open files without sending them;
a file must then be read at explicit offsets (os.preadv), since the
processes share its position.

A fork copies only the calling thread, and a lock that another thread
held stays held in the child, so ``deal`` forks only where os.fork
exists and the process runs one OS thread (counted in /proc/self/task).
Otherwise one share, all of range(count), runs in process. The CLI pins
OpenBLAS to one thread before numpy loads, so its process has one
thread; a process that loaded OpenBLAS with more keeps its helper
threads, and stays in process.

An exception in a child reaches the caller pickled, so with its class,
args and attributes (the errors whose __init__ takes other arguments
rebuild through their own __reduce__), raised after every child has
been reaped. The caller's own exception kills the children first. No
child outlives ``deal``.
"""

from __future__ import annotations

import os
import pickle
import signal


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


def _child(score, share, pipe: int):
    """Run score(share) in a forked child, send ("ok", result) or
    ("error", exception) and exit; status 1 if nothing could be sent."""
    status = 1
    try:
        try:
            reply = ("ok", score(share))
        except BaseException as exc:  # sent to the parent, which raises it
            reply = ("error", exc)
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
    if os.waitstatus_to_exitcode(status) != 0 or not blob:
        raise RuntimeError(f"worker process {pid} failed with wait status "
                           f"{status}")
    kind, payload = pickle.loads(blob)  # bytes our own child wrote
    if kind == "error":
        raise payload
    return payload


def deal(count: int, score) -> list:
    """[score(share) for share in the shares of range(count)], each
    share a list of indices, share s holding s, s + w, s + 2 w, ... of
    w = min(count, usable_cores()) shares where this process may fork,
    else one share of all; see the module docstring."""
    width = min(count, usable_cores()) \
        if hasattr(os, "fork") and _one_thread() else 1
    shares = [list(range(s, count, width)) for s in range(width)]
    children = []  # (pid, read end of its pipe)
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(score, share, write)  # exits, never returns
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            children.append((pid, read))
        first = score(shares[0])
    except BaseException:
        for pid, read in children:
            os.kill(pid, signal.SIGKILL)
            os.close(read)
            os.waitpid(pid, 0)
        raise
    results, failure = [first], None
    for pid, read in children:  # every child is reaped before a raise
        try:
            results.append(_collect(pid, read))
        except BaseException as exc:
            failure = failure or exc
    if failure is not None:
        raise failure
    return results
