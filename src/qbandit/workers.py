"""Forked worker processes that send their results back down pipes.

processes(parts) decides how many processes a job of that many independent
parts takes, for tables and the Monte Carlo alike: min(parts, cpus()), and
one part never counts the CPUs, so it runs in the calling process alone.

A worker runs work(*args) in an os.fork child.  Each value the work yields
goes down the worker's pipe as the pickle of (value, None), and receive()
returns the values in the order they were yielded.  An exception the work
raises goes as the pickle of (None, exc), and receive() raises it.  A worker
that ends before or partway through a pickle makes receive() raise
ChildProcessError.  The child leaves with os._exit, so it never runs an
atexit handler, flushes a buffer it inherited or returns into the caller's
stack.  signal is imported only on the failure path, so a run that does not
fail never pays for importing it; pickle is already loaded by numpy.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, BinaryIO, Callable, Iterable


def cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def processes(parts: int) -> int:
    """Processes for a job of that many parts: min(parts, cpus()), and 1,
    without counting the CPUs, for at most one part."""
    return min(parts, cpus()) if parts > 1 else 1


class Forked:
    """The workers forked inside one with block, numbered in start order.

    Leaving the block closes every pipe and reaps every worker; leaving it
    by an exception kills the workers first, so none outlives a failure.
    """

    def __init__(self) -> None:
        self._workers: list[tuple[int, BinaryIO]] = []

    def __enter__(self) -> Forked:
        return self

    def __exit__(self, exc_type, *_) -> None:
        for pid, pipe in self._workers:
            pipe.close()
            try:
                if exc_type is not None:
                    import signal
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                # SIGCHLD ignored, which exec passes on, has the kernel reap
                # each worker as it ends
                pass

    def start(self, work: Callable[..., Iterable[Any]], *args) -> None:
        """Run work(*args) in a new worker, whose values receive() returns."""
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if pid:
            os.close(write)
            self._workers.append((pid, os.fdopen(read, "rb")))
            return
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                try:
                    for value in work(*args):
                        pickle.dump((value, None), pipe)
                        pipe.flush()
                except BaseException as exc:
                    pickle.dump((None, exc), pipe)
        finally:
            # no atexit handler, no inherited buffer flush, no caller frame
            os._exit(0)

    def receive(self, worker: int) -> Any:
        """The next value that worker yielded; raise what it raised, or
        ChildProcessError when it ended before or partway through a value."""
        try:
            value, exc = pickle.load(self._workers[worker][1])
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError("a forked worker ended without a result") from None
        if exc is not None:
            raise exc
        return value
