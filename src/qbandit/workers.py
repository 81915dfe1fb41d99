"""Forked worker processes that send their results back down pipes.

processes(parts) decides how many processes a job of that many independent
parts takes, for tables and the Monte Carlo alike: min(parts, cpus()), and
one part never counts the CPUs, so it runs in the calling process alone.

A worker runs work(*args) in an os.fork child.  Each bytes object the work
yields reaches the parent as one frame: an 8-byte little-endian length, then
the bytes.  An exception the work raises goes as its pickle, in a frame whose
length is negated.  The child leaves with os._exit, so it never runs an
atexit handler, flushes a buffer it inherited or returns into the caller's
stack.  signal is imported only on the failure path, so a run that does not
fail never pays for importing it; pickle is already loaded by numpy.
"""

from __future__ import annotations

import os
import pickle
from typing import BinaryIO, Callable, Iterable

_HEADER = 8


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


def _frame(length: int) -> bytes:
    return length.to_bytes(_HEADER, "little", signed=True)


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
            if exc_type is not None:
                import signal
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def start(self, work: Callable[..., Iterable[bytes]], *args) -> None:
        """Run work(*args) in a new worker, whose frames receive() reads."""
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
                    for payload in work(*args):
                        pipe.write(_frame(len(payload)))
                        pipe.write(payload)
                        pipe.flush()
                except BaseException as exc:
                    payload = pickle.dumps(exc)
                    pipe.write(_frame(-len(payload)) + payload)
        finally:
            # no atexit handler, no inherited buffer flush, no caller frame
            os._exit(0)

    def receive(self, worker: int) -> bytes:
        """The next frame of that worker; raise what it raised, or
        ChildProcessError when it ended without sending one."""
        pipe = self._workers[worker][1]
        header = pipe.read(_HEADER)
        if len(header) < _HEADER:
            raise ChildProcessError("a forked worker ended without a result")
        length = int.from_bytes(header, "little", signed=True)
        payload = pipe.read(abs(length))
        if len(payload) < abs(length):
            raise ChildProcessError("a forked worker ended partway through a result")
        if length < 0:
            raise pickle.loads(payload)
        return payload
