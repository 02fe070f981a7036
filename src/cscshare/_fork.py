"""A forked child that computes bytes while this process goes on.

``Child(fn, *args)`` forks a child that runs ``fn(*args)`` and writes the
bytes it returns into a pipe; ``result()`` reads them here and reaps the
child. The child ends in ``os._exit`` however ``fn`` ends, so it never
returns into the caller's stack, never flushes a buffer it inherited, and
an error in it is only a missing result, which the caller answers by
doing the work itself. Where ``cores()`` is 1, or the fork fails, there
is no child and no result. Leaving a ``with Child(...)`` block kills and
reaps a child still running.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
from typing import Callable


def cores() -> int:
    """The cores this process may run on, or 1 where a forked child is not
    safe: another thread running (the child may copy a lock it holds), or
    no ``os.fork``."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class Child:
    def __init__(self, fn: Callable[..., bytes | None], *args):
        self._pid = self._pipe = None
        if cores() < 2:
            return
        pipe, sink = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(pipe)
            os.close(sink)
            return
        if pid:
            os.close(sink)
            self._pid, self._pipe = pid, pipe
            return
        status = 1
        try:
            gc.disable()  # a collection would write to, and copy, the pages it shares
            os.close(pipe)
            with open(sink, "wb") as stream:
                stream.write(fn(*args) or b"")
            status = 0
        finally:
            os._exit(status)

    def __enter__(self) -> Child:
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pipe is not None:
            os.close(self._pipe)
            self._pipe = None
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None

    def result(self) -> bytes | None:
        """The bytes the child sent, once it has exited with status 0;
        None if there is no child, or it sent nothing or failed."""
        if self._pid is None:
            return None
        with open(self._pipe, "rb") as stream:
            self._pipe = None
            sent = stream.read()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        return sent if sent and status == 0 else None
