"""Crash isolation: run a callable over items, one forked child per item.

Parallel sweeps and the job service share this one policy.  A child that
dies without replying (OOM kill, segfault) is charged to its own item
only: the item is retried once in a fresh child, and a second death raises
:class:`WorkerCrashError`.  An exception raised by *fn*, or a result that
cannot be pickled, is re-raised in the parent with the child's frames as
its ``__cause__``.  An item whose child cannot be started runs in-process.
Children are forked, like the shard transport's, so only replies pickle.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait

#: Held until the parent has closed a new child's end of its pipe, so no
#: child another thread forks meanwhile can hold that end open and hide a death.
_START_LOCK = threading.Lock()


class WorkerCrashError(RuntimeError):
    """The child process running one item died twice without replying."""


class ChildTraceback(Exception):
    """The ``__cause__`` of an exception re-raised from a child: ``frames``
    are the child's, innermost (where it was raised) last."""

    def __init__(self, frames: traceback.StackSummary) -> None:
        super().__init__("\n" + "".join(frames.format()))
        self.frames = frames


@dataclass
class IsolationStats:
    """What :func:`run_isolated` did besides running items in children."""

    retried: int = 0  #: items restarted after their own child died
    in_process: int = 0  #: items run in-process: no child could be started


def _child_main(fn, item, conn) -> None:
    _START_LOCK.release()  # forked while the parent held it
    try:
        conn.send((True, fn(item)))
    except Exception as exc:  # fn raised, or its result does not pickle
        frames = traceback.extract_tb(exc.__traceback__)
        try:
            conn.send((False, (exc, frames)))
        except Exception:  # nor does the exception: send its text
            conn.send((False, (RuntimeError(f"{type(exc).__name__}: {exc}"), frames)))


def _start(fn, item):
    """Fork a child running ``fn(item)``; returns (parent's pipe end, process)."""
    ctx = mp.get_context("fork")
    with _START_LOCK:
        conn, child_end = ctx.Pipe()
        proc = ctx.Process(target=_child_main, args=(fn, item, child_end))
        try:
            proc.start()
        finally:
            child_end.close()
    return conn, proc


def _reap(conn, proc) -> None:
    conn.close()
    proc.terminate()  # a no-op once it has exited
    proc.join()


def run_isolated(fn, items, workers: int, stats: IsolationStats):
    """Yield ``(index, fn(item))`` for each item, in completion order, each
    computed in its own forked child with at most *workers* alive at once;
    *stats* counts retries and in-process runs.

    Every child is reaped, or terminated and reaped, before the generator
    returns, raises or is closed.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    pending = deque(enumerate(items))
    died: set[int] = set()
    live = {}  # parent's pipe end -> (index, item, process)
    try:
        while pending or live:
            while pending and len(live) < workers:
                index, item = pending.popleft()
                try:
                    conn, proc = _start(fn, item)
                except (OSError, NotImplementedError):  # PermissionError too
                    stats.in_process += 1
                    yield index, fn(item)
                    continue
                live[conn] = (index, item, proc)
            if not live:
                continue
            ends = {w: c for c, (_, _, p) in live.items() for w in (c, p.sentinel)}
            for conn in dict.fromkeys(ends[w] for w in wait(list(ends))):
                index, item, proc = live.pop(conn)
                try:
                    reply = conn.recv() if conn.poll() else None
                except (EOFError, OSError):  # it died mid-reply
                    reply = None
                _reap(conn, proc)
                if reply is None and index in died:
                    raise WorkerCrashError(
                        f"the child running item {index} died twice without replying"
                    )
                if reply is None:
                    died.add(index)
                    stats.retried += 1
                    pending.appendleft((index, item))
                elif reply[0]:
                    yield index, reply[1]
                else:
                    exc, frames = reply[1]
                    raise exc from ChildTraceback(frames)
    finally:
        for conn, (_, _, proc) in live.items():
            _reap(conn, proc)
