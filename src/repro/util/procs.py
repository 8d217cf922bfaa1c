"""Hygiene for long-lived forked worker processes.

Engine pool workers (:class:`repro.experiments.engine.WorkerPool`) and
fleet replicas (:mod:`repro.service.fleet`) are forked from a parent
that may be serving HTTP, and they can outlive the call that forked
them. Three hazards follow, and this module holds the one remedy for
each:

* a forked child keeps duplicates of every socket its parent had open,
  so a client connection the parent closes is never finished (see
  :func:`close_inherited_sockets`);
* an idle child blocked on its task queue never notices that its parent
  died, because it holds the queue's write end itself (see
  :func:`exit_when_orphaned`);
* a child that lives for many tasks would sit at its largest task's
  allocator high-water mark, however little it keeps between tasks
  (see :func:`trim_heap`).
"""

from __future__ import annotations

import ctypes
import os
import signal
import stat
import threading
import time

#: How often an orphan watch compares the parent pid, in seconds.
ORPHAN_CHECK_S = 1.0


def close_inherited_sockets() -> None:
    """Close every socket FD this forked process inherited.

    A child forked while the parent holds live connections keeps
    duplicates of them. The parent closing its copy of a client socket
    then does nothing: TCP only sends FIN once the last duplicate
    closes, so a long-lived child would hold every in-flight HTTP
    response open. Workers and replicas need no inherited socket (their
    queues are pipes), so close them all.

    A parent running an asyncio loop with signal handlers made one of
    those sockets its signal wakeup fd. Call this from the main thread,
    so that the wakeup fd is dropped first and no signal ever writes to
    a file that reuses its number.
    """
    signal.set_wakeup_fd(-1)
    try:
        fds = [int(fd) for fd in os.listdir("/proc/self/fd")]
    except OSError:
        return  # no /proc (non-Linux)
    for fd in fds:
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def exit_when_orphaned(parent_pid: int) -> None:
    """Start a daemon thread that ends this process, about once a
    second after it happens, when its parent is no longer
    ``parent_pid`` (the parent died and the child was re-parented)."""
    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(ORPHAN_CHECK_S)
        os._exit(1)

    threading.Thread(target=watch, name="orphan-watch", daemon=True).start()


def trim_heap() -> None:
    """Hand freed heap pages back to the OS (glibc ``malloc_trim``; a
    no-op elsewhere). Call it when a task is done, so an idle worker or
    replica holds what it keeps, not the peak of what it ran."""
    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return  # not glibc
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)
