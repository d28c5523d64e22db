"""The package's one process-pool factory.

Both parallel paths — the batch-capture pool behind profiling
(:mod:`repro.power.capture`) and the campaign executor
(:func:`repro.attack.orchestrator.run_orchestrated`) — create their
workers here, so the start-method decision lives in one place.  Workers
fork where the platform offers it: the parent's profiled attack, bench
and warm translation caches then reach them by copy-on-write instead of
by pickle.  Elsewhere they spawn and receive the initializer arguments
pickled.

Every worker exits on its own once its parent dies: a daemon thread
polls ``os.getppid()`` about once a second, so a parent that is
SIGKILLed (and never shuts its pool down) leaves no idle orphans.
``prctl(PR_SET_PDEATHSIG)`` would not do: it fires when the forking
*thread* exits, not the process, and it exists only on Linux.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Tuple

#: Seconds between two parent-liveness checks in a worker.
_PARENT_POLL_S = 1.0


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _worker_start(parent: int, initializer: Callable, initargs: Tuple) -> None:
    threading.Thread(
        target=_exit_with_parent, args=(parent,), name="parent-watch", daemon=True
    ).start()
    initializer(*initargs)


def process_pool(
    workers: int, initializer: Callable, initargs: Tuple
) -> ProcessPoolExecutor:
    """A pool of ``workers`` processes, each set up once by
    ``initializer(*initargs)`` and gone within about a second of the
    calling process's death."""
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_worker_start,
        initargs=(os.getpid(), initializer, initargs),
    )
