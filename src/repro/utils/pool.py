"""The package's one process-pool factory and its one grain executor.

:func:`run_grains` runs every ``(lo, hi)`` seed grain the package
spreads over processes: the campaign's attack grains
(:mod:`repro.attack.orchestrator`) and pooled profiling's
capture-and-segment grains (:mod:`repro.power.capture`).  A dead worker
breaks the pool; the executor forks a fresh one for the grains whose
results have not arrived.  Any other grain failure, and a pool that
breaks twice without progress, is an :class:`~repro.errors.AttackError`.

Workers fork where the platform offers it: the parent's profiled
attack, bench and warm translation caches then reach them by
copy-on-write instead of by pickle.  Elsewhere they spawn and receive
the initializer arguments pickled.

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
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple

from repro.errors import AttackError

Grain = Tuple[int, int]

#: Seeds per grain unless the caller chooses.
DEFAULT_GRAIN = 32

#: Seconds between two parent-liveness checks in a worker.
_PARENT_POLL_S = 1.0

#: This worker's payload, set once by the pool initializer.
_PAYLOAD: Any = None


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


def _receive(payload: Any) -> None:
    global _PAYLOAD
    _PAYLOAD = payload


def _pooled(task: Callable, lo: int, hi: int, args: Tuple) -> Any:
    return task(_PAYLOAD, lo, hi, *args)


def _grain_failed(lo: int, hi: int, error: BaseException) -> AttackError:
    return AttackError(
        f"seeds [{lo}, {hi}) failed: {type(error).__name__}: {error}"
    )


def run_grains(
    task: Callable,
    payload: Any,
    grains: Iterable[Grain],
    workers: int,
    args: Tuple = (),
    on_break: Optional[Callable[[], None]] = None,
) -> Iterator[Tuple[Grain, Any]]:
    """Run ``task(payload, lo, hi, *args)`` for every grain ``(lo, hi)``
    and yield ``((lo, hi), result)`` as each one completes.

    At ``workers <= 1`` the grains run in order in this thread.  Above
    that ``task`` (a module-level function) runs on a pool of at most
    ``workers`` processes, each handed ``payload`` once; after a worker
    death ``on_break()`` is called and a fresh pool reruns the grains
    not yet yielded.  The pool is shut down, its queued grains
    cancelled, on every exit, a ``close()`` by the caller included.
    """
    if workers <= 1:
        for lo, hi in grains:
            try:
                result = task(payload, lo, hi, *args)
            except Exception as error:
                raise _grain_failed(lo, hi, error) from error
            yield (lo, hi), result
        return
    pending = dict.fromkeys(grains)  # insertion-ordered set
    left_at_break: Optional[int] = None
    while pending:
        broke = False
        pool = process_pool(min(workers, len(pending)), _receive, (payload,))
        try:
            futures = {}
            for grain in pending:
                try:
                    future = pool.submit(_pooled, task, *grain, args)
                except BrokenProcessPool:  # a worker died during submission
                    broke = True
                    break
                futures[future] = grain
            for future in as_completed(futures):
                error = future.exception()
                if isinstance(error, BrokenProcessPool):
                    broke = True
                elif error is not None:
                    raise _grain_failed(*futures[future], error) from error
                else:
                    del pending[futures[future]]
                    yield futures[future], future.result()
        finally:
            # The pool's own __exit__ would run every queued grain of a
            # failed or abandoned batch to the end.
            pool.shutdown(wait=True, cancel_futures=True)
        if broke:
            if on_break is not None:
                on_break()
            if left_at_break == len(pending):
                raise AttackError(
                    "the worker pool broke twice without completing a grain; "
                    "a grain may be killing its worker"
                )
            left_at_break = len(pending)
