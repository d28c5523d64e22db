"""The package's one process-pool factory.

Both parallel paths — the batch-capture pool behind profiling
(:mod:`repro.power.capture`) and the campaign orchestrator
(:mod:`repro.attack.orchestrator`) — create their workers here, so the
start-method decision lives in one place.  Workers fork where the
platform offers it: the parent's profiled attack, bench and warm
translation caches then reach them by copy-on-write instead of by
pickle.  Elsewhere they spawn and receive the initializer arguments
pickled.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Tuple


def process_pool(
    workers: int, initializer: Callable, initargs: Tuple
) -> ProcessPoolExecutor:
    """A pool of ``workers`` processes, each set up once by
    ``initializer(*initargs)``."""
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=initializer,
        initargs=initargs,
    )
