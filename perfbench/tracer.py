"""Layer spans and counters for the benchmark's traced runs.

The program itself carries no tracing, so the benchmark times each
layer from outside: :class:`Recorder.instrument` swaps timing shims in
for the layers' public entry points (class attributes and module
functions) and puts the originals back on exit.  A span's *self time*
is its duration minus the time its child spans cover, so nested layers
(``profile.fold`` running inside the executor's segmented batch, say)
are never counted twice.

Forked workers (the profiling pool in :mod:`repro.power.capture` and the
orchestrator fleet) inherit the shims.  Each worker starts an empty
record and writes it to ``out_dir`` as ``<pid>.json`` when the worker
process exits normally; :meth:`Recorder.collect_workers` folds those
files back in the parent.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import time
from multiprocessing import util as mp_util
from typing import Callable, Dict, List, Optional, Tuple

#: Spans that bracket a whole phase.  Their self time is the glue the
#: layers do not cover, i.e. the unattributed remainder.
ENVELOPES = ("phase.profile", "phase.attack")


def _device_counts(rec: "Recorder", args, result) -> None:
    rec.count("riscv.instructions", result.instruction_count)
    rec.count("riscv.cycles", result.cycle_count)
    rec.count("riscv.coeffs", len(result.values))


def _expand_counts(rec: "Recorder", args, result) -> None:
    rec.count("leakage.samples", result[0].size)


def _scope_counts(rec: "Recorder", args, result) -> None:
    rec.count("scope.samples", result.size)


def _segment_counts(rec: "Recorder", args, result) -> None:
    rec.count("segment.coeffs", len(result))


def _classify_counts(rec: "Recorder", args, result) -> None:
    rec.count("classify.coeffs", len(result))


class Recorder:
    """Process-local span/counter store with fork-safe worker export."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        #: Which campaign phase the process is in; workers inherit it.
        self.phase = "setup"
        self.reset()
        mp_util.register_after_fork(self, Recorder._after_fork)

    def reset(self) -> None:
        #: (phase, layer) -> [self seconds, total seconds, calls]
        self.layers: Dict[Tuple[str, str], List[float]] = {}
        #: (phase, counter) -> count
        self.counts: Dict[Tuple[str, str], int] = {}
        #: Open spans: [name, start, seconds covered by children].
        self.stack: List[list] = []
        #: Per attack trace: seconds from its emulation start to the end
        #: of its classification (the capture→segment→classify chain).
        self.chains: List[float] = []
        self._chain_start: Optional[float] = None
        #: [start, end] of every executor call made by this process.
        self.executor_calls: List[List[float]] = []
        #: [start, end, first emulation start or None] per phase envelope.
        self.envelopes: List[list] = []
        self.first_start: Optional[float] = None
        #: Seconds covered by this process's outermost spans.
        self.busy = 0.0

    # -- spans -----------------------------------------------------------
    def enter(self, name: str) -> None:
        now = time.perf_counter()
        if self.first_start is None:
            self.first_start = now
        if name in ENVELOPES:
            self.envelopes.append([now, None, None])
        elif name == "riscv":
            if self.envelopes and self.envelopes[-1][2] is None:
                self.envelopes[-1][2] = now
            if self.phase == "attack":
                self._chain_start = now
        self.stack.append([name, now, 0.0])

    def leave(self, failed: bool = False) -> None:
        end = time.perf_counter()
        name, start, covered = self.stack.pop()
        duration = end - start
        entry = self.layers.setdefault((self.phase, name), [0.0, 0.0, 0])
        entry[0] += duration - covered
        entry[1] += duration
        entry[2] += 1
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.busy += duration
        if name == "executor":
            self.executor_calls.append([start, end])
        elif name in ENVELOPES:
            self.envelopes[-1][1] = end
        closes_chain = name == "classify" or (name == "segment" and failed)
        if closes_chain and self._chain_start is not None:
            self.chains.append(end - self._chain_start)
            self._chain_start = None

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    def count(self, name: str, value: int) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + int(value)

    # -- shims -----------------------------------------------------------
    def _shim(self, name: str, fn: Callable, counts: Optional[Callable]):
        recorder = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_shim(*args, **kwargs):
                inner = fn(*args, **kwargs)
                recorder.enter(name)
                try:
                    yield from inner
                finally:
                    recorder.leave()

            return generator_shim

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            recorder.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.leave(failed=True)
                if name == "segment":
                    recorder.count("segment.failures", 1)
                raise
            recorder.leave()
            if counts is not None:
                counts(recorder, args, result)
            return result

        return shim

    @contextlib.contextmanager
    def instrument(self):
        """Install the layer shims for the duration of the block."""
        from repro.attack import campaign, orchestrator, poi
        from repro.attack.branch import BranchClassifier
        from repro.attack.pipeline import SingleTraceAttack
        from repro.attack.segmentation import AnchorRefiner, Segmenter
        from repro.attack.template import MomentAccumulator, TemplateSet
        from repro.power.capture import TraceAcquisition
        from repro.power.leakage import LeakageModel
        from repro.power.scope import Oscilloscope
        from repro.riscv.device import GaussianSamplerDevice

        targets = [
            (GaussianSamplerDevice, "run", "riscv", _device_counts),
            (LeakageModel, "expand", "leakage", _expand_counts),
            (Oscilloscope, "capture", "scope", _scope_counts),
            (Oscilloscope, "capture_keyed", "scope", _scope_counts),
            (Segmenter, "aligned_slices", "segment", _segment_counts),
            (SingleTraceAttack, "attack_aligned", "classify", _classify_counts),
            (AnchorRefiner, "learn", "profile.refine", None),
            (MomentAccumulator, "add", "profile.fold", None),
            (MomentAccumulator, "moments", "profile.fold", None),
            (TemplateSet, "from_moments", "profile.build", None),
            (BranchClassifier, "from_moments", "profile.build", None),
            (campaign, "aggregate_outcomes", "aggregate", None),
            (orchestrator, "aggregate_outcomes", "aggregate", None),
            (TraceAcquisition, "capture_batch", "executor", None),
            (TraceAcquisition, "capture_segmented_batch", "executor", None),
        ]
        restore = []
        try:
            for owner, attr, name, counts in targets:
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    patched = classmethod(self._shim(name, raw.__func__, counts))
                else:
                    patched = self._shim(name, raw, counts)
                restore.append((owner, attr, raw))
                setattr(owner, attr, patched)
            for method, fn in list(poi.POI_METHODS_MOMENTS.items()):
                restore.append((poi.POI_METHODS_MOMENTS, method, fn))
                poi.POI_METHODS_MOMENTS[method] = self._shim(
                    "profile.build", fn, None
                )
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                if isinstance(owner, dict):
                    owner[attr] = raw
                else:
                    setattr(owner, attr, raw)

    # -- worker export ---------------------------------------------------
    def _after_fork(self) -> None:
        self.reset()
        mp_util.Finalize(self, self.flush, exitpriority=100)

    def snapshot(self) -> dict:
        return {
            "layers": [[p, n, *v] for (p, n), v in self.layers.items()],
            "counts": [[p, n, v] for (p, n), v in self.counts.items()],
            "chains": self.chains,
            "executor_calls": self.executor_calls,
            "envelopes": self.envelopes,
            "first_start": self.first_start,
            "busy": self.busy,
        }

    def flush(self) -> None:
        if self.first_start is None:
            return
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(path + ".tmp", path)

    def collect_workers(self) -> List[dict]:
        """Read and remove every worker record written so far."""
        records = []
        for entry in sorted(os.listdir(self.out_dir)):
            if not entry.endswith(".json"):
                continue
            path = os.path.join(self.out_dir, entry)
            with open(path) as handle:
                records.append(json.load(handle))
            os.remove(path)
        return records
