"""Trace acquisition harness: device -> leakage model -> oscilloscope.

``TraceAcquisition`` is the reproduction's measurement bench.  One
:meth:`~TraceAcquisition.capture` call corresponds to arming the scope
and triggering one execution of the sampling kernel; the returned
:class:`CapturedTrace` carries the measured trace plus ground truth
(the sampled values) that the *evaluation* uses to score the attack —
the attack itself only ever sees ``trace``.

Batch acquisition (:meth:`~TraceAcquisition.capture_batch` and
:meth:`~TraceAcquisition.capture_segmented_batch`) draws each trace's
measurement noise from the counter-based ``(batch entropy, device
seed)``-keyed stream of :mod:`repro.power.noise` (noise stream v2),
never from the bench's shared sequential stream.  That makes every
trace's noise a pure function of its seed, so
``capture_segmented_batch``'s grains, run on the package's grain
executor (:func:`repro.utils.pool.run_grains`), are **bit-identical**
at any worker count.  Every engine shares one per-trace path,
``_capture_one`` (and ``_segment_one`` for worker-side segmentation).
The pre-stream-v1 sequential-generator contract survives as
:meth:`~TraceAcquisition.capture_reference`, pinned against v2 by the
``power.noise_v2`` oracle.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from repro.backends import get_kernel
from repro.errors import ParameterError, TraceValidationError
from repro.power.leakage import LeakageModel
from repro.power.scope import Oscilloscope
from repro.power.trace import Trace
from repro.riscv.device import GaussianSamplerDevice, resolve_engine
from repro.utils.pool import DEFAULT_GRAIN, run_grains
from repro.utils.rng import new_rng


@dataclass
class CapturedTrace:
    """One armed-and-triggered measurement."""

    trace: Trace
    values: List[int]  # ground-truth sampled coefficients
    seed: int
    cycle_count: int
    event_starts: Optional[np.ndarray] = field(repr=False, default=None)

    def __post_init__(self) -> None:
        # Fail at the bench, not as a numpy warning three stages later
        # inside segmentation or template fitting (a native kernel, where
        # one builds, makes the check one vectorized pass).
        samples = self.trace.samples
        if samples.size == 0:
            raise TraceValidationError(
                f"captured trace for seed {self.seed} is empty"
            )
        finite = get_kernel("all_finite")
        if not (finite(samples) if finite else np.isfinite(samples).all()):
            bad = int(np.count_nonzero(~np.isfinite(samples)))
            raise TraceValidationError(
                f"captured trace for seed {self.seed} contains {bad} "
                f"non-finite sample(s)"
            )


@dataclass
class SegmentedCapture:
    """Worker-side segmentation result: aligned slices, no raw trace.

    A full multi-coefficient trace is hundreds of thousands of samples
    plus an event-start array of comparable size; the aligned slices
    the profiling/attack stages actually consume are a few KB.  Moving
    segmentation into the pool workers makes the batch-capture payload
    the slices, cutting inter-process pickle traffic by more than an
    order of magnitude.

    ``slices`` is an ``(n_coefficients, slice_length)`` float64 matrix
    (bit-identical to what the serial segment-in-parent path produces),
    or ``None`` when segmentation failed (``error`` holds the reason).
    """

    slices: Optional[np.ndarray]
    values: List[int]  # ground-truth sampled coefficients
    seed: int
    cycle_count: int
    error: Optional[str] = None

    def __post_init__(self) -> None:
        # ``slices is None`` is the explicit failure path (``error``
        # says why); a zero-*row* matrix just means no aligned windows.
        # Zero-length or non-finite slices would silently poison the
        # streaming moment accumulators downstream.
        if self.slices is None:
            return
        if self.slices.ndim != 2 or self.slices.shape[1] == 0:
            raise TraceValidationError(
                f"segmented capture for seed {self.seed} has unusable "
                f"slice shape {self.slices.shape}"
            )
        if not np.isfinite(self.slices).all():
            bad = int(np.count_nonzero(~np.isfinite(self.slices)))
            raise TraceValidationError(
                f"segmented capture for seed {self.seed} contains {bad} "
                f"non-finite sample(s)"
            )

    @property
    def ok(self) -> bool:
        return self.slices is not None


def _noise_rng(batch_entropy: int, seed: int) -> np.random.Generator:
    """The *v1* per-trace noise generator (sequential, trace-at-a-time).

    Retained for :meth:`TraceAcquisition.capture_reference`: the
    ``power.noise_v2`` oracle compares stream v2 against traces noised
    from this generator to pin the statistical contract."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(int(batch_entropy), int(seed)))
    )


def _capture_one(
    device: GaussianSamplerDevice,
    leakage: LeakageModel,
    scope: Oscilloscope,
    seed: int,
    count: int,
    batch_entropy: int,
    engine: str,
) -> CapturedTrace:
    """One batch capture; shared by the serial path and pool workers."""
    run = device.run(seed, count=count, record_events=True, engine=engine)
    noiseless, starts = leakage.expand(run.events)
    measured = scope.capture_keyed(noiseless, batch_entropy, seed, out=noiseless)
    return CapturedTrace(
        trace=Trace(measured, metadata={"seed": seed, "count": count}),
        values=run.values,
        seed=seed,
        cycle_count=run.cycle_count,
        event_starts=starts,
    )


def _segment_one(
    device: GaussianSamplerDevice,
    leakage: LeakageModel,
    scope: Oscilloscope,
    segmenter,
    refiner,
    seed: int,
    count: int,
    batch_entropy: int,
    engine: str,
) -> SegmentedCapture:
    """Capture one trace and segment it in place (worker-side path)."""
    from repro.errors import AttackError

    captured = _capture_one(
        device, leakage, scope, seed, count, batch_entropy, engine=engine
    )
    try:
        aligned = segmenter.aligned_slices(captured.trace.samples, refiner=refiner)
    except AttackError as exc:
        return SegmentedCapture(
            slices=None,
            values=captured.values,
            seed=captured.seed,
            cycle_count=captured.cycle_count,
            error=str(exc),
        )
    return SegmentedCapture(
        slices=aligned,
        values=captured.values,
        seed=captured.seed,
        cycle_count=captured.cycle_count,
    )


def _segment_grain(
    parts: tuple, lo: int, hi: int, count: int, batch_entropy: int, engine: str
) -> List[SegmentedCapture]:
    """One executor grain: capture and segment seeds ``[lo, hi)``."""
    return [
        _segment_one(*parts, seed, count, batch_entropy, engine)
        for seed in range(lo, hi)
    ]


class TraceAcquisition:
    """Binds a device, a leakage model and a scope into a capture bench.

    Parameters
    ----------
    device:
        The simulated PicoRV32 running the Gaussian kernel.
    leakage:
        CMOS leakage weights; defaults are calibrated for the paper's
        accuracy regime.
    scope:
        Acquisition front end (noise etc.).
    rng:
        Seed/generator for measurement noise (independent of the
        device's PRNG).  An integer seed also fixes the batch noise
        entropy, making :meth:`capture_batch` output reproducible
        across bench instances and worker counts.
    engine:
        Default execution engine for this bench's captures
        (``"interpreter"``/``"threaded"``/``"compiled"``);
        ``None`` defers to ``REVEAL_ENGINE``, then ``"compiled"``,
        threaded without a C toolchain.  Batch methods can override it
        per call; ``"compiled"`` falls back to ``"threaded"`` where no C
        toolchain exists.
    """

    def __init__(
        self,
        device: GaussianSamplerDevice,
        leakage: Optional[LeakageModel] = None,
        scope: Optional[Oscilloscope] = None,
        rng=None,
        engine: Optional[str] = None,
    ) -> None:
        self.device = device
        self.leakage = leakage if leakage is not None else LeakageModel()
        self.scope = scope if scope is not None else Oscilloscope()
        self.engine = engine
        self._rng = new_rng(rng)
        # Integer seeds pin the batch entropy immediately; a fresh
        # bench-private stream (rng=None) can still derive it lazily on
        # first batch use.  An externally-advanced Generator can do
        # neither — its position is caller-owned state, so an entropy
        # drawn from it mid-batch would be irreproducible; batch_entropy()
        # refuses instead of silently consuming the shared stream.
        self._batch_entropy: Optional[int] = (
            int(rng) if isinstance(rng, (int, np.integer)) else None
        )
        self._rng_external = isinstance(rng, np.random.Generator)

    # ------------------------------------------------------------------
    def capture(self, seed: int, count: int) -> CapturedTrace:
        """Run the kernel for ``count`` coefficients and measure it.

        Noise comes from the bench's sequential stream, so back-to-back
        captures draw different noise; use :meth:`capture_batch` when
        per-seed reproducibility matters.
        """
        run = self.device.run(
            seed, count=count, record_events=True, engine=self.engine
        )
        noiseless, starts = self.leakage.expand(run.events)
        measured = self.scope.capture(noiseless, rng=self._rng, out=noiseless)
        return CapturedTrace(
            trace=Trace(measured, metadata={"seed": seed, "count": count}),
            values=run.values,
            seed=seed,
            cycle_count=run.cycle_count,
            event_starts=starts,
        )

    # ------------------------------------------------------------------
    def batch_entropy(self) -> int:
        """The entropy that keys per-trace noise streams in batches.

        Raises
        ------
        ParameterError
            If the bench was constructed with an externally-advanced
            ``Generator``: its stream position is caller state, so no
            reproducible batch entropy can be pinned from it.  Pass an
            integer seed (pins the entropy up front) or ``rng=None``
            (a bench-private stream) for batch captures.
        """
        if self._batch_entropy is None:
            if self._rng_external:
                raise ParameterError(
                    "cannot pin a batch noise entropy from an "
                    "externally-advanced Generator; construct the "
                    "TraceAcquisition with an integer rng seed (or None) "
                    "for batch captures"
                )
            self._batch_entropy = int(self._rng.integers(0, 2**63 - 1))
        return self._batch_entropy

    def capture_reference(
        self,
        trace_count: int,
        coeffs_per_trace: int = 1,
        first_seed: int = 1,
        engine: Optional[str] = None,
    ) -> List[CapturedTrace]:
        """The retained noise-stream-v1 batch path (serial, per trace).

        Bit-identical to what ``capture_batch`` produced before the
        stream-v2 migration: each trace's noise comes sequentially from
        ``default_rng(SeedSequence((batch entropy, seed)))``.  This is
        the reference side of the ``power.noise_v2`` oracle, which pins
        v2's statistical contract (same marginal distribution, same
        determinism guarantees) against this path.
        """
        entropy = self.batch_entropy()
        engine = resolve_engine(engine if engine is not None else self.engine)
        captures: List[CapturedTrace] = []
        for i in range(trace_count):
            seed = first_seed + i
            run = self.device.run(
                seed, count=coeffs_per_trace, record_events=True, engine=engine
            )
            noiseless, starts = self.leakage.expand(run.events)
            measured = self.scope.capture(
                noiseless, rng=_noise_rng(entropy, seed), out=noiseless
            )
            captures.append(
                CapturedTrace(
                    trace=Trace(
                        measured,
                        metadata={"seed": seed, "count": coeffs_per_trace},
                    ),
                    values=run.values,
                    seed=seed,
                    cycle_count=run.cycle_count,
                    event_starts=starts,
                )
            )
        return captures

    def capture_batch(
        self,
        trace_count: int,
        coeffs_per_trace: int = 1,
        first_seed: int = 1,
        engine: Optional[str] = None,
    ) -> List[CapturedTrace]:
        """Capture ``trace_count`` runs with consecutive device seeds.

        Each trace's noise is keyed by ``(batch entropy, device seed)``,
        so a seed's trace is the same in any batch, at any position, and
        in :meth:`capture_segmented_batch` at any worker count.
        """
        entropy = self.batch_entropy()
        engine = resolve_engine(engine if engine is not None else self.engine)
        bench = (self.device, self.leakage, self.scope)
        return [
            _capture_one(*bench, first_seed + i, coeffs_per_trace, entropy, engine)
            for i in range(trace_count)
        ]

    def capture_segmented_batch(
        self,
        trace_count: int,
        coeffs_per_trace: int = 1,
        first_seed: int = 1,
        workers: Optional[int] = None,
        segmenter=None,
        refiner=None,
        engine: Optional[str] = None,
    ) -> Iterator[SegmentedCapture]:
        """Capture and segment in the workers; yield only aligned slices.

        The campaign-scale acquisition path: grains of consecutive seeds
        run ``capture -> segment -> slice extraction`` on the grain
        executor and ship back :class:`SegmentedCapture` records — an
        ``(n_coeffs, slice_length)`` slice matrix plus labels, a few KB —
        instead of the full multi-hundred-k-sample traces.  Slices are
        bit-identical to segmenting the same capture in the parent; a
        reorder buffer yields them in seed order, so the caller can
        accumulate streaming statistics as they arrive.

        ``segmenter`` is required (an :class:`~repro.attack.segmentation.
        Segmenter`); ``refiner`` is the optional anchor refiner learned
        during profiling pass 1.
        """
        if segmenter is None:
            raise ValueError("capture_segmented_batch requires a segmenter")
        entropy = self.batch_entropy()
        engine = resolve_engine(engine if engine is not None else self.engine)
        end = first_seed + trace_count
        grains = [
            (lo, min(lo + DEFAULT_GRAIN, end))
            for lo in range(first_seed, end, DEFAULT_GRAIN)
        ]
        parts = (self.device, self.leakage, self.scope, segmenter, refiner)
        args = (coeffs_per_trace, entropy, engine)
        results = run_grains(_segment_grain, parts, grains, workers or 1, args)
        early = {}  # grains that completed ahead of seed order, by lo
        with closing(results):
            for (lo, _), batch in results:
                early[lo] = batch
                while first_seed in early:
                    batch = early.pop(first_seed)
                    first_seed += len(batch)
                    yield from batch
