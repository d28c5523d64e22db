"""The end-to-end single-trace attack (section III of the paper).

``SingleTraceAttack`` owns the whole chain:

- *profiling* (template building): capture many sampling executions on
  the profiled device, segment them, label every aligned slice with the
  ground-truth coefficient (the profiling adversary controls the
  device), learn the branch centroids, select POIs via SOSD and build
  the value templates;
- *attack*: given one trace of an unknown encryption, segment it,
  classify each coefficient's branch (sign / zero), then match the
  value templates restricted to the recovered sign, returning both hard
  estimates (Table I) and per-coefficient probability tables (Table II,
  the input to the LWE-with-hints stage).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attack.branch import NEGATIVE, POSITIVE, ZERO, BranchClassifier, sign_of
from repro.attack.poi import POI_METHODS, POI_METHODS_MOMENTS
from repro.attack.segmentation import AnchorRefiner, Segmenter, SegmenterConfig
from repro.attack.template import (
    MomentAccumulator,
    RunningMoments,
    TemplateSet,
    gaussian_priors,
)
from repro.errors import AttackError
from repro.power.capture import TraceAcquisition


def probability_tables(
    signs: Sequence[int], matrix: np.ndarray, labels: Sequence[int]
) -> List[Dict[int, float]]:
    """Per-coefficient probability tables from dense posterior rows.

    A ZERO coefficient gets ``{0: 1.0}``; any other gets ``{label: p}``
    over the template-bank ``labels`` whose sign is the classified one,
    which are exactly the columns :meth:`SingleTraceAttack.attack_aligned`
    scored for it.
    """
    candidates: Dict[int, List[Tuple[int, int]]] = {}
    for column, label in enumerate(labels):
        candidates.setdefault(sign_of(label), []).append((column, int(label)))
    tables: List[Dict[int, float]] = []
    for sign, row in zip(signs, np.asarray(matrix).tolist()):
        if sign == ZERO:
            tables.append({0: 1.0})
        else:
            tables.append({label: row[column] for column, label in candidates[sign]})
    return tables


@dataclass
class AttackResult:
    """Outcome of one single-trace attack.

    ``probability_matrix`` row ``i`` is coefficient ``i``'s posterior
    over the template-bank ``labels``: 0.0 outside the candidate labels
    of its classified sign, and all zero for a ZERO coefficient.
    """

    signs: List[int]  # branch decision per coefficient
    estimates: List[int]  # most likely coefficient value
    probability_matrix: np.ndarray = field(repr=False)  # (n, len(labels))
    labels: Sequence[int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.estimates)

    @property
    def probabilities(self) -> List[Dict[int, float]]:
        """The full table per coefficient (see :func:`probability_tables`)."""
        return probability_tables(self.signs, self.probability_matrix, self.labels)


@dataclass
class ProfilingReport:
    """What profiling produced (sizes, classes, diagnostics).

    ``timings`` (streaming path only) holds per-stage wall seconds:
    ``capture``, ``segment`` (includes the moment accumulation) and
    ``build`` (POI selection + template construction).
    """

    slice_count: int
    classes: List[int]
    pois: List[int]
    branch_separation: float
    timings: Optional[Dict[str, float]] = None


def _reference_pool_size(num_traces: int) -> int:
    """Traces held back for anchor-reference learning (pass 1).

    ``max(8, 5%)`` as before, now capped at 64 so the materialized part
    of profiling stays O(1) no matter how large the campaign is.
    """
    return min(max(8, num_traces // 20), 64)


class SingleTraceAttack:
    """Profiled single-trace attack on the Gaussian sampler.

    Parameters
    ----------
    acquisition:
        The measurement bench (device + leakage + scope).
    segmenter:
        Trace segmentation; defaults to :class:`SegmenterConfig` defaults.
    poi_count / poi_method:
        Number of POIs and the selection statistic (``sosd`` is the
        paper's choice; ``sost``/``dom`` for ablation).
    use_prior:
        Weight templates with the public chi prior (MAP decision).
    branch_region:
        Sample range of the aligned slice used for sign classification;
        defaults to everything after the anchor.
    """

    def __init__(
        self,
        acquisition: TraceAcquisition,
        segmenter: Optional[Segmenter] = None,
        poi_count: int = 24,
        poi_method: str = "sosd",
        use_prior: bool = True,
        branch_region: Optional[tuple] = None,
        sigma: float = 3.19,
        pooled_covariance: bool = True,
        standardize: bool = False,
    ) -> None:
        if poi_method not in POI_METHODS:
            raise AttackError(f"unknown POI method {poi_method!r}")
        self.acquisition = acquisition
        self.segmenter = segmenter if segmenter is not None else Segmenter()
        self.poi_count = poi_count
        self.poi_method = poi_method
        self.use_prior = use_prior
        self.sigma = sigma
        self.pooled_covariance = pooled_covariance
        #: z-score each aligned slice before template work; trades a
        #: little same-device accuracy for cross-device portability
        #: (the paper's section V-B caveat).
        self.standardize = standardize
        cfg = self.segmenter.config
        self.branch_region = branch_region or (cfg.slice_before, self.segmenter.slice_length)
        self.templates: Optional[TemplateSet] = None
        self.branch_classifier: Optional[BranchClassifier] = None
        self.refiner: Optional[AnchorRefiner] = None

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def profile(
        self,
        num_traces: int = 400,
        coeffs_per_trace: int = 8,
        first_seed: int = 1,
        min_class_count: int = 3,
        workers: Optional[int] = None,
    ) -> ProfilingReport:
        """Capture and learn templates from the profiled device.

        ``num_traces * coeffs_per_trace`` labelled slices are collected;
        classes observed fewer than ``min_class_count`` times are folded
        away (the paper observes values only in [-14, 14] despite the
        [-41, 41] support).

        The profiling set is consumed as one-pass **streaming sufficient
        statistics** (per-class count/mean/scatter via Welford-Chan
        accumulation, :class:`~repro.attack.template.RunningMoments`):
        no slice matrix is ever materialized, so profiling sets far
        larger than memory are fine.  The resulting templates, branch
        classifier and POIs match the materialized
        :meth:`profile_reference` path within float accumulation error
        (the tests pin 1e-9 parity).

        ``workers`` switches to per-seed noise streams: the anchor head
        is captured in this process, every later seed with
        **worker-side segmentation** (see :meth:`~repro.power.capture.
        TraceAcquisition.capture_segmented_batch`); the default keeps
        the bench's sequential noise stream so seeded experiments
        reproduce historical results exactly.
        """
        clock = time.perf_counter
        capture_s = segment_s = 0.0
        pool_size = _reference_pool_size(num_traces)

        # Pass 1: a few traces with coarse anchors teach the re-aligner.
        tick = clock()
        if workers is None:
            head = [
                self.acquisition.capture(first_seed + i, coeffs_per_trace)
                for i in range(min(pool_size, num_traces))
            ]
        else:
            head = self.acquisition.capture_batch(
                min(pool_size, num_traces), coeffs_per_trace, first_seed=first_seed
            )
        capture_s += clock() - tick
        tick = clock()
        self.refiner = AnchorRefiner.learn(
            self.segmenter, [c.trace.samples for c in head]
        )
        segment_s += clock() - tick

        # Pass 2: stream refined, labelled slices into the accumulators.
        accumulator = MomentAccumulator(self.segmenter.slice_length)
        accumulate = accumulator.add

        # The head is folded here on both paths; serially the loop goes
        # on to capture the later seeds itself.
        capture = self.acquisition.capture
        aligned_slices = self.segmenter.aligned_slices
        for index in range(num_traces if workers is None else len(head)):
            tick = clock()
            if index < len(head):
                captured = head[index]
            else:
                captured = capture(first_seed + index, coeffs_per_trace)
            split = clock()
            capture_s += split - tick
            try:
                aligned = aligned_slices(
                    captured.trace.samples, refiner=self.refiner
                )
            except AttackError:
                segment_s += clock() - split
                continue  # a profiling trace may rarely fail to segment
            if len(aligned) == len(captured.values):
                accumulate(self._normalise_matrix(aligned), captured.values)
            segment_s += clock() - split
        if workers is not None:
            tick = clock()
            for segmented in self.acquisition.capture_segmented_batch(
                num_traces - len(head),
                coeffs_per_trace,
                first_seed=first_seed + len(head),
                workers=workers,
                segmenter=self.segmenter,
                refiner=self.refiner,
            ):
                if segmented.ok and segmented.slices.shape[0] == len(
                    segmented.values
                ):
                    accumulate(
                        self._normalise_matrix(segmented.slices), segmented.values
                    )
            segment_s += clock() - tick
        timings = {"capture": capture_s, "segment": segment_s, "build": 0.0}

        if accumulator.count == 0:
            raise AttackError("profiling produced no usable slices")
        tick = time.perf_counter()
        report = self._build_from_moments(
            accumulator.moments(), min_class_count, accumulator.count
        )
        timings["build"] += time.perf_counter() - tick
        report.timings = timings
        return report

    def _build_from_moments(
        self,
        moments: Dict[int, RunningMoments],
        min_class_count: int,
        slice_count: int,
    ) -> ProfilingReport:
        """Templates + branch classifier from accumulated moments."""
        by_value = {
            value: m
            for value, m in sorted(moments.items())
            if m.count >= min_class_count
        }

        # Sign classes are unions of value classes, so their moments are
        # exact Chan merges of the per-value accumulators (all observed
        # values, including ones rarer than min_class_count).  The
        # branch templates read the scatter at POIs inside the branch
        # region only, so only that block of it is merged.
        region = slice(*self.branch_region)
        by_sign: Dict[int, RunningMoments] = {}
        for value, m in sorted(moments.items()):
            sign = sign_of(value)
            if sign not in by_sign:
                by_sign[sign] = RunningMoments(len(m.mean))
            by_sign[sign].merge(m, region)
        self.branch_classifier = BranchClassifier.from_moments(
            by_sign, self.branch_region[0], self.branch_region[1]
        )

        pois = POI_METHODS_MOMENTS[self.poi_method](by_value, self.poi_count)
        priors = None
        if self.use_prior:
            priors = gaussian_priors(list(by_value), self.sigma)
        self.templates = TemplateSet.from_moments(
            by_value, pois, priors=priors, pooled=self.pooled_covariance
        )
        return ProfilingReport(
            slice_count=slice_count,
            classes=sorted(by_value),
            pois=pois,
            branch_separation=self.branch_classifier.separation(),
        )

    def profile_reference(
        self,
        num_traces: int = 400,
        coeffs_per_trace: int = 8,
        first_seed: int = 1,
        min_class_count: int = 3,
        workers: Optional[int] = None,
    ) -> ProfilingReport:
        """Materialized profiling: the original capture-everything,
        vstack-then-group flow, kept as the parity/throughput reference
        for the streaming :meth:`profile`."""
        # Pass 1: a few traces with coarse anchors teach the re-aligner.
        # ``workers`` selects the keyed noise stream, as in profile().
        if workers is None:
            captures = [
                self.acquisition.capture(first_seed + i, coeffs_per_trace)
                for i in range(num_traces)
            ]
        else:
            captures = self.acquisition.capture_batch(
                num_traces, coeffs_per_trace, first_seed=first_seed
            )
        reference_pool = [
            c.trace.samples for c in captures[: _reference_pool_size(num_traces)]
        ]
        self.refiner = AnchorRefiner.learn(self.segmenter, reference_pool)

        # Pass 2: refined, labelled slices.
        slices: List[np.ndarray] = []
        labels: List[int] = []
        for captured in captures:
            try:
                aligned = self.segmenter.aligned_slices(
                    captured.trace.samples, refiner=self.refiner
                )
            except AttackError:
                continue  # a profiling trace may rarely fail to segment
            if len(aligned) != len(captured.values):
                continue
            slices.extend(self._normalise(piece) for piece in aligned)
            labels.extend(captured.values)
        if not slices:
            raise AttackError("profiling produced no usable slices")
        matrix = np.vstack(slices)
        label_array = np.asarray(labels)

        by_value: Dict[int, np.ndarray] = {}
        for value in np.unique(label_array):
            group = matrix[label_array == value]
            if group.shape[0] >= min_class_count:
                by_value[int(value)] = group

        by_sign: Dict[int, np.ndarray] = {}
        for sign in (NEGATIVE, ZERO, POSITIVE):
            mask = np.sign(label_array) == sign
            if mask.any():
                by_sign[sign] = matrix[mask]
        self.branch_classifier = BranchClassifier.build(
            by_sign, self.branch_region[0], self.branch_region[1]
        )

        pois = POI_METHODS[self.poi_method](by_value, self.poi_count)
        priors = None
        if self.use_prior:
            priors = gaussian_priors(list(by_value), self.sigma)
        self.templates = TemplateSet.build(
            by_value, pois, priors=priors, pooled=self.pooled_covariance
        )
        return ProfilingReport(
            slice_count=len(slices),
            classes=sorted(by_value),
            pois=pois,
            branch_separation=self.branch_classifier.separation(),
        )

    # ------------------------------------------------------------------
    # Attack
    # ------------------------------------------------------------------
    def attack_samples(self, samples: np.ndarray) -> AttackResult:
        """Run the single-trace attack on a raw trace's samples.

        All coefficient slices of the trace are matched in one batched
        template call (sign classification, then a single
        :meth:`~repro.attack.template.TemplateSet.probabilities_matrix`
        over the non-zero slices with per-row sign restrictions).
        """
        if self.templates is None or self.branch_classifier is None:
            raise AttackError("profile() must run before attack()")
        return self.attack_aligned(
            self.segmenter.aligned_slices(samples, refiner=self.refiner)
        )

    def attack_aligned(self, slices: np.ndarray) -> AttackResult:
        """Attack pre-segmented aligned slices (an ``(n, slice_len)``
        matrix, e.g. from worker-side segmentation)."""
        if self.templates is None or self.branch_classifier is None:
            raise AttackError("profile() must run before attack()")
        labels = self.templates.labels
        posterior = np.zeros((slices.shape[0], len(labels)))
        if slices.shape[0] == 0:
            return AttackResult([], [], posterior, labels)
        matrix = self._normalise_matrix(slices)
        signs = self.branch_classifier.classify_matrix(matrix)

        nonzero = np.flatnonzero(signs != ZERO)
        mask = np.sign(labels)[None, :] == signs[nonzero, None]
        uncovered = ~mask.any(axis=1)
        if uncovered.any():
            sign = int(signs[nonzero][uncovered][0])
            raise AttackError(f"no templates for sign {sign}")

        estimates = np.zeros(len(signs), dtype=np.int64)
        if nonzero.size:
            probs = self.templates.probabilities_matrix(
                matrix[nonzero], restrict=mask
            )
            posterior[nonzero] = probs
            estimates[nonzero] = np.asarray(labels)[np.argmax(probs, axis=1)]
        return AttackResult(signs.tolist(), estimates.tolist(), posterior, labels)

    def attack(self, captured) -> AttackResult:
        """Attack a :class:`~repro.power.capture.CapturedTrace`."""
        return self.attack_samples(captured.trace.samples)

    # ------------------------------------------------------------------
    def _normalise(self, piece: np.ndarray) -> np.ndarray:
        if not self.standardize:
            return piece
        spread = float(piece.std())
        if spread <= 1e-12:
            return piece - float(piece.mean())
        return (piece - float(piece.mean())) / spread

    def _normalise_matrix(self, slices: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`_normalise`, bit-identical to it row by row.

        On a C-contiguous matrix the per-row mean and standard deviation
        are the same pairwise reductions the 1-D calls run, and the
        subtraction and division are elementwise, so the result matches
        the per-piece path bit for bit without a Python loop.
        """
        if not self.standardize:
            return slices
        rows = np.ascontiguousarray(slices)
        centered = rows - rows.mean(axis=1, keepdims=True)
        spread = rows.std(axis=1, keepdims=True)
        return np.divide(centered, spread, out=centered, where=spread > 1e-12)
