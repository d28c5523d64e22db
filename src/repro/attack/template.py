"""Multivariate-Gaussian template building and matching [28].

A template per class (sampled coefficient value) is the mean vector at
the POIs; a pooled covariance matrix describes the noise.  Matching
computes the Gaussian log-likelihood of the observed POI vector under
every template and returns either the argmax (Table I) or the full
normalised probability table (Table II / the DBDD hint generator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backends import get_kernel
from repro.errors import AttackError


class RunningMoments:
    """Streaming sufficient statistics of one profiling class.

    Welford/Chan accumulation of ``count``, ``mean`` (full slice length)
    and ``scatter`` (the centered second-moment matrix
    ``sum((x - mean) (x - mean)^T)``, a.k.a. M2).  Batches are folded in
    with the parallel-combine update, so the result is independent of
    how the profiling set is chunked across pool workers, and matches
    the materialized ``(traces - mean).T @ (traces - mean)`` scatter up
    to float accumulation error (~1e-12 relative).

    These three quantities are everything the profiling phase needs:
    POI scores (:mod:`repro.attack.poi`), template means, pooled and
    per-class covariances (:meth:`TemplateSet.from_moments`), and —
    because sign classes are unions of value classes — the branch
    classifier's statistics via :meth:`merge`.
    """

    __slots__ = ("count", "mean", "scatter")

    def __init__(self, length: int) -> None:
        self.count = 0
        self.mean = np.zeros(length, dtype=np.float64)
        self.scatter = np.zeros((length, length), dtype=np.float64)

    # ------------------------------------------------------------------
    def update(self, batch: np.ndarray) -> "RunningMoments":
        """Fold a ``(k, length)`` batch of observations in."""
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        k = batch.shape[0]
        if k == 0:
            return self
        batch_mean = batch.mean(axis=0)
        centered = batch - batch_mean
        other = RunningMoments(len(self.mean))
        other.count = k
        other.mean = batch_mean
        other.scatter = centered.T @ centered
        return self.merge(other)

    def merge(
        self, other: "RunningMoments", block: Optional[slice] = None
    ) -> "RunningMoments":
        """Chan's parallel combine of two accumulators (in place).

        ``other`` is only read.  With ``block``, only ``scatter[block,
        block]`` is combined and the rest of ``scatter`` is not kept up
        to date: the same elementwise operations on those entries, for
        callers that read no others.
        """
        if other.count == 0:
            return self
        if block is None:
            block = slice(None)
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean.copy()
            self.scatter[block, block] = other.scatter[block, block]
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        weight = self.count * other.count / total
        # scatter += other.scatter + outer(delta, delta) * weight, in
        # one temporary (IEEE addition commutes, so the bits are the
        # same); the native kernel makes the same sums in one pass
        kernel = get_kernel("moments_merge")
        if kernel is None or not kernel(
            self.scatter, other.scatter, delta, block, weight
        ):
            correction = np.outer(delta[block], delta[block])
            correction *= weight
            correction += other.scatter[block, block]
            self.scatter[block, block] += correction
        self.mean += delta * (other.count / total)
        self.count = total
        return self

    def copy(self) -> "RunningMoments":
        clone = RunningMoments(len(self.mean))
        clone.count = self.count
        clone.mean = self.mean.copy()
        clone.scatter = self.scatter.copy()
        return clone

    def variances(self) -> np.ndarray:
        """Per-sample population variance (matches ``traces.var(axis=0)``)."""
        if self.count == 0:
            raise AttackError("no observations accumulated")
        return np.diag(self.scatter) / self.count

    @classmethod
    def from_matrix(cls, traces: np.ndarray) -> "RunningMoments":
        traces = np.atleast_2d(np.asarray(traces, dtype=np.float64))
        return cls(traces.shape[1]).update(traces)


class MomentAccumulator:
    """Label-keyed :class:`RunningMoments` with small row buffers.

    Folding every slice into a full ``(L, L)`` scatter individually
    costs an outer product per observation; buffering up to ``chunk``
    rows per label first turns that into one BLAS ``B.T @ B`` per chunk
    (~30x fewer large-matrix passes) while staying one-pass streaming:
    memory is bounded by ``labels * chunk * L`` regardless of how many
    slices flow through.  Rows are folded in arrival order, so results
    are reproducible for a fixed capture order (and the worker-side
    segmentation path yields in seed order whatever the pool does).
    """

    def __init__(self, length: int, chunk: int = 32) -> None:
        self.length = length
        self.chunk = max(1, chunk)
        self._moments: Dict[int, RunningMoments] = {}
        self._buffers: Dict[int, List[np.ndarray]] = {}
        self.count = 0

    def add(self, slices: np.ndarray, labels: Sequence[int]) -> None:
        """Buffer a labelled ``(k, length)`` batch of aligned slices."""
        slices = np.atleast_2d(np.asarray(slices, dtype=np.float64))
        labels = np.asarray(labels)
        if slices.shape[0] != labels.shape[0]:
            raise AttackError(
                f"{slices.shape[0]} slices but {labels.shape[0]} labels"
            )
        for value in np.unique(labels):
            rows = slices[labels == value]
            buffer = self._buffers.setdefault(int(value), [])
            buffer.append(rows)
            if sum(part.shape[0] for part in buffer) >= self.chunk:
                self._flush_label(int(value))
        self.count += slices.shape[0]

    def _flush_label(self, value: int) -> None:
        buffer = self._buffers.pop(value, [])
        if not buffer:
            return
        rows = np.vstack(buffer)
        self._moments.setdefault(value, RunningMoments(self.length)).update(rows)

    def moments(self) -> Dict[int, RunningMoments]:
        """Flush all buffers and return the per-label accumulators."""
        for value in list(self._buffers):
            self._flush_label(value)
        return self._moments


@dataclass
class TemplateSet:
    """Templates over a fixed POI set.

    Attributes
    ----------
    pois:
        Sample indices (into the aligned slice) the templates observe.
    means:
        Per-class mean POI vector.
    precision:
        Inverse of the pooled covariance (shared across classes); used
        when per-class precisions are absent.
    priors:
        Optional per-class prior probabilities used by
        :meth:`probabilities`; uniform when absent.
    class_precisions / class_log_dets:
        Present in ``per_class`` mode: the classic Chari-et-al. template
        with one covariance per class.  Note that per-class covariances
        with limited profiling produce famously *overconfident*
        posteriors - exactly the regime behind the paper's Table II
        probabilities of ~1; the pooled mode is the calibrated
        alternative.
    """

    pois: List[int]
    means: Dict[int, np.ndarray]
    precision: np.ndarray
    priors: Optional[Dict[int, float]] = None
    class_precisions: Optional[Dict[int, np.ndarray]] = None
    class_log_dets: Optional[Dict[int, float]] = None
    _labels: List[int] = field(init=False, repr=False)
    _means_matrix: np.ndarray = field(init=False, repr=False)
    _prec_stack: Optional[np.ndarray] = field(init=False, repr=False)
    _logdet_vec: Optional[np.ndarray] = field(init=False, repr=False)
    _log_priors: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._labels = sorted(self.means)
        # Stacked (classes, pois) views for the batched matchers; row
        # order is the sorted label order everywhere.
        self._means_matrix = np.vstack(
            [np.asarray(self.means[l], dtype=np.float64) for l in self._labels]
        )
        if self.class_precisions is not None:
            self._prec_stack = np.stack(
                [self.class_precisions[l] for l in self._labels]
            )
            self._logdet_vec = np.array(
                [self.class_log_dets[l] for l in self._labels]
            )
        else:
            self._prec_stack = None
            self._logdet_vec = None
        if self.priors:
            self._log_priors = np.log(
                np.array(
                    [max(self.priors.get(l, 1e-300), 1e-300) for l in self._labels]
                )
            )
        else:
            self._log_priors = None

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        traces_by_label: Dict[int, np.ndarray],
        pois: Sequence[int],
        ridge: float = 1e-3,
        priors: Optional[Dict[int, float]] = None,
        pooled: bool = True,
    ) -> "TemplateSet":
        """Build templates from labelled profiling traces.

        ``ridge`` regularises the covariances (the "curse of
        dimensionality" guard the paper cites [36]).  ``pooled=False``
        selects the per-class-covariance mode (see class docstring).
        """
        if not traces_by_label:
            raise AttackError("cannot build templates from no classes")
        pois = list(pois)
        means: Dict[int, np.ndarray] = {}
        scatter = np.zeros((len(pois), len(pois)))
        total = 0
        class_precisions: Dict[int, np.ndarray] = {}
        class_log_dets: Dict[int, float] = {}
        for label, traces in traces_by_label.items():
            if traces.ndim != 2 or traces.shape[0] < 2:
                raise AttackError(
                    f"class {label} needs >= 2 profiling traces, got {traces.shape}"
                )
            observed = traces[:, pois]
            mu = observed.mean(axis=0)
            means[int(label)] = mu
            centered = observed - mu
            scatter += centered.T @ centered
            total += observed.shape[0]
            if not pooled:
                own = centered.T @ centered / max(observed.shape[0] - 1, 1)
                own += ridge * max(np.trace(own), 1e-12) / len(pois) * np.eye(len(pois))
                class_precisions[int(label)] = np.linalg.inv(own)
                class_log_dets[int(label)] = float(np.linalg.slogdet(own)[1])
        pooled_cov = scatter / max(total - len(traces_by_label), 1)
        pooled_cov += ridge * np.trace(pooled_cov) / len(pois) * np.eye(len(pois))
        precision = np.linalg.inv(pooled_cov)
        return cls(
            pois=pois,
            means=means,
            precision=precision,
            priors=priors,
            class_precisions=class_precisions if not pooled else None,
            class_log_dets=class_log_dets if not pooled else None,
        )

    @classmethod
    def from_moments(
        cls,
        moments_by_label: Dict[int, RunningMoments],
        pois: Sequence[int],
        ridge: float = 1e-3,
        priors: Optional[Dict[int, float]] = None,
        pooled: bool = True,
    ) -> "TemplateSet":
        """Build templates from streaming sufficient statistics.

        Same math as :meth:`build` — template means are the class means
        at the POIs, the pooled covariance is the accumulated scatter
        over the POI sub-block — but fed by
        :class:`RunningMoments` instead of materialized trace matrices,
        so profiling sets far larger than memory can be used.  Results
        match :meth:`build` on the same data up to float accumulation
        error (the tests pin 1e-9 parity).
        """
        if not moments_by_label:
            raise AttackError("cannot build templates from no classes")
        pois = list(pois)
        poi_index = np.ix_(pois, pois)
        means: Dict[int, np.ndarray] = {}
        scatter = np.zeros((len(pois), len(pois)))
        total = 0
        class_precisions: Dict[int, np.ndarray] = {}
        class_log_dets: Dict[int, float] = {}
        for label, moments in moments_by_label.items():
            if moments.count < 2:
                raise AttackError(
                    f"class {label} needs >= 2 profiling traces, got {moments.count}"
                )
            means[int(label)] = moments.mean[pois].copy()
            class_scatter = moments.scatter[poi_index]
            scatter += class_scatter
            total += moments.count
            if not pooled:
                own = class_scatter / max(moments.count - 1, 1)
                own += ridge * max(np.trace(own), 1e-12) / len(pois) * np.eye(len(pois))
                class_precisions[int(label)] = np.linalg.inv(own)
                class_log_dets[int(label)] = float(np.linalg.slogdet(own)[1])
        pooled_cov = scatter / max(total - len(moments_by_label), 1)
        pooled_cov += ridge * np.trace(pooled_cov) / len(pois) * np.eye(len(pois))
        precision = np.linalg.inv(pooled_cov)
        return cls(
            pois=pois,
            means=means,
            precision=precision,
            priors=priors,
            class_precisions=class_precisions if not pooled else None,
            class_log_dets=class_log_dets if not pooled else None,
        )

    # ------------------------------------------------------------------
    @property
    def labels(self) -> List[int]:
        """Sorted class labels."""
        return list(self._labels)

    def log_likelihoods(self, slice_samples: np.ndarray) -> Dict[int, float]:
        """Gaussian log-likelihood of the observation under each template."""
        x = np.asarray(slice_samples, dtype=np.float64)[self.pois]
        out: Dict[int, float] = {}
        for label in self._labels:
            d = x - self.means[label]
            if self.class_precisions is not None:
                out[label] = float(
                    -0.5 * (d @ self.class_precisions[label] @ d)
                    - 0.5 * self.class_log_dets[label]
                )
            else:
                out[label] = float(-0.5 * d @ self.precision @ d)
        return out

    def probabilities(
        self, slice_samples: np.ndarray, restrict: Optional[Sequence[int]] = None
    ) -> Dict[int, float]:
        """Normalised posterior over classes (optionally restricted).

        This is the per-measurement probability table that feeds the
        LWE-with-hints framework (Table II of the paper).
        """
        lls = self.log_likelihoods(slice_samples)
        labels = [l for l in self._labels if restrict is None or l in set(restrict)]
        if not labels:
            raise AttackError("restriction excludes every template class")
        scores = np.array([lls[l] for l in labels])
        if self.priors:
            scores = scores + np.log(
                np.array([max(self.priors.get(l, 1e-300), 1e-300) for l in labels])
            )
        scores -= scores.max()
        weights = np.exp(scores)
        weights /= weights.sum()
        return {label: float(w) for label, w in zip(labels, weights)}

    def classify(
        self, slice_samples: np.ndarray, restrict: Optional[Sequence[int]] = None
    ) -> int:
        """Most likely class (the paper's Table I decision rule)."""
        probs = self.probabilities(slice_samples, restrict=restrict)
        return max(probs, key=probs.get)

    # ------------------------------------------------------------------
    # Batched matchers: one call over a whole trace's worth of slices.
    # Results agree with the scalar methods up to float reassociation.
    def log_likelihoods_matrix(self, slices: np.ndarray) -> np.ndarray:
        """Log-likelihood matrix of shape ``(n_slices, n_classes)``.

        Columns follow :attr:`labels` (sorted) order.  ``slices`` is a
        2-D array of aligned slices (full slice length; the POIs are
        selected here).
        """
        x = np.asarray(slices, dtype=np.float64)[:, self.pois]
        d = x[:, None, :] - self._means_matrix[None, :, :]
        if self._prec_stack is not None:
            quad = np.einsum("ncp,cpq,ncq->nc", d, self._prec_stack, d)
            return -0.5 * quad - 0.5 * self._logdet_vec[None, :]
        quad = np.einsum("ncp,pq,ncq->nc", d, self.precision, d)
        return -0.5 * quad

    def _restrict_mask(self, restrict, n_rows: int) -> Optional[np.ndarray]:
        """Normalise ``restrict`` into an ``(n_rows, n_classes)`` bool mask."""
        if restrict is None:
            return None
        if isinstance(restrict, (set, frozenset)):
            restrict = sorted(restrict)
        restrict = np.asarray(restrict)
        if restrict.ndim == 2:
            if restrict.shape != (n_rows, len(self._labels)):
                raise AttackError(
                    f"restriction mask shape {restrict.shape} does not match "
                    f"({n_rows}, {len(self._labels)})"
                )
            mask = restrict.astype(bool)
        else:
            allowed = set(int(l) for l in restrict.tolist())
            row = np.array([l in allowed for l in self._labels], dtype=bool)
            mask = np.broadcast_to(row, (n_rows, len(self._labels)))
        if not mask.any(axis=1).all():
            raise AttackError("restriction excludes every template class")
        return mask

    def probabilities_matrix(
        self, slices: np.ndarray, restrict=None
    ) -> np.ndarray:
        """Posterior matrix of shape ``(n_slices, n_classes)``.

        ``restrict`` is ``None``, a label sequence applied to every row,
        or a per-row boolean mask over :attr:`labels`; excluded classes
        get probability 0.  Each row is a max-subtracted softmax over
        the (prior-weighted) log-likelihoods, matching the scalar
        :meth:`probabilities` up to float reassociation.
        """
        scores = self.log_likelihoods_matrix(slices)
        if self._log_priors is not None:
            scores = scores + self._log_priors[None, :]
        mask = self._restrict_mask(restrict, scores.shape[0])
        if mask is not None:
            scores = np.where(mask, scores, -np.inf)
        scores = scores - scores.max(axis=1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=1, keepdims=True)
        return weights

    def classify_matrix(self, slices: np.ndarray, restrict=None) -> np.ndarray:
        """Per-row argmax labels for a batch of slices.

        Ties break toward the lowest label, matching the scalar
        ``max(probs, key=probs.get)`` over the sorted-label dict.
        """
        probs = self.probabilities_matrix(slices, restrict=restrict)
        labels = np.asarray(self._labels)
        return labels[np.argmax(probs, axis=1)]


def gaussian_priors(labels: Sequence[int], sigma: float) -> Dict[int, float]:
    """Discrete-Gaussian prior over coefficient values.

    The adversary knows chi's public sigma, so MAP decoding may weight
    templates by the sampling distribution.
    """
    labels = list(labels)
    weights = np.exp(-np.array(labels, dtype=float) ** 2 / (2 * sigma**2))
    weights /= weights.sum()
    return {int(l): float(w) for l, w in zip(labels, weights)}
