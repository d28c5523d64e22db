"""Trace segmentation: locating and aligning per-coefficient windows.

Section III-C of the paper: the sampling of each coefficient must be
isolated from the full trace even though the distribution function is
time-variant (rejection loops), so fixed-stride windowing is impossible.
The paper anchors on "distinguishable and visible peaks" of the
distribution function call.

On our device those peaks are:

- the *binary-log burst*: 12 squaring rounds (24 back-to-back multiplies,
  ~1300 cycles of sustained multiplier-engine activity) — one per
  accepted polar sample.  These delimit the coefficients.
- the *value burst*: the final ``z * sigma`` multiply/mulh pair, an
  ~80-cycle engine burst that is the last before a long engine-quiet
  region (clipping, sign assignment and the next coefficient's PRNG
  draws).  Its end is the alignment anchor; the sign-assignment branches
  and stores follow it at fixed offsets, and the value-dependent
  multiplier state precedes it.

Two implementations give this stage the same output bits: the native
backend's exact ``segment`` kernel (:mod:`repro.backends.native`), which
runs wherever it builds, and the numpy code here, its reference twin
(``use_backend("reference")``).  The ``segmentation.windows`` oracle
pins the two together.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.backends import get_kernel
from repro.errors import AttackError


@dataclass
class SegmenterConfig:
    """Tunables of the segmentation stage.

    The defaults are calibrated for :class:`~repro.power.leakage.LeakageModel`
    defaults; an adversary would calibrate them during profiling.
    """

    envelope_window: int = 16  # smoothing for engine-burst detection
    frac_window: int = 64  # smoothing for the long log-burst envelope
    frac_merge_gap: int = 16  # merging when locating the log bursts
    frac_min_length: int = 600  # minimum length of a log burst
    burst_merge_gap: int = 12  # merge engine bursts closer than this
    burst_min_length: int = 30  # ignore shorter bursts
    anchor_min_length: int = 55  # the z*sigma pair is ~70+ cycles
    quiet_gap: int = 80  # engine-free run after the anchor burst
    slice_before: int = 100  # aligned slice: samples before anchor end
    slice_after: int = 160  # ... and after


def _moving_average_reference(x: np.ndarray, window: int) -> np.ndarray:
    """Original convolution-based sliding mean (O(n*w)); the parity
    reference for :func:`_moving_average`, and its path for windows
    wider than the trace."""
    if window <= 1:
        return x
    kernel = np.ones(window) / window
    return np.convolve(x, kernel, mode="same")


#: Segmentation failures by reason; the numpy path and the native
#: ``segment`` kernel (which reports the reason) raise the same text.
_FAILURES = {
    "empty": "cannot segment an empty trace",
    "non-finite": "cannot segment a trace with non-finite samples",
    "no-bursts": "no distribution-call bursts found in trace",
    "no-anchor": "no value-burst anchor found in window {} [{}, {})",
}


def _failure(reason: str, detail: Tuple[int, ...] = ()) -> AttackError:
    return AttackError(_FAILURES[reason].format(*detail))


def _padded_prefix_sum(x: np.ndarray, pad: int) -> np.ndarray:
    """``[0] * pad + csum + [csum[n]] * pad`` with ``csum[k] = sum(x[:k])``.

    The padding turns the edge clipping of every sliding mean with
    ``window // 2 <= pad`` into plain slicing (see :func:`_moving_average`),
    so one prefix sum serves several window sizes.
    """
    n = len(x)
    padded = np.zeros(n + 1 + 2 * pad, dtype=np.float64)
    np.cumsum(x, dtype=np.float64, out=padded[pad + 1 : pad + 1 + n])
    padded[pad + 1 + n :] = padded[pad + n]
    return padded


def _moving_average(
    x: np.ndarray, window: int, prefix: Optional[np.ndarray] = None
) -> np.ndarray:
    """Cumulative-sum sliding mean, O(n) regardless of window size.

    Matches ``np.convolve(x, ones(w)/w, mode="same")`` — same centering
    and same zero-padded edges — up to float reassociation (the
    reference multiplies by 1/w before summing; this sums first).
    ``prefix`` is an optional ``_padded_prefix_sum(x, pad)`` with
    ``pad >= window // 2``, shared between calls on the same ``x``.
    """
    if window <= 1:
        return x
    n = len(x)
    if window > n:
        # np.convolve swaps its arguments when the kernel is longer than
        # the input, changing the output length; defer to the reference
        # for that degenerate shape.
        return _moving_average_reference(x, window)
    if prefix is None:
        prefix = _padded_prefix_sum(x, window // 2)
    # output i sums x[i + h - window + 1 : i + h + 1], h = (window - 1) // 2,
    # clipped to the trace: csum[i + h + 1] - csum[i + h + 1 - window],
    # with the clipped ends read from the padding
    pad = (len(prefix) - n - 1) // 2
    lo = pad - window // 2
    total = prefix[lo + window : lo + window + n] - prefix[lo : lo + n]
    total /= window
    return total


def _active_regions(mask: np.ndarray, merge_gap: int, min_length: int) -> List[Tuple[int, int]]:
    """Contiguous True runs, merging gaps of <= merge_gap False samples."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > merge_gap + 1)
    starts = idx[np.concatenate(([0], breaks + 1))]
    ends = idx[np.concatenate((breaks, [idx.size - 1]))] + 1
    return [
        (int(s), int(e)) for s, e in zip(starts, ends) if e - s >= min_length
    ]


@dataclass
class CoefficientWindow:
    """One coefficient's located region and its alignment anchor."""

    index: int
    start: int  # end of this coefficient's log burst
    end: int  # start of the next coefficient's log burst (or trace end)
    anchor: int  # sample index of the value-burst end


class Segmenter:
    """Splits a full sampling trace into aligned per-coefficient slices."""

    def __init__(self, config: Optional[SegmenterConfig] = None) -> None:
        self.config = config if config is not None else SegmenterConfig()

    # ------------------------------------------------------------------
    def _engine_threshold(self, envelope: np.ndarray, fraction: float = 0.5) -> float:
        """Threshold between engine-burst level and background.

        The two levels are well separated; a point between the 10th and
        90th percentile of the smoothed trace sits between them.
        ``fraction`` picks where (the coarse log-burst envelope averages
        bursts with their gaps, so it uses a lower point).
        """
        lo, hi = (float(v) for v in np.percentile(envelope, [10, 90]))
        return lo + fraction * (hi - lo)

    def windows(self, samples: np.ndarray) -> List[CoefficientWindow]:
        """Locate every coefficient's window and anchor in the trace.

        Runs the native backend's exact ``segment`` kernel where it
        probes (see :mod:`repro.backends.native`), otherwise the numpy
        path below, which is its reference twin: both return the same
        windows and raise the same errors.
        """
        samples = np.asarray(samples, dtype=np.float64)
        kernel = get_kernel("segment")
        if kernel is not None:
            reason, located = kernel(samples, self.config)
            if reason == "ok":
                return [
                    CoefficientWindow(i, start, end, anchor)
                    for i, (start, end, anchor) in enumerate(located.tolist())
                ]
            if reason != "defer":
                raise _failure(reason, located)
        return self._windows_numpy(samples)

    def _windows_numpy(self, samples: np.ndarray) -> List[CoefficientWindow]:
        """:meth:`windows` in numpy: the native kernel's reference twin."""
        cfg = self.config
        if samples.size == 0:
            raise _failure("empty")
        if not np.isfinite(samples).all():
            raise _failure("non-finite")
        prefix = _padded_prefix_sum(
            samples, max(cfg.envelope_window, cfg.frac_window) // 2
        )
        envelope = _moving_average(samples, cfg.envelope_window, prefix)
        threshold = self._engine_threshold(envelope)

        # 1. the long binary-log bursts delimit coefficients; their
        # *starts* are the window boundaries (everything a coefficient
        # leaks happens between its log burst and the next one's).
        frac_envelope = _moving_average(samples, cfg.frac_window, prefix)
        frac_mask = frac_envelope > self._engine_threshold(frac_envelope, fraction=0.35)
        frac_bursts = _active_regions(frac_mask, cfg.frac_merge_gap, cfg.frac_min_length)
        if not frac_bursts:
            raise _failure("no-bursts")

        # 2. engine bursts for anchoring
        engine_mask = envelope > threshold
        bursts = _active_regions(engine_mask, cfg.burst_merge_gap, cfg.burst_min_length)

        result: List[CoefficientWindow] = []
        # bursts come sorted by start, so the bursts with
        # w_start <= start < w_end are one slice, found by bisection
        burst_starts = [start for (start, _) in bursts]
        starts = [s for (s, _) in frac_bursts] + [len(samples)]
        for i in range(len(frac_bursts)):
            w_start, w_end = starts[i], starts[i + 1]
            inside = bursts[
                bisect_left(burst_starts, w_start) : bisect_left(burst_starts, w_end)
            ]
            is_last = i == len(frac_bursts) - 1
            anchor = self._find_anchor(inside, w_end, is_last)
            if anchor is None:
                raise _failure("no-anchor", (i, w_start, w_end))
            result.append(CoefficientWindow(i, w_start, w_end, anchor))
        return result

    def _find_anchor(
        self, bursts: List[Tuple[int, int]], window_end: int, is_last: bool
    ) -> Optional[int]:
        """End of the value burst: scan backwards over engine bursts.

        Walking back from the window end, the trailing bursts are the
        *next* coefficient's polar-draw multiply pairs, each followed by
        engine activity within a few dozen cycles.  The first burst
        (from the back) followed by a long engine-free run is the
        ``z * sigma`` pair (or the square-root cluster it merged into,
        which ends at the same place): the clipping checks, the Fig. 2
        branches and the stores that follow it contain no
        multiplier/divider work.
        """
        cfg = self.config
        for j in range(len(bursts) - 1, -1, -1):
            start, end = bursts[j]
            if end - start < cfg.anchor_min_length:
                continue  # lone divides (the 2L/x division, Newton steps)
            if j + 1 < len(bursts):
                gap = bursts[j + 1][0] - end
            elif is_last:
                gap = cfg.quiet_gap  # trace ends right after the assignment
            else:
                gap = window_end - end
            if gap >= cfg.quiet_gap:
                return end
        if bursts:
            return bursts[-1][1]
        return None

    # ------------------------------------------------------------------
    def aligned_slices(
        self, samples: np.ndarray, refiner: Optional["AnchorRefiner"] = None
    ) -> np.ndarray:
        """Fixed-length aligned sub-traces, one row per coefficient.

        Row ``i`` spans ``[anchor - slice_before, anchor + slice_after)``
        of window ``i`` and is zero-padded at trace edges, so the result
        is one ``(n, slice_length)`` matrix.  With a ``refiner``, each
        window's anchor is re-aligned by matched filtering first (see
        :class:`AnchorRefiner`).  Like :meth:`windows`, this runs the
        native ``segment`` kernel where it probes; the windows it cannot
        refine exactly on its own come back ``pending`` and take
        :meth:`AnchorRefiner.refine` here.
        """
        samples = np.asarray(samples, dtype=np.float64)
        kernel = get_kernel("segment")
        if kernel is not None:
            reason, result = kernel(samples, self.config, refiner, slices=True)
            if reason == "ok":
                return self._refine_pending(samples, refiner, *result)
            if reason != "defer":
                raise _failure(reason, result)
        windows = self._windows_numpy(samples)
        slices = np.zeros((len(windows), self.slice_length))
        for row, window in zip(slices, windows):
            anchor = window.anchor
            if refiner is not None:
                anchor = refiner.refine(samples, window)
            self._place(row, samples, anchor)
        return slices

    def _refine_pending(
        self,
        samples: np.ndarray,
        refiner: Optional["AnchorRefiner"],
        slices: np.ndarray,
        located: np.ndarray,
        pending: np.ndarray,
    ) -> np.ndarray:
        """The native kernel's slices, with the ``pending`` rows (those
        its screen could not settle) re-anchored by
        :meth:`AnchorRefiner.refine` and re-cut."""
        for row in pending.tolist():
            start, end, anchor = located[row].tolist()
            window = CoefficientWindow(row, start, end, anchor)
            slices[row] = 0.0
            self._place(slices[row], samples, refiner.refine(samples, window))
        return slices

    def _place(self, row: np.ndarray, samples: np.ndarray, anchor: int) -> None:
        """Copy ``[anchor - slice_before, anchor + slice_after)`` into
        the zeroed ``row``, clipped to the trace."""
        cfg = self.config
        lo = anchor - cfg.slice_before
        src_lo = max(lo, 0)
        src_hi = min(anchor + cfg.slice_after, len(samples))
        row[src_lo - lo : src_hi - lo] = samples[src_lo:src_hi]

    @property
    def slice_length(self) -> int:
        """Length of every aligned slice."""
        return self.config.slice_before + self.config.slice_after


class AnchorRefiner:
    """Matched-filter re-alignment of the per-coefficient anchor.

    The coarse burst-scan anchor is right for the vast majority of
    windows but can land on a neighbouring burst when rejection loops
    reshape the window.  The refiner learns the *median* trace pattern
    around the anchor from profiling windows (the median is robust to
    the minority of mis-anchored ones) and then, per window, slides the
    pattern over the window to the least-squares-optimal position —
    textbook trace re-alignment.

    The pattern covers ``[anchor - before, anchor + after)``; ``after``
    stays small so the pattern is dominated by branch-*independent*
    structure (square-root tail, the ``z*sigma`` burst, writeback and
    clipping checks).
    """

    def __init__(self, reference: np.ndarray, before: int = 160, after: int = 60):
        self.reference = np.asarray(reference, dtype=np.float64)
        self.before = before
        self.after = after
        if len(self.reference) != before + after:
            raise AttackError(
                f"reference length {len(self.reference)} != before+after {before + after}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def learn(
        cls,
        segmenter: Segmenter,
        traces: "List[np.ndarray]",
        before: int = 160,
        after: int = 60,
    ) -> "AnchorRefiner":
        """Learn the reference pattern from coarse-anchored windows."""
        patterns = []
        for samples in traces:
            samples = np.asarray(samples, dtype=np.float64)
            try:
                windows = segmenter.windows(samples)
            except AttackError:
                continue
            for window in windows:
                lo, hi = window.anchor - before, window.anchor + after
                if lo >= 0 and hi <= len(samples):
                    patterns.append(samples[lo:hi])
        if len(patterns) < 8:
            raise AttackError(
                f"need >= 8 windows to learn an anchor reference, got {len(patterns)}"
            )
        return cls(np.median(np.vstack(patterns), axis=0), before, after)

    # ------------------------------------------------------------------
    def refine(self, samples: np.ndarray, window: CoefficientWindow) -> int:
        """Anchor position minimising the SSD to the reference pattern."""
        samples = np.asarray(samples, dtype=np.float64)
        length = len(self.reference)
        lo = max(window.start, 0)
        hi = min(window.end + self.after, len(samples))
        segment = samples[lo:hi]
        if len(segment) < length:
            return window.anchor
        # SSD(delta) = sum(x^2) - 2 x.R + sum(R^2); the windowed energy
        # is a cumulative-sum sliding window (O(n)), the cross term a
        # direct correlation
        squared = np.empty(len(segment) + 1, dtype=np.float64)
        squared[0] = 0.0
        np.cumsum(segment * segment, dtype=np.float64, out=squared[1:])
        windowed_energy = squared[length:] - squared[: len(segment) - length + 1]
        cross = np.correlate(segment, self.reference, mode="valid")
        ssd = windowed_energy - 2.0 * cross  # + const
        best = int(np.argmin(ssd))
        return lo + best + self.before
