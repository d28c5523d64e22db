"""Tests for trace segmentation and anchor alignment."""

import numpy as np
import pytest

import repro.attack.segmentation as segmentation
from repro.attack.segmentation import (
    AnchorRefiner,
    Segmenter,
    _active_regions,
    _moving_average,
    _moving_average_reference,
    _padded_prefix_sum,
)
from repro.backends import probe_backend, use_backend
from repro.errors import AttackError
from repro.riscv import cycles as cy

NATIVE = probe_backend("native") is not None


def true_anchor_ends(device, cap, run):
    """Ground-truth anchor = end of the z*sigma mulh event."""
    starts = cap.event_starts
    return [
        int(starts[i + 1])
        for i, e in enumerate(run.events[:-1])
        if e.op_class == cy.OP_MUL and e.rs2_value == 209060
    ]


class TestHelpers:
    def test_moving_average_identity(self):
        x = np.arange(5, dtype=float)
        assert np.array_equal(_moving_average(x, 1), x)

    def test_moving_average_smooths(self):
        x = np.zeros(20)
        x[10] = 10.0
        y = _moving_average(x, 5)
        assert y.max() == pytest.approx(2.0)

    def test_active_regions_merging(self):
        mask = np.array([1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1], dtype=bool)
        regions = _active_regions(mask, merge_gap=2, min_length=1)
        assert regions == [(0, 6), (10, 11)]

    def test_active_regions_min_length(self):
        mask = np.array([1, 0, 0, 0, 1, 1, 1], dtype=bool)
        regions = _active_regions(mask, merge_gap=0, min_length=2)
        assert regions == [(4, 7)]

    def test_active_regions_empty(self):
        assert _active_regions(np.zeros(5, dtype=bool), 1, 1) == []

    def test_active_regions_matches_loop_reference(self):
        """The vectorized extractor is integer-exact vs a naive scan."""

        def reference(mask, merge_gap, min_length):
            regions, start, last = [], None, None
            for i in np.flatnonzero(mask):
                i = int(i)
                if start is None:
                    start, last = i, i
                elif i - last <= merge_gap + 1:
                    last = i
                else:
                    regions.append((start, last + 1))
                    start, last = i, i
            if start is not None:
                regions.append((start, last + 1))
            return [(s, e) for s, e in regions if e - s >= min_length]

        rng = np.random.default_rng(42)
        for density in (0.05, 0.3, 0.8):
            mask = rng.random(500) < density
            for merge_gap in (0, 1, 3):
                for min_length in (1, 2, 5):
                    assert _active_regions(mask, merge_gap, min_length) == reference(
                        mask, merge_gap, min_length
                    )


class TestMovingAverageParity:
    """The O(n) cumsum sliding mean must match the convolve reference."""

    def test_numeric_parity_random(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 64, 1000):
            x = rng.normal(0, 3, n)
            for window in (1, 2, 3, 8, 31, n, n + 5):
                np.testing.assert_allclose(
                    _moving_average(x, window),
                    _moving_average_reference(x, window),
                    rtol=0,
                    atol=1e-9,
                )

    def test_window_longer_than_input_falls_back(self):
        x = np.arange(4, dtype=float)
        np.testing.assert_array_equal(
            _moving_average(x, 9), _moving_average_reference(x, 9)
        )

    def test_identical_windows_and_anchors(self, bench, monkeypatch):
        """Swapping in the reference smoother yields the same windows on
        a real trace — the fast path changes nothing downstream."""
        cap = bench.capture(123, 5)
        fast = Segmenter().windows(cap.trace.samples)
        monkeypatch.setattr(
            segmentation,
            "_moving_average",
            lambda x, window, prefix=None: _moving_average_reference(x, window),
        )
        with use_backend("reference"):  # the numpy path reads the patch
            slow = Segmenter().windows(cap.trace.samples)
        assert [(w.start, w.end, w.anchor) for w in fast] == [
            (w.start, w.end, w.anchor) for w in slow
        ]


def _gather_mean(x, window):
    """Index-gather cumulative-sum sliding mean, the formula the sliced
    prefix-sum mean replaced (same rounding sequence by construction)."""
    if window <= 1:
        return x
    n = len(x)
    if window > n:
        return _moving_average_reference(x, window)
    csum = np.empty(n + 1, dtype=np.float64)
    csum[0] = 0.0
    np.cumsum(x, dtype=np.float64, out=csum[1:])
    mid = np.arange(n) + (window - 1) // 2
    lo = np.maximum(mid - window + 1, 0)
    hi = np.minimum(mid, n - 1) + 1
    return (csum[hi] - csum[lo]) / window


class TestMovingAverageBitExact:
    """The sliced prefix-sum mean is bit-identical to the index-gather
    formula it replaced: a last-bit change can move an anchor."""

    @pytest.mark.parametrize("window", [1, 2, 3, 16, 17, 64])
    def test_matches_gather_formula(self, window):
        rng = np.random.default_rng(window)
        for n in (window, window + 1, 257, 5000):
            x = rng.normal(40.0, 3.0, n)
            np.testing.assert_array_equal(
                _moving_average(x, window), _gather_mean(x, window)
            )

    @pytest.mark.parametrize("window", [2, 3, 16, 17, 64])
    def test_window_equal_to_length(self, window):
        x = np.random.default_rng(1).normal(0.0, 5.0, window)
        np.testing.assert_array_equal(
            _moving_average(x, window), _gather_mean(x, window)
        )

    @pytest.mark.parametrize("window", [3, 16, 17, 64])
    def test_input_within_half_window(self, window):
        for n in range(1, (window - 1) // 2 + 1):
            x = np.random.default_rng(n).normal(0.0, 5.0, n)
            np.testing.assert_array_equal(
                _moving_average(x, window), _gather_mean(x, window)
            )

    @pytest.mark.parametrize("window", [2, 3, 16, 17, 64])
    def test_shared_wider_prefix(self, window):
        x = np.random.default_rng(2).normal(40.0, 3.0, 3000)
        for pad in (window // 2, 32, 100):
            np.testing.assert_array_equal(
                _moving_average(x, window, _padded_prefix_sum(x, pad)),
                _gather_mean(x, window),
            )


@pytest.mark.skipif(not NATIVE, reason="no C toolchain: one implementation")
class TestWindowsReference:
    """The native kernel against the numpy reference path on one long
    captured trace: identical windows, anchors and slices."""

    @pytest.fixture(scope="class")
    def long_trace(self, bench):
        return bench.capture(4242, 256).trace.samples

    @staticmethod
    def _both(call):
        with use_backend("native"):
            fast = call()
        with use_backend("reference"):
            slow = call()
        return fast, slow

    def test_identical_windows(self, long_trace):
        fast, slow = self._both(lambda: Segmenter().windows(long_trace))
        assert len(fast) == 256
        assert [(w.start, w.end, w.anchor) for w in fast] == [
            (w.start, w.end, w.anchor) for w in slow
        ]

    def test_identical_slices(self, long_trace):
        seg = Segmenter()
        fast, slow = self._both(lambda: seg.aligned_slices(long_trace))
        assert fast.shape == (256, seg.slice_length)
        np.testing.assert_array_equal(fast, slow)

    def test_identical_refined_slices(self, bench, long_trace):
        seg = Segmenter()
        pool = [bench.capture(800 + i, 4).trace.samples for i in range(10)]
        refiner = AnchorRefiner.learn(seg, pool)
        fast, slow = self._both(
            lambda: seg.aligned_slices(long_trace, refiner=refiner)
        )
        np.testing.assert_array_equal(fast, slow)


class TestWindows:
    def test_window_count_matches_coefficients(self, bench):
        for seed in (11, 22, 33):
            cap = bench.capture(seed, 5)
            windows = Segmenter().windows(cap.trace.samples)
            assert len(windows) == 5

    def test_windows_are_ordered_and_disjoint(self, bench):
        cap = bench.capture(7, 6)
        windows = Segmenter().windows(cap.trace.samples)
        for a, b in zip(windows, windows[1:]):
            assert a.end == b.start
            assert a.start < a.anchor <= a.end

    def test_flat_trace_raises(self):
        with pytest.raises(AttackError):
            Segmenter().windows(np.zeros(5000))

    def test_single_coefficient(self, bench):
        cap = bench.capture(77, 1)
        windows = Segmenter().windows(cap.trace.samples)
        assert len(windows) == 1


class TestAnchors:
    def test_coarse_anchor_majority_near_truth(self, device, bench):
        errors = []
        for seed in range(300, 312):
            cap = bench.capture(seed, 4)
            run = device.run(seed, count=4)
            truth = true_anchor_ends(device, cap, run)
            windows = Segmenter().windows(cap.trace.samples)
            assert len(windows) == len(truth)
            errors.extend(w.anchor - t for w, t in zip(windows, truth))
        close = sum(1 for e in errors if -20 <= e <= 5)
        assert close / len(errors) > 0.75

    def test_refined_anchor_constant_offset(self, device, bench):
        seg = Segmenter()
        pool = [bench.capture(800 + i, 4).trace.samples for i in range(10)]
        refiner = AnchorRefiner.learn(seg, pool)
        errors = []
        for seed in range(300, 315):
            cap = bench.capture(seed, 4)
            run = device.run(seed, count=4)
            truth = true_anchor_ends(device, cap, run)
            for window, t in zip(seg.windows(cap.trace.samples), truth):
                errors.append(refiner.refine(cap.trace.samples, window) - t)
        # all refined anchors within +-2 samples of one constant offset
        mode = max(set(errors), key=errors.count)
        assert all(abs(e - mode) <= 2 for e in errors)

    def test_refiner_needs_enough_windows(self, bench):
        seg = Segmenter()
        with pytest.raises(AttackError):
            AnchorRefiner.learn(seg, [bench.capture(1, 2).trace.samples])

    def test_refiner_reference_length_checked(self):
        with pytest.raises(AttackError):
            AnchorRefiner(np.zeros(10), before=160, after=60)


class TestAlignedSlices:
    def test_fixed_length(self, bench):
        seg = Segmenter()
        cap = bench.capture(5, 4)
        slices = seg.aligned_slices(cap.trace.samples)
        assert len(slices) == 4
        assert all(len(s) == seg.slice_length for s in slices)

    def test_time_variance_forces_segmentation(self, bench):
        """Windows have varying lengths (the rejection loops), so fixed
        strides cannot work - the premise of section III-C."""
        cap = bench.capture(9, 8)
        windows = Segmenter().windows(cap.trace.samples)
        lengths = {w.end - w.start for w in windows}
        assert len(lengths) > 1
