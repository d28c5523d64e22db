"""The native segmentation kernel against the numpy reference path.

``repro.backends.native`` computes ``Segmenter.windows`` and
``aligned_slices`` in C.  Every step but the refiner's cross term is the
same sequence of IEEE operations as numpy's, the cross term is screened
under a rigorous error bound, and the offsets a chunk-sum lower bound
rules out never get one, so the kernel must reproduce the numpy path bit
for bit: thresholds, windows, anchors, slices and error messages.  These
tests pin each piece, under every ``variant`` of the refiner's loops;
the ``segmentation.windows`` oracle sweeps random cases.
"""

import numpy as np
import pytest

from repro.attack.segmentation import (
    AnchorRefiner,
    CoefficientWindow,
    Segmenter,
    SegmenterConfig,
)
from repro.backends import probe_backend, use_backend
from repro.errors import AttackError
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.riscv.device import GaussianSamplerDevice

pytestmark = pytest.mark.skipif(
    probe_backend("native") is None, reason="no C toolchain"
)

PAPER_Q = 132120577

#: The refiner's ``variant`` bits: 1 for the AVX2 loops (portable on a
#: CPU without them), 2 to switch the offset pruning off.
VARIANTS = (0, 1, 2, 3)


@pytest.fixture(scope="module")
def kernel():
    return probe_backend("native").kernels["segment"]


@pytest.fixture(scope="module")
def lib():
    from repro.backends import native

    module, _digest = native._compile_and_load()
    return module


@pytest.fixture(scope="module")
def avx2(lib):
    return bool(lib.lib.reveal_segment_avx2())


@pytest.fixture(scope="module")
def bench():
    device = GaussianSamplerDevice([PAPER_Q])
    return TraceAcquisition(device, scope=Oscilloscope(noise_std=1.0), rng=3)


@pytest.fixture(scope="module")
def refiner(bench):
    pool = [bench.capture(900 + i, 4).trace.samples for i in range(8)]
    return AnchorRefiner.learn(Segmenter(), pool)


def _percentiles(module, env):
    env = np.ascontiguousarray(env, dtype=np.float64)
    out = np.zeros(2)
    module.lib.reveal_segment_percentiles(
        module.ffi.cast("double *", module.ffi.from_buffer(env)),
        env.size,
        module.ffi.cast("double *", module.ffi.from_buffer(out)),
    )
    return out


def _assert_same_float(got, want):
    """Bit-equal, except that NaN matches NaN and a zero either zero:
    the order statistics of -0.0 and +0.0 are interchangeable, and a
    threshold is only ever compared."""
    for g, w in zip(np.atleast_1d(got), np.atleast_1d(want)):
        if np.isnan(w):
            assert np.isnan(g)
        elif w == 0.0:
            assert g == 0.0
        else:
            assert np.float64(g).view(np.int64) == np.float64(w).view(np.int64)


def _both(call):
    with use_backend("native"):
        try:
            fast = call()
        except AttackError as exc:
            fast = f"AttackError: {exc}"
    with use_backend("reference"):
        try:
            slow = call()
        except AttackError as exc:
            slow = f"AttackError: {exc}"
    return fast, slow


def _windows(samples, config=None):
    return [
        (w.index, w.start, w.end, w.anchor)
        for w in Segmenter(config).windows(samples)
    ]


class TestPercentiles:
    """``reveal_segment_percentiles`` is ``np.percentile(env, [10, 90])``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tiny_arrays(self, lib, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            env = rng.normal(0.0, 10.0, n)
            _assert_same_float(_percentiles(lib, env), np.percentile(env, [10, 90]))

    def test_ties(self, lib):
        rng = np.random.default_rng(7)
        for n in (10, 11, 101, 5000, 70000):
            env = rng.integers(0, 4, n).astype(np.float64)
            _assert_same_float(_percentiles(lib, env), np.percentile(env, [10, 90]))

    @pytest.mark.parametrize("value", [0.0, -3.5, 7.25, 1e300, -1e-300])
    def test_constant_arrays(self, lib, value):
        for n in (1, 2, 9, 1000, 100_000):
            env = np.full(n, value)
            _assert_same_float(_percentiles(lib, env), np.percentile(env, [10, 90]))

    def test_negative_values(self, lib):
        rng = np.random.default_rng(11)
        for n in (6, 37, 4096, 200_000):
            env = -np.abs(rng.normal(5.0, 3.0, n))
            _assert_same_float(_percentiles(lib, env), np.percentile(env, [10, 90]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_extreme_magnitudes(self, lib):
        rng = np.random.default_rng(13)
        tiny = np.finfo(np.float64).tiny
        cases = [
            np.array([1e308, -1e308, 1e308]),
            np.array([-1e308, 1e308] * 6),
            np.array([5e-324, -5e-324, 0.0, -0.0, tiny]),
            np.array([np.inf, 1.0, -np.inf, 2.0]),
            np.array([np.inf] * 11),
            np.array([-np.inf, 0.0] * 10),
            rng.normal(0.0, 1.0, 3000) * 10.0 ** rng.integers(-300, 300, 3000),
        ]
        for env in cases:
            _assert_same_float(_percentiles(lib, env), np.percentile(env, [10, 90]))

    def test_nan_gives_nan(self, lib):
        env = np.array([1.0, np.nan, 3.0])
        assert np.isnan(_percentiles(lib, env)).all()

    def test_random_envelopes(self, lib):
        rng = np.random.default_rng(17)
        for n in (17, 999, 65_537, 300_000):
            env = np.cumsum(rng.normal(0.0, 1.0, n)) * 0.01 + 40.0
            _assert_same_float(_percentiles(lib, env), np.percentile(env, [10, 90]))


class TestWindows:
    @pytest.mark.parametrize("window", [1, 2, 3, 16, 17, 64])
    def test_window_configurations(self, bench, window):
        samples = bench.capture(40 + window, 12).trace.samples
        for config in (
            SegmenterConfig(envelope_window=window),
            SegmenterConfig(frac_window=window),
            SegmenterConfig(envelope_window=window, frac_window=window),
        ):
            fast, slow = _both(lambda: _windows(samples, config))
            assert fast == slow

    def test_window_wider_than_trace_defers(self, kernel):
        config = SegmenterConfig(frac_window=64, frac_min_length=5)
        samples = np.r_[np.zeros(20), np.ones(30)]
        assert kernel(samples, config) == ("defer", None)
        fast, slow = _both(lambda: _windows(samples, config))
        assert fast == slow

    def test_real_trace_windows(self, bench):
        samples = bench.capture(77, 64).trace.samples
        fast, slow = _both(lambda: _windows(samples))
        assert len(fast) == 64
        assert fast == slow


class TestErrors:
    """The same ``AttackError`` text as the numpy path."""

    def _same_error(self, samples, config=None, match=None):
        fast, slow = _both(lambda: _windows(samples, config))
        assert isinstance(fast, str) and fast == slow
        assert match in fast

    def test_empty_trace(self):
        self._same_error(np.zeros(0), match="cannot segment an empty trace")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples(self, bad):
        samples = np.zeros(3000)
        samples[1234] = bad
        self._same_error(samples, match="non-finite samples")
        self._same_error(
            samples, SegmenterConfig(envelope_window=1, frac_window=1),
            match="non-finite samples",
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_sum_is_finite(self):
        # finite samples whose running sum overflows: not a non-finite trace
        samples = np.full(3000, 1e308)
        fast, slow = _both(lambda: _windows(samples))
        assert fast == slow

    def test_no_bursts(self):
        self._same_error(np.zeros(5000), match="no distribution-call bursts")

    def test_no_anchor(self):
        # levels 0 / 0.4 / 1.0 with unsmoothed envelopes: the 0.4 log
        # bursts clear the 0.35 log threshold but not the 0.5 engine
        # threshold, so the window after the second log burst has no
        # engine burst at all
        pieces = [np.zeros(200), np.full(800, 0.4), np.zeros(100)]
        for _ in range(3):
            pieces += [np.ones(150), np.zeros(100)]
        pieces += [np.full(800, 0.4), np.zeros(400)]
        samples = np.concatenate(pieces)
        self._same_error(
            samples, SegmenterConfig(envelope_window=1, frac_window=1),
            match="no value-burst anchor found in window 1 [",
        )


class TestRefinedSlices:
    @pytest.mark.parametrize("variant", [0, 1])
    def test_screen_variants_exact(self, kernel, bench, refiner, avx2, variant):
        if variant == 1 and not avx2:
            pytest.skip("CPU without AVX2/FMA")
        seg = Segmenter()
        samples = bench.capture(555, 64).trace.samples
        with use_backend("reference"):
            want = seg.aligned_slices(samples, refiner)
        reason, (rows, located, pending) = kernel(
            samples, seg.config, refiner, slices=True, variant=variant
        )
        assert reason == "ok"
        assert len(pending) == 0  # one survivor per window on a real trace
        np.testing.assert_array_equal(rows, want)

    def test_plain_slices(self, bench):
        seg = Segmenter()
        samples = bench.capture(556, 16).trace.samples
        fast, slow = _both(lambda: seg.aligned_slices(samples))
        np.testing.assert_array_equal(fast, slow)

    @pytest.mark.parametrize("variant", [0, 1])
    def test_exact_tie_first_offset_wins(self, kernel, avx2, variant):
        if variant == 1 and not avx2:
            pytest.skip("CPU without AVX2/FMA")
        # an integer-valued trace: every score is exact, so the pattern
        # planted twice inside one window ties exactly
        config = SegmenterConfig(envelope_window=1, frac_window=1)
        pattern = np.r_[np.ones(20), np.zeros(15), np.ones(10)]
        samples = np.concatenate(
            [np.zeros(200), np.ones(800), np.zeros(100), pattern,
             np.zeros(100), pattern, np.zeros(100), np.ones(90),
             np.zeros(300)]
        )
        refiner = AnchorRefiner(pattern, before=30, after=15)
        seg = Segmenter(config)
        reason, (rows, located, pending) = kernel(
            samples, config, refiner, slices=True, variant=variant
        )
        assert reason == "ok" and list(pending) == [0]
        with use_backend("reference"):
            window = seg.windows(samples)[0]
            assert refiner.refine(samples, window) == 1100 + 30
        fast, slow = _both(lambda: seg.aligned_slices(samples, refiner))
        np.testing.assert_array_equal(fast, slow)

    def test_flat_reference_and_window(self):
        config = SegmenterConfig(envelope_window=1, frac_window=1)
        samples = np.concatenate(
            [np.zeros(200), np.ones(800), np.zeros(300), np.ones(90),
             np.zeros(300)]
        )
        for level in (0.0, 1.0):
            refiner = AnchorRefiner(np.full(40, level), before=25, after=15)
            seg = Segmenter(config)
            fast, slow = _both(lambda: seg.aligned_slices(samples, refiner))
            np.testing.assert_array_equal(fast, slow)

    def test_non_finite_reference_defers_to_numpy(self, kernel):
        config = SegmenterConfig(envelope_window=1, frac_window=1)
        samples = np.concatenate(
            [np.zeros(200), np.ones(800), np.zeros(300), np.ones(90),
             np.zeros(300)]
        )
        refiner = AnchorRefiner(np.full(40, np.inf), before=25, after=15)
        reason, (_rows, _located, pending) = kernel(
            samples, config, refiner, slices=True
        )
        assert reason == "ok" and list(pending) == [0]
        seg = Segmenter(config)
        fast, slow = _both(lambda: seg.aligned_slices(samples, refiner))
        np.testing.assert_array_equal(fast, slow)


def _refine_direct(lib, samples, windows, refiner, variant):
    """``reveal_segment_refine`` on hand-made ``(start, end, anchor)``
    rows: the refined anchors and the pending mask."""
    ffi = lib.ffi
    x = np.ascontiguousarray(samples, dtype=np.float64)
    win = np.array(windows, dtype=np.int64).reshape(-1, 3)
    ref = np.ascontiguousarray(refiner.reference)
    pending = np.zeros(len(win), dtype=np.uint8)
    count = lib.lib.reveal_segment_refine(
        ffi.cast("double *", ffi.from_buffer(x)), x.size,
        ffi.cast("int64_t *", ffi.from_buffer(win)), len(win),
        ffi.cast("double *", ffi.from_buffer(ref)), ref.size,
        refiner.before, refiner.after, variant,
        ffi.cast("uint8_t *", ffi.from_buffer(pending)),
    )
    assert count == int(pending.sum())
    return win[:, 2], pending.astype(bool)


def _check_direct(lib, samples, windows, refiner):
    """Every variant settles a window to numpy's anchor or leaves it
    pending; returns the pending mask of each variant."""
    want = [
        refiner.refine(samples, CoefficientWindow(i, *row))
        for i, row in enumerate(windows)
    ]
    masks = {}
    for variant in VARIANTS:
        anchors, pending = _refine_direct(lib, samples, windows, refiner, variant)
        for i in np.flatnonzero(~pending):
            assert anchors[i] == want[i], (variant, i)
        masks[variant] = pending
    return masks


def _check_public(kernel, samples, config, refiner):
    """Every variant's slices, pending rows finished as aligned_slices
    does, equal the numpy path's."""
    seg = Segmenter(config)
    with use_backend("reference"):
        want = seg.aligned_slices(samples, refiner)
    for variant in VARIANTS:
        reason, result = kernel(samples, config, refiner, slices=True, variant=variant)
        assert reason == "ok"
        got = seg._refine_pending(samples, refiner, *result)
        np.testing.assert_array_equal(got, want, err_msg=f"variant {variant}")


class TestPruning:
    """The chunk-sum bound drops offsets, never numpy's argmin."""

    def test_real_trace_every_variant(self, kernel, bench, refiner):
        samples = bench.capture(557, 48).trace.samples
        _check_public(kernel, samples, Segmenter().config, refiner)
        for variant in VARIANTS:
            reason, (_rows, _located, pending) = kernel(
                samples, Segmenter().config, refiner, slices=True, variant=variant
            )
            assert len(pending) == 0

    @pytest.mark.parametrize("period", [7, 20, 21])
    def test_periodic_trace(self, lib, period):
        # every offset a whole number of periods away from the planted
        # copy shares its chunk sums; integer samples tie exactly
        rng = np.random.default_rng(period)
        x = np.tile(rng.integers(0, 5, period).astype(np.float64), 4000 // period)
        refiner = AnchorRefiner(x[300:520].copy(), before=160, after=60)
        windows = [(0, 1500, 800), (1500, 3000, 1600), (700, 2900, 2000)]
        masks = _check_direct(lib, x, windows, refiner)
        for mask in masks.values():
            assert mask.all()  # exact ties: numpy's refine decides
        noisy = x + rng.normal(0.0, 0.05, x.size)
        _check_direct(lib, noisy, windows, refiner)

    def test_chunk_constant_reference(self, lib, bench, refiner):
        # a reference constant over each 20-sample chunk: the bound is
        # then exact wherever the window is chunk-constant too
        rng = np.random.default_rng(5)
        levels = np.repeat(rng.normal(10.0, 5.0, 11), 20)
        flat = AnchorRefiner(levels, before=160, after=60)
        x = np.repeat(rng.normal(10.0, 5.0, 300), 20)
        x[2000:2220] = levels
        windows = [(1500, 2600, 1900), (0, 5800, 100), (2100, 4000, 3000)]
        _check_direct(lib, x, windows, flat)
        _check_direct(lib, x + rng.normal(0.0, 0.01, x.size), windows, flat)
        samples = bench.capture(558, 8).trace.samples
        with use_backend("reference"):
            located = Segmenter().windows(samples)
        rows = [(w.start, w.end, w.anchor) for w in located]
        masks = _check_direct(lib, samples, rows, flat)
        assert masks[0].sum() == masks[2].sum() == 0

    @pytest.mark.parametrize("scale", [1e-160, 1e-40, 1e100, 1e145, 1e148, 1e150])
    @pytest.mark.parametrize("shift", [0.0, -60.0])
    def test_extreme_magnitudes_and_negative_samples(
        self, lib, bench, refiner, scale, shift
    ):
        # where the margins dominate the bound: huge or tiny samples,
        # negative ones, and squares past 1e300 (pending)
        samples = bench.capture(559, 6).trace.samples
        with use_backend("reference"):
            located = Segmenter().windows(samples)
        rows = [(w.start, w.end, w.anchor) for w in located]
        x = (samples + shift) * scale
        scaled = AnchorRefiner((refiner.reference + shift) * scale, 160, 60)
        masks = _check_direct(lib, x, rows, scaled)
        if 1e-40 <= scale <= 1e100:  # else underflow or 1e300 defers
            assert not any(mask.any() for mask in masks.values())

    def test_planted_tie_first_offset_wins(self, kernel, lib):
        config = SegmenterConfig(envelope_window=1, frac_window=1)
        pattern = np.r_[np.ones(20), np.zeros(15), np.ones(10)]
        samples = np.concatenate(
            [np.zeros(200), np.ones(800), np.zeros(100), pattern,
             np.zeros(100), pattern, np.zeros(100), np.ones(90),
             np.zeros(300)]
        )
        refiner = AnchorRefiner(pattern, before=30, after=15)
        for mask in _check_direct(lib, samples, [(200, 1800, 1700)], refiner).values():
            assert mask.all()
        _check_public(kernel, samples, config, refiner)

    def test_coarse_anchor_far_from_minimum(self, lib, bench, refiner):
        # the seed score comes from the coarse anchor; from the window's
        # far ends (clamped) or anywhere, the refined anchor is numpy's
        samples = bench.capture(560, 16).trace.samples
        with use_backend("reference"):
            located = Segmenter().windows(samples)
        rng = np.random.default_rng(11)
        for anchor_of in (
            lambda w: w.start - 10_000,
            lambda w: w.end + 10_000,
            lambda w: w.start + 170,
            lambda w: int(rng.integers(w.start, w.end)),
        ):
            rows = [(w.start, w.end, anchor_of(w)) for w in located]
            masks = _check_direct(lib, samples, rows, refiner)
            assert not any(mask.any() for mask in masks.values())
