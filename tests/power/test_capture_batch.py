"""Determinism contract of keyed batch acquisition."""

import numpy as np
import pytest

from repro.attack.segmentation import Segmenter
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.riscv.device import GaussianSamplerDevice

PAPER_Q = 132120577


@pytest.fixture(scope="module")
def device():
    return GaussianSamplerDevice([PAPER_Q])


def make_bench(device, seed=7):
    return TraceAcquisition(device, scope=Oscilloscope(noise_std=1.0), rng=seed)


def assert_batches_identical(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert a.seed == b.seed
        assert a.values == b.values
        assert a.cycle_count == b.cycle_count
        np.testing.assert_array_equal(a.trace.samples, b.trace.samples)
        np.testing.assert_array_equal(a.event_starts, b.event_starts)


class TestBatchDeterminism:
    def test_workers_bit_identical_to_serial(self, device):
        """A pooled batch at four workers segments the serial keyed
        traces, bit for bit, in seed order."""
        segmenter = Segmenter()
        serial = make_bench(device).capture_batch(4, coeffs_per_trace=1, first_seed=5)
        pooled = list(
            make_bench(device).capture_segmented_batch(
                4, coeffs_per_trace=1, first_seed=5,
                segmenter=segmenter, workers=4,
            )
        )
        assert [p.seed for p in pooled] == [c.seed for c in serial]
        for captured, segmented in zip(serial, pooled):
            assert segmented.values == captured.values
            assert segmented.cycle_count == captured.cycle_count
            np.testing.assert_array_equal(
                segmented.slices, segmenter.aligned_slices(captured.trace.samples)
            )

    def test_same_bench_serial_then_parallel(self, device):
        """A pooled batch on a bench that captured serially segments the
        same keyed traces, and the bench's serial batches are unchanged."""
        bench = make_bench(device)
        segmenter = Segmenter()
        before = bench.capture_batch(3, coeffs_per_trace=2, first_seed=20)
        pooled = list(
            bench.capture_segmented_batch(
                3, coeffs_per_trace=2, first_seed=20,
                segmenter=segmenter, workers=2,
            )
        )
        after = bench.capture_batch(3, coeffs_per_trace=2, first_seed=20)
        assert_batches_identical(before, after)
        assert [p.seed for p in pooled] == [20, 21, 22]
        for captured, segmented in zip(before, pooled):
            assert segmented.values == captured.values
            np.testing.assert_array_equal(
                segmented.slices, segmenter.aligned_slices(captured.trace.samples)
            )

    def test_noise_is_per_seed_not_per_position(self, device):
        bench = make_bench(device)
        wide = bench.capture_batch(3, first_seed=10)
        narrow = bench.capture_batch(1, first_seed=11)
        # seed 11 appears at position 1 of `wide` and position 0 of
        # `narrow`; the noise must follow the seed, not the position
        np.testing.assert_array_equal(
            wide[1].trace.samples, narrow[0].trace.samples
        )

    def test_distinct_seeds_distinct_noise(self, device):
        batch = make_bench(device).capture_batch(2, first_seed=1)
        assert [c.seed for c in batch] == [1, 2]
        # same kernel, same coefficient count would still leave Gaussian
        # noise differing between the two traces
        a, b = batch[0].trace.samples, batch[1].trace.samples
        if a.shape == b.shape:
            assert not np.array_equal(a, b)

    def test_event_starts_present_and_consistent(self, device):
        captured = make_bench(device).capture_batch(1, first_seed=3)[0]
        assert captured.event_starts is not None
        assert captured.event_starts[0] == 0
        assert len(captured.trace) == captured.cycle_count

    def test_event_starts_defaults_to_none(self):
        from repro.power.capture import CapturedTrace
        from repro.power.trace import Trace

        bare = CapturedTrace(
            trace=Trace(np.zeros(4)), values=[0], seed=1, cycle_count=4
        )
        assert bare.event_starts is None
