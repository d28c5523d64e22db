"""Worker-side segmentation and slim-capture contracts."""

import numpy as np
import pytest

from repro.attack.pipeline import SingleTraceAttack
from repro.attack.segmentation import AnchorRefiner, Segmenter
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.riscv.device import GaussianSamplerDevice

PAPER_Q = 132120577


@pytest.fixture(scope="module")
def device():
    return GaussianSamplerDevice([PAPER_Q])


def make_bench(device, seed=7):
    return TraceAcquisition(device, scope=Oscilloscope(noise_std=1.0), rng=seed)


@pytest.fixture(scope="module")
def segmentation(device):
    """A segmenter plus a refiner learned from a small head batch."""
    bench = make_bench(device)
    segmenter = Segmenter()
    head = bench.capture_batch(8, coeffs_per_trace=4, first_seed=900)
    refiner = AnchorRefiner.learn(segmenter, [c.trace.samples for c in head])
    return segmenter, refiner


class TestSegmentedBatch:
    def test_requires_segmenter(self, device):
        with pytest.raises(ValueError):
            list(make_bench(device).capture_segmented_batch(2))

    def test_matches_parent_side_segmentation(self, device, segmentation):
        """Worker-extracted slices == segmenting the same batch capture
        in the parent, bit for bit."""
        segmenter, refiner = segmentation
        bench = make_bench(device)
        segmented = list(
            bench.capture_segmented_batch(
                4, coeffs_per_trace=3, first_seed=40,
                segmenter=segmenter, refiner=refiner,
            )
        )
        captures = make_bench(device).capture_batch(
            4, coeffs_per_trace=3, first_seed=40
        )
        for seg, cap in zip(segmented, captures):
            assert seg.ok
            assert seg.seed == cap.seed
            assert seg.values == cap.values
            assert seg.cycle_count == cap.cycle_count
            parent = segmenter.aligned_slices(cap.trace.samples, refiner=refiner)
            np.testing.assert_array_equal(seg.slices, parent)

    def test_pool_bit_identical_to_serial(self, device, segmentation):
        segmenter, refiner = segmentation
        serial = list(
            make_bench(device).capture_segmented_batch(
                5, coeffs_per_trace=2, first_seed=60,
                segmenter=segmenter, refiner=refiner,
            )
        )
        pooled = list(
            make_bench(device).capture_segmented_batch(
                5, coeffs_per_trace=2, first_seed=60,
                segmenter=segmenter, refiner=refiner, workers=3,
            )
        )
        assert [s.seed for s in serial] == [p.seed for p in pooled]
        for s, p in zip(serial, pooled):
            assert s.values == p.values
            np.testing.assert_array_equal(s.slices, p.slices)

    def test_payload_is_slices_not_traces(self, device, segmentation):
        """The segmented record must be orders of magnitude smaller than
        the raw capture it replaces."""
        import pickle

        segmenter, refiner = segmentation
        seg = next(
            make_bench(device).capture_segmented_batch(
                1, coeffs_per_trace=4, first_seed=70,
                segmenter=segmenter, refiner=refiner,
            )
        )
        cap = make_bench(device).capture_batch(1, coeffs_per_trace=4, first_seed=70)[0]
        assert len(pickle.dumps(seg)) < len(pickle.dumps(cap)) / 10


class TestBatchCapture:
    def test_batch_keeps_traces(self, device):
        batch = make_bench(device).capture_batch(1, first_seed=9)
        assert batch[0].trace is not None
        assert batch[0].event_starts is not None

    def test_profiled_attack_is_picklable(self):
        """The campaign pool ships the profiled attack via the pool
        initializer; the device's generated-code cache must not leak
        into the pickle."""
        import pickle

        bench = make_bench(GaussianSamplerDevice([PAPER_Q]))
        attack = SingleTraceAttack(bench, poi_count=16)
        attack.profile(num_traces=40, coeffs_per_trace=4, first_seed=50_000)
        clone = pickle.loads(pickle.dumps(attack))
        captured = bench.capture(123, 3)
        a, b = attack.attack(captured), clone.attack(captured)
        assert a.signs == b.signs and a.estimates == b.estimates
