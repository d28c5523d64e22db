"""Worker-side segmentation and slim-capture contracts."""

import multiprocessing
import time

import numpy as np
import pytest

from repro.attack.pipeline import SingleTraceAttack
from repro.attack.segmentation import AnchorRefiner, Segmenter
from repro.power import capture
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.riscv.device import GaussianSamplerDevice
from repro.utils import pool

PAPER_Q = 132120577


@pytest.fixture(scope="module")
def device():
    return GaussianSamplerDevice([PAPER_Q])


def make_bench(device, seed=7):
    return TraceAcquisition(device, scope=Oscilloscope(noise_std=1.0), rng=seed)


def assert_segmented_identical(lhs, rhs):
    assert [s.seed for s in lhs] == [s.seed for s in rhs]
    for a, b in zip(lhs, rhs):
        assert a.values == b.values
        assert a.cycle_count == b.cycle_count
        np.testing.assert_array_equal(a.slices, b.slices)


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
        """Any worker count yields the serial records in seed order; 70
        seeds are three grains, so early grains wait for seed order."""
        segmenter, refiner = segmentation
        serial = list(
            make_bench(device).capture_segmented_batch(
                70, coeffs_per_trace=2, first_seed=60,
                segmenter=segmenter, refiner=refiner,
            )
        )
        assert [s.seed for s in serial] == list(range(60, 130))
        for workers in (2, 3, 4):
            pooled = list(
                make_bench(device).capture_segmented_batch(
                    70, coeffs_per_trace=2, first_seed=60,
                    segmenter=segmenter, refiner=refiner, workers=workers,
                )
            )
            assert_segmented_identical(serial, pooled)

    def test_early_grains_wait_for_seed_order(
        self, device, segmentation, monkeypatch
    ):
        """A slow first grain completes last; the batch still yields the
        serial records in seed order."""
        segmenter, refiner = segmentation
        serial = list(
            make_bench(device).capture_segmented_batch(
                70, coeffs_per_trace=2, first_seed=60,
                segmenter=segmenter, refiner=refiner,
            )
        )
        real = capture._segment_one

        def slow_first_seed(*args):
            if args[5] == 60:  # the seed
                time.sleep(0.5)
            return real(*args)

        monkeypatch.setattr(capture, "_segment_one", slow_first_seed)
        pooled = list(
            make_bench(device).capture_segmented_batch(
                70, coeffs_per_trace=2, first_seed=60,
                segmenter=segmenter, refiner=refiner, workers=3,
            )
        )
        assert_segmented_identical(serial, pooled)

    def test_closing_early_leaves_no_worker(self, device, segmentation):
        segmenter, refiner = segmentation
        batch = make_bench(device).capture_segmented_batch(
            200, coeffs_per_trace=2, first_seed=300,
            segmenter=segmenter, refiner=refiner, workers=2,
        )
        assert next(batch).seed == 300
        assert multiprocessing.active_children()
        batch.close()
        assert multiprocessing.active_children() == []

    def test_no_seeds_forks_nothing(self, device, segmentation, monkeypatch):
        def no_pool(*args):
            raise AssertionError("an empty batch forked a pool")

        monkeypatch.setattr(pool, "process_pool", no_pool)
        segmenter, refiner = segmentation
        assert list(
            make_bench(device).capture_segmented_batch(
                0, segmenter=segmenter, refiner=refiner, workers=2
            )
        ) == []

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
