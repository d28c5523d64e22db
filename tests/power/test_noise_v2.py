"""Noise stream v2: counter-based keying and the batch capture contract.

The stream-v2 migration replaced the per-trace sequential generator
with counter-based Philox streams keyed by ``(batch entropy, seed)``.
These tests pin the guarantees the rest of the bench builds on:
bit-identical output across engines, worker counts and capture order;
addressable offsets (mid-stream re-entry equals the one-shot draw,
including across block boundaries); and the explicit refusal to derive
a batch entropy from caller-owned generator state.
"""

import numpy as np
import pytest

from repro.attack.segmentation import Segmenter
from repro.errors import ParameterError
from repro.power import noise
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.riscv.device import GaussianSamplerDevice
from tests.native_probe import pin_threaded

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


class TestStreamAddressing:
    def test_deterministic(self):
        a = noise.standard_noise(12345, 42, 5000)
        b = noise.standard_noise(12345, 42, 5000)
        np.testing.assert_array_equal(a, b)

    def test_offset_continuation_within_block(self):
        full = noise.standard_noise(9, 3, 1000)
        head = noise.standard_noise(9, 3, 400)
        tail = noise.standard_noise(9, 3, 600, offset=400)
        np.testing.assert_array_equal(np.concatenate([head, tail]), full)

    def test_offset_continuation_across_block_boundary(self):
        n = 3 * noise.NOISE_BLOCK + 17
        full = noise.standard_noise(9, 3, n)
        for off in (
            noise.NOISE_BLOCK - 1,
            noise.NOISE_BLOCK,
            noise.NOISE_BLOCK + 1,
            2 * noise.NOISE_BLOCK + 5,
        ):
            head = noise.standard_noise(9, 3, off)
            tail = noise.standard_noise(9, 3, n - off, offset=off)
            np.testing.assert_array_equal(np.concatenate([head, tail]), full)

    def test_distinct_seeds_distinct_streams(self):
        a = noise.standard_noise(77, 1, 256)
        b = noise.standard_noise(77, 2, 256)
        assert not np.array_equal(a, b)

    def test_distinct_entropies_distinct_streams(self):
        a = noise.standard_noise(1, 5, 256)
        b = noise.standard_noise(2, 5, 256)
        assert not np.array_equal(a, b)

    def test_add_noise_scales_and_accumulates(self):
        base = np.linspace(-1.0, 1.0, 500)
        out = base.copy()
        noise.add_noise(out, 11, 4, 0.25)
        np.testing.assert_array_equal(
            out, base + noise.standard_noise(11, 4, 500) * 0.25
        )

    def test_zero_count(self):
        assert noise.standard_noise(1, 1, 0).shape == (0,)

    def test_marginal_moments(self):
        x = noise.standard_noise(2026, 8, 200_000)
        assert abs(float(x.mean())) < 0.02
        assert abs(float(x.var()) - 1.0) < 0.02


class TestCaptureDeterminism:
    def test_worker_count_invariant(self, device):
        """Three pooled workers on the default engine segment the same
        keyed traces the serial batch captures."""
        segmenter = Segmenter()
        serial = make_bench(device).capture_batch(
            12, coeffs_per_trace=2, first_seed=50
        )
        pooled = list(
            make_bench(device).capture_segmented_batch(
                12, coeffs_per_trace=2, first_seed=50,
                segmenter=segmenter, workers=3,
            )
        )
        assert [p.seed for p in pooled] == [c.seed for c in serial]
        for captured, segmented in zip(serial, pooled):
            assert segmented.values == captured.values
            assert segmented.cycle_count == captured.cycle_count
            np.testing.assert_array_equal(
                segmented.slices, segmenter.aligned_slices(captured.trace.samples)
            )

    def test_engine_invariant(self, device, monkeypatch):
        """Threaded captures (the native probe failing, as without a C
        toolchain) equal the default engine's."""
        default = make_bench(device).capture_batch(
            9, coeffs_per_trace=1, first_seed=200
        )
        pin_threaded(monkeypatch)
        threaded = make_bench(device).capture_batch(
            9, coeffs_per_trace=1, first_seed=200
        )
        assert_batches_identical(default, threaded)

    def test_capture_order_invariant(self, device):
        # Seed 105 captured alone, in a later chunk, or mid-batch must
        # carry the same noise: the stream is keyed, not positional.
        wide = make_bench(device).capture_batch(8, first_seed=100)
        alone = make_bench(device).capture_batch(1, first_seed=105)
        np.testing.assert_array_equal(
            wide[5].trace.samples, alone[0].trace.samples
        )

    def test_compiled_matches_threaded(self, device, monkeypatch):
        compiled = make_bench(device).capture_batch(
            6, coeffs_per_trace=2, first_seed=31
        )
        pin_threaded(monkeypatch)
        threaded = make_bench(device).capture_batch(
            6, coeffs_per_trace=2, first_seed=31
        )
        assert_batches_identical(compiled, threaded)


class TestBatchEntropyContract:
    def test_external_generator_refused(self, device):
        bench = TraceAcquisition(device, rng=np.random.default_rng(3))
        with pytest.raises(ParameterError, match="externally-advanced"):
            bench.batch_entropy()

    def test_external_generator_still_captures_sequentially(self, device):
        # Only the *batch* entropy is refused; the sequential-noise
        # single capture path keeps working with a caller generator.
        bench = TraceAcquisition(device, rng=np.random.default_rng(3))
        captured = bench.capture(seed=5, count=1)
        assert captured.trace.samples.size > 0

    def test_integer_seed_pins_entropy(self, device):
        assert make_bench(device, seed=9).batch_entropy() == 9
        bench = TraceAcquisition(device, rng=None)
        assert bench.batch_entropy() == bench.batch_entropy()


class TestSerialPath:
    def test_serial_capture_preserves_ground_truth(self, device):
        """Serial ``capture`` (the bench's sequential noise stream) and
        ``capture_batch`` (the keyed stream) see the same execution."""
        bench = make_bench(device)
        serial = [bench.capture(seed, 2) for seed in (1, 2, 3)]
        batch = make_bench(device).capture_batch(3, coeffs_per_trace=2)
        for a, b in zip(serial, batch):
            assert a.seed == b.seed
            assert a.values == b.values
            assert a.cycle_count == b.cycle_count
            np.testing.assert_array_equal(a.event_starts, b.event_starts)
            # Same kernel, same noiseless leakage — only the noise
            # stream differs, so the traces differ but agree closely in
            # the mean (noise is zero-mean on both sides).
            assert a.trace.samples.shape == b.trace.samples.shape
            assert not np.array_equal(a.trace.samples, b.trace.samples)
            drift = abs(
                float(a.trace.samples.mean()) - float(b.trace.samples.mean())
            )
            assert drift < 8.0 / np.sqrt(a.trace.samples.size)
