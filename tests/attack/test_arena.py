"""Tests for the shared-memory slice arena (the orchestrator's data plane)."""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.attack.arena import SliceArena
from repro.errors import ParameterError, VerificationError


@pytest.fixture
def arena():
    arena = SliceArena(slots=4, slot_bytes=4096)
    yield arena
    arena.close()


class TestRoundTrip:
    def test_mixed_dtypes_and_shapes(self, arena):
        arrays = [
            np.arange(5, dtype=np.int64),
            np.ones((2, 3), dtype=np.float64) * 0.125,
            np.array([1, 0, 1], dtype=np.uint8),
            np.zeros((2, 2, 2, 2), dtype=np.float32),
        ]
        generation = arena.write(1, arrays)
        out = arena.read(1, generation)
        assert len(out) == len(arrays)
        for expected, got in zip(arrays, out):
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape
            np.testing.assert_array_equal(got, expected)

    def test_read_returns_copies(self, arena):
        generation = arena.write(0, [np.arange(4, dtype=np.int64)])
        first = arena.read(0, generation)[0]
        first[:] = -1
        second = arena.read(0, generation)[0]
        np.testing.assert_array_equal(second, np.arange(4))

    def test_float64_tables_bit_exact(self, arena):
        rng = np.random.default_rng(3)
        tables = rng.random((4, 8))
        generation = arena.write(2, [tables])
        out = arena.read(2, generation)[0]
        assert out.tobytes() == tables.tobytes()

    def test_generation_increments_per_write(self, arena):
        g1 = arena.write(0, [np.arange(2)])
        g2 = arena.write(0, [np.arange(3)])
        assert g2 == g1 + 1

    def test_packed_bytes_is_aligned_sum(self, arena):
        arrays = [np.zeros(3, dtype=np.uint8), np.zeros(5, dtype=np.int64)]
        assert SliceArena.packed_bytes(arrays) == 8 + 40


class TestProtocolErrors:
    def test_stale_generation_is_hard_error(self, arena):
        old = arena.write(0, [np.arange(2)])
        arena.write(0, [np.arange(2)])
        with pytest.raises(VerificationError, match="generation"):
            arena.read(0, old)

    def test_empty_slot_read_rejected(self, arena):
        with pytest.raises(VerificationError):
            arena.read(3)

    def test_oversize_record_rejected(self, arena):
        with pytest.raises(ParameterError, match="slots hold"):
            arena.write(0, [np.zeros(4097, dtype=np.uint8)])

    def test_too_many_arrays_rejected(self, arena):
        with pytest.raises(ParameterError):
            arena.write(0, [np.zeros(1)] * 17)

    def test_slot_index_bounds(self, arena):
        with pytest.raises(ParameterError):
            arena.write(4, [np.zeros(1)])

    def test_unsupported_dtype_rejected(self, arena):
        with pytest.raises(ParameterError, match="dtype"):
            arena.write(0, [np.array(["x"], dtype=object)])

    def test_constructor_validation(self):
        with pytest.raises(ParameterError):
            SliceArena(slots=0, slot_bytes=4096)
        with pytest.raises(ParameterError):
            SliceArena(slots=1, slot_bytes=8)
        with pytest.raises(ParameterError):
            SliceArena()


def _child_writer(name, slot, result_queue):
    arena = SliceArena(name=name)
    try:
        generation = arena.write(
            slot, [np.arange(6, dtype=np.int64), np.full(3, 2.5)]
        )
        result_queue.put(generation)
    finally:
        arena.close()


class TestCrossProcess:
    def test_pickle_reattaches_by_name(self, arena):
        generation = arena.write(0, [np.arange(8, dtype=np.int64)])
        clone = pickle.loads(pickle.dumps(arena))
        try:
            assert clone.name == arena.name
            np.testing.assert_array_equal(
                clone.read(0, generation)[0], np.arange(8)
            )
        finally:
            clone.close()

    def test_child_process_write_parent_read(self, arena):
        ctx = multiprocessing.get_context()
        queue = ctx.Queue()
        proc = ctx.Process(target=_child_writer, args=(arena.name, 2, queue))
        proc.start()
        generation = queue.get(timeout=30)
        proc.join(timeout=30)
        assert proc.exitcode == 0
        arrays = arena.read(2, generation)
        np.testing.assert_array_equal(arrays[0], np.arange(6))
        np.testing.assert_array_equal(arrays[1], np.full(3, 2.5))
