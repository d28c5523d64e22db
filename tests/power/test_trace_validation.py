"""Capture-record validation: empty / NaN traces fail fast and clearly."""

import numpy as np
import pytest

from repro.errors import AttackError, TraceValidationError
from repro.attack.segmentation import Segmenter
from repro.power.capture import CapturedTrace, SegmentedCapture
from repro.power.trace import Trace


def _captured(samples, **overrides):
    record = dict(
        trace=Trace(np.asarray(samples, dtype=np.float64)),
        values=[1],
        seed=7,
        cycle_count=100,
    )
    record.update(overrides)
    return CapturedTrace(**record)


class TestCapturedTrace:
    def test_valid_trace_accepted(self):
        record = _captured(np.ones(16))
        assert record.trace is not None

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceValidationError, match="seed 7 is empty"):
            _captured(np.array([]))

    def test_nan_trace_rejected(self):
        samples = np.ones(16)
        samples[3] = np.nan
        with pytest.raises(TraceValidationError, match="1 non-finite"):
            _captured(samples)

    def test_inf_trace_rejected(self):
        samples = np.ones(16)
        samples[0] = np.inf
        samples[5] = -np.inf
        with pytest.raises(TraceValidationError, match="2 non-finite"):
            _captured(samples)

    def test_error_is_a_value_error(self):
        # Catchable both as the repro hierarchy and as stdlib ValueError.
        with pytest.raises(ValueError):
            _captured(np.array([]))


class TestSegmentedCapture:
    def _segmented(self, slices, error=None):
        return SegmentedCapture(
            slices=slices, values=[1, 2], seed=9, cycle_count=500, error=error
        )

    def test_valid_slices_accepted(self):
        record = self._segmented(np.ones((2, 32)))
        assert record.ok

    def test_failure_record_accepted(self):
        record = self._segmented(None, error="no bursts")
        assert not record.ok

    def test_zero_row_matrix_accepted(self):
        # "Segmented fine, found no windows" is a legitimate outcome.
        assert self._segmented(np.empty((0, 32))).ok

    def test_zero_length_slices_rejected(self):
        with pytest.raises(TraceValidationError, match="unusable slice shape"):
            self._segmented(np.empty((2, 0)))

    def test_wrong_rank_rejected(self):
        with pytest.raises(TraceValidationError, match="unusable slice shape"):
            self._segmented(np.ones(32))

    def test_nan_slices_rejected(self):
        slices = np.ones((3, 16))
        slices[1, 4] = np.nan
        with pytest.raises(TraceValidationError, match="non-finite"):
            self._segmented(slices)


class TestSegmenterGuards:
    def test_empty_trace_raises_attack_error(self):
        with pytest.raises(AttackError, match="empty trace"):
            Segmenter().windows(np.array([]))

    def test_non_finite_trace_raises_attack_error(self):
        samples = np.ones(4096)
        samples[100] = np.nan
        with pytest.raises(AttackError, match="non-finite"):
            Segmenter().windows(samples)
