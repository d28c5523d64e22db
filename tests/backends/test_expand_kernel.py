"""The native leakage-expansion kernel against the numpy path.

``expand_events`` reads the event log's ``(n, 8)`` rows in place and
computes the cycle offsets, every sample and the baseline padding
itself.  It must give ``LeakageModel.expand``'s numpy output bit for bit
(the ``backend.native.expand`` oracle sweeps random event mixes), copy
no event column, and leave every op class outside the cycle table to
the numpy path.
"""

import tracemalloc

import numpy as np
import pytest

from repro.backends import probe_backend, use_backend
from repro.power.leakage import LeakageModel
from repro.riscv import cycles as cy
from repro.riscv.cpu import ExecutionEvent
from repro.riscv.device import GaussianSamplerDevice

pytestmark = pytest.mark.skipif(
    probe_backend("native") is None, reason="no C toolchain"
)


def _both(events, model=None):
    model = model or LeakageModel()
    with use_backend("native"):
        fast = model.expand(events)
    with use_backend("reference"):
        slow = model.expand(events)
    return fast, slow


@pytest.fixture(scope="module")
def run():
    return GaussianSamplerDevice([132120577, 0xFFC4001]).run(5, count=64)


def test_device_log_bit_identical(run):
    (samples, starts), (want, want_starts) = _both(run.events)
    assert samples.tobytes() == want.tobytes()
    np.testing.assert_array_equal(starts, want_starts)
    assert len(samples) == run.cycle_count


def test_every_op_class_pads_to_its_cycle_count():
    model = LeakageModel(baseline=2.5, engine_offset=7.0)
    events = [
        ExecutionEvent(op, 0x13 + op, 5, 3, 0xFFFF, 9, 64, 4 * op)
        for op in range(len(cy.CYCLES))
    ]
    (samples, starts), (want, want_starts) = _both(events, model)
    assert samples.tobytes() == want.tobytes()
    np.testing.assert_array_equal(starts, want_starts)
    assert len(samples) == sum(cy.CYCLES.values())


def test_reads_the_log_in_place(run):
    # the kernel's own allocations are its two outputs: no event column
    # (7 x 8 bytes per event) is copied on the way in
    model = LeakageModel()
    with use_backend("native"):
        model.expand(run.events)  # warm
        tracemalloc.start()
        try:
            samples, starts = model.expand(run.events)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < samples.nbytes + starts.nbytes + 8 * len(starts)


@pytest.mark.parametrize("op", [len(cy.CYCLES), 99])
def test_out_of_range_op_class_takes_the_numpy_path(op):
    events = [
        ExecutionEvent(cy.OP_ALU, 1, 2, 3, 4, 5, 6, 0),
        ExecutionEvent(op, 1, 2, 3, 4, 5, 6, 4),
    ]
    for backend in ("native", "reference"):
        with use_backend(backend), pytest.raises(IndexError):
            LeakageModel().expand(events)
