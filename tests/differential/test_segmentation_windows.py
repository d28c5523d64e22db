"""Differential: the native segmentation kernel vs the numpy path.

The ``segmentation.windows`` oracle runs ``Segmenter.windows`` and
``aligned_slices`` (with and without an anchor refiner) on the native
backend and on the numpy reference path.  Every window, anchor, slice
and error must match bit for bit, including bursts that start exactly
on a window boundary.
"""

import numpy as np
from hypothesis import given

from repro.attack.segmentation import SegmenterConfig
from repro.verify.oracles import get_oracle
from tests.differential.helpers import assert_ok
from tests.strategies import case_seeds

ORACLE = get_oracle("segmentation.windows")


@given(case_seeds)
def test_windows_match_reference_seeded(seed):
    assert_ok(ORACLE.check_seed(seed))


def test_burst_on_window_boundary():
    # unsmoothed envelopes detect each log burst at its first sample, so
    # the engine burst it forms starts exactly at w_start of its own
    # window and at w_end of the previous one.  Window 0's last pair has
    # too short a quiet gap, so its anchor falls back to its last burst
    # (the next log burst if w_end were inclusive); window 1 holds only
    # its log burst (no anchor at all if w_start were exclusive).
    log_burst, pair = np.ones(800), np.ones(90)
    samples = np.concatenate(
        [np.zeros(200), log_burst, np.zeros(40), pair, np.zeros(50),
         log_burst, np.zeros(200)]
    )
    case = {
        "samples": samples,
        "config": SegmenterConfig(envelope_window=1, frac_window=1),
    }
    assert ORACLE.fast(case)["windows"] == [
        (0, 200, 1180, 1130),
        (1, 1180, 2180, 1980),
    ]
    assert_ok(ORACLE.check_case(case))
