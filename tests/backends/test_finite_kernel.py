"""The native ``all_finite`` kernel against ``np.isfinite(x).all()``.

:class:`~repro.power.capture.CapturedTrace` validates every captured
trace through it wherever the native backend builds, so it must agree
with numpy on every special value, at every position and length.
"""

import numpy as np
import pytest

from repro.backends import probe_backend

pytestmark = pytest.mark.skipif(
    probe_backend("native") is None, reason="no C toolchain"
)


@pytest.fixture(scope="module")
def all_finite():
    return probe_backend("native").kernels["all_finite"]


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 31, 1000])
def test_agrees_with_numpy(all_finite, n):
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 1e300, n)
    assert all_finite(x) is True
    for bad in (np.nan, np.inf, -np.inf):
        for where in {0, n // 2, n - 1} if n else ():
            y = x.copy()
            y[where] = bad
            assert all_finite(y) is bool(np.isfinite(y).all()) is False


def test_extremes_are_finite(all_finite):
    tiny = np.finfo(np.float64).tiny
    x = np.array([np.finfo(np.float64).max, -np.finfo(np.float64).max, 5e-324,
                  -0.0, tiny] * 5)
    assert all_finite(x) is True


def test_strided_input(all_finite):
    x = np.arange(40, dtype=np.float64)
    x[3] = np.inf
    assert all_finite(x[::2]) is True
    assert all_finite(x[1::2]) is False
