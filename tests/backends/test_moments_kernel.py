"""The native ``moments_merge`` kernel against numpy, bit for bit.

:meth:`RunningMoments.merge` forms Chan's scatter update in four numpy
passes; the kernel makes the same sums in one.  Every comparison here
is on raw bits."""

import numpy as np
import pytest

from repro.attack.template import RunningMoments
from repro.backends import probe_backend, use_backend

pytestmark = pytest.mark.skipif(
    probe_backend("native") is None, reason="no C toolchain"
)


def _moments(seed: int, count: int, length: int = 40) -> RunningMoments:
    rng = np.random.default_rng(seed)
    return RunningMoments(length).update(rng.normal(3.0, 2.0, (count, length)))


def _merged(backend: str, block, parts):
    with use_backend(backend):
        total = RunningMoments(parts[0].mean.size)
        for part in parts:
            total.merge(part, block)
    return total


@pytest.mark.parametrize(
    "block", [None, slice(None), slice(5, 31), slice(0, 0), slice(12, None)]
)
def test_merge_matches_numpy(block):
    parts = [_moments(seed, count) for seed, count in enumerate((1, 7, 30, 2, 64))]
    native, reference = _merged("native", block, parts), _merged(
        "reference", block, parts
    )
    assert native.count == reference.count
    assert native.mean.tobytes() == reference.mean.tobytes()
    assert native.scatter.tobytes() == reference.scatter.tobytes()


def test_update_matches_numpy():
    rng = np.random.default_rng(3)
    batches = [rng.normal(size=(k, 50)) for k in (5, 32, 1, 17)]
    results = []
    for backend in ("native", "reference"):
        with use_backend(backend):
            moments = RunningMoments(50)
            for batch in batches:
                moments.update(batch)
        results.append(moments.scatter.tobytes())
    assert results[0] == results[1]


def test_self_merge_matches_numpy():
    results = []
    for backend in ("native", "reference"):
        moments = _moments(4, 9)
        with use_backend(backend):
            moments.merge(moments)
        results.append((moments.count, moments.scatter.tobytes()))
    assert results[0] == results[1]


def test_declines_what_it_cannot_address():
    kernel = probe_backend("native").kernels["moments_merge"]
    a, b = _moments(1, 5), _moments(2, 5)
    delta = b.mean - a.mean
    assert not kernel(a.scatter, b.scatter, delta, slice(0, 40, 2), 1.0)
    assert not kernel(np.asfortranarray(a.scatter), b.scatter, delta, slice(None), 1.0)
    assert not kernel(a.scatter, b.scatter[:, :39], delta, slice(None), 1.0)
    assert not kernel(a.scatter, b.scatter.astype(np.float32), delta, slice(None), 1.0)
    frozen = a.scatter.copy()
    frozen.flags.writeable = False
    assert not kernel(frozen, b.scatter, delta, slice(None), 1.0)
    # a strided block falls back to numpy with the same result
    merged = []
    for backend in ("native", "reference"):
        with use_backend(backend):
            merged.append(_moments(1, 5).merge(b, slice(0, 40, 2)).scatter.tobytes())
    assert merged[0] == merged[1]
