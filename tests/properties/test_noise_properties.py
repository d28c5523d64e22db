"""Property-based checks of the counter-based noise stream keying.

The ``(entropy, seed, offset)`` addressing of :mod:`repro.power.noise`
is what makes batch capture order-free: any consumer may
draw any contiguous span of any trace's stream, in any order, and the
result must match the one-shot draw bit for bit.  Hypothesis sweeps the
keying space — arbitrary split points (including block boundaries),
seed/entropy separation, and the ``add_noise`` accumulation contract.

Failing examples replay via the printed ``standard_noise`` arguments.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.power import noise

entropies = st.integers(0, 2**63 - 1)
seeds = st.integers(0, 2**31 - 1)
# Spans up to a few blocks keep cases fast while still crossing the
# NOISE_BLOCK boundary in a healthy fraction of draws.
counts = st.integers(1, 3 * noise.NOISE_BLOCK)


@given(entropy=entropies, seed=seeds, n=counts, data=st.data())
def test_offset_continuation_matches_one_shot(entropy, seed, n, data):
    split = data.draw(st.integers(0, n), label="split")
    full = noise.standard_noise(entropy, seed, n)
    head = noise.standard_noise(entropy, seed, split)
    tail = noise.standard_noise(entropy, seed, n - split, offset=split)
    np.testing.assert_array_equal(np.concatenate([head, tail]), full)


@given(entropy=entropies, seed=seeds, n=st.integers(64, 4096))
def test_no_collisions_across_seeds(entropy, seed, n):
    base = noise.standard_noise(entropy, seed, n)
    for other in (seed + 1, seed ^ 1, (seed + 12345) % 2**31):
        if other == seed:
            continue
        assert not np.array_equal(
            base, noise.standard_noise(entropy, other, n)
        )


@given(seed=seeds, entropy=entropies, n=st.integers(64, 4096))
def test_no_collisions_across_entropies(seed, entropy, n):
    base = noise.standard_noise(entropy, seed, n)
    other = (entropy + 1) % 2**63
    assert not np.array_equal(base, noise.standard_noise(other, seed, n))


@given(entropy=entropies, seed=seeds, n=counts, offset=st.integers(0, 2**20))
def test_stream_is_a_pure_function_of_its_key(entropy, seed, n, offset):
    a = noise.standard_noise(entropy, seed, n, offset=offset)
    b = noise.standard_noise(entropy, seed, n, offset=offset)
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.float64
    assert np.isfinite(a).all()


@given(
    entropy=entropies,
    seed=seeds,
    n=st.integers(1, 2048),
    std=st.floats(0.0, 4.0, allow_nan=False),
)
def test_add_noise_is_scaled_stream_addition(entropy, seed, n, std):
    base = np.arange(n, dtype=np.float64)
    out = base.copy()
    noise.add_noise(out, entropy, seed, std)
    np.testing.assert_array_equal(
        out, base + noise.standard_noise(entropy, seed, n) * std
    )
