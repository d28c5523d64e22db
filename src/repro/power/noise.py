"""Counter-based measurement-noise streams (noise stream v2).

The v1 batch-noise contract drew each trace's Gaussian noise from a
sequentially-generated ``default_rng(SeedSequence(entropy=(batch
entropy, seed)))`` stream — a pure function of ``(entropy, seed)``,
but one that can only be produced trace-at-a-time.  Stream v2 keeps
the exact same *contract* (per-seed determinism, capture-order and
worker-count invariance, identical marginal distribution) while making
the stream *addressable*: noise sample ``i`` of the ``(entropy,
seed)`` stream is element ``i % NOISE_BLOCK`` of Philox block
``i // NOISE_BLOCK``, and every block is keyed independently by
``(entropy, seed, block)``.  Any contiguous slice of the stream can
therefore be generated in one vectorized call, from any offset, by any
worker, with no sequential state.

Keying
    The per-stream 128-bit Philox key is
    ``SeedSequence(entropy=(entropy, seed)).generate_state(2)`` — the
    same entropy-pooling construction v1 used to seed its generator,
    so distinct ``(entropy, seed)`` pairs get independent keys.  Block
    ``b`` XORs ``b`` into the low key word: the Philox keyspace is
    flat, so every block is an independent counter-mode stream, and an
    offset continuation is *bit-identical by construction* to one-shot
    generation (both read the same blocks at the same positions; the
    ``standard_normal`` prefix of a block does not depend on how much
    of it is consumed).

Native twin
    Where the native backend builds against numpy's
    ``libnpyrandom.a``, :func:`add_noise` (and the scope's gain, folded
    into the same pass) runs in C (``reveal_add_noise`` in
    ``backends/native.c``) with the numpy path kept as its reference
    twin (``get_kernel("add_noise") is None`` selects it).  The kernel
    is exact by construction, not by tolerance:

    - the raw words are textbook Philox4x64-10 at counters 1, 2, 3, ...
      of the block key, four words per counter in order, which is what
      numpy's ``Philox`` yields, and the kernel crosses block
      boundaries itself, re-keying each block as :func:`_block_normals`
      does;
    - a draw ``r`` takes numpy's ziggurat fast path, ``x = (double)rabs
      * wi[idx]`` with the sign flipped through bit 63, exactly when
      ``rabs < ki[idx]``: the same integer compare, one exact int to
      double conversion and one multiply, so the same bits.  The tables
      are not copied but probed at load from numpy's own
      ``random_standard_normal`` (``rabs = 1`` returns ``wi[idx]``, a
      bisection on ``rabs`` finds ``ki[idx]``), then checked against it
      on edge and scrambled draws.  Index 1 has ``ki == 0``: it always
      takes the slow path, so its ``wi`` is never needed;
    - every other draw is pushed back and numpy's
      ``random_standard_normal`` takes it through a ``bitgen_t`` that
      replays the stream (``next_double`` is Philox's ``(r >> 11) *
      2**-53``), so the tail, the wedge and their libm calls are numpy's
      code;
    - ``out[i] * gain + z * std`` is evaluated as numpy's two in-place
      steps are (``-ffp-contract=off``: no FMA); with ``gain = 1`` the
      extra multiply is the identity on every value the addition can
      tell apart.

    The module digest covers numpy's version and the archive's SHA-256.
    Where the archive is missing or does not link, or a probe or the
    load-time check of a short stream against numpy fails, the kernel is
    absent and numpy runs.  :func:`standard_noise` itself stays numpy: filling a zero
    buffer would turn a ``-0.0`` draw into ``0.0``.

Sequential-stream twin
    Serial profiling draws its noise from the bench's own generator
    (:meth:`~repro.power.scope.Oscilloscope.capture`, ``out +=
    rng.normal(0.0, std, n)``), not from a keyed stream.
    :func:`sequential_noise` runs that in C too (``reveal_add_normal``),
    with a second word source under the same fast path:

    - words come from the caller's ``Generator`` through its public
      ``bitgen_t`` (``rng.bit_generator.ctypes.bit_generator``), one
      ``next_uint64`` per draw, under ``rng.bit_generator.lock`` as
      numpy's own methods hold it.  No generator's state layout is
      copied, so it works for every BitGenerator;
    - a draw takes the fast path on exactly numpy's test, with the
      tables and the code shared with the keyed kernel;
    - a rejected draw goes to numpy's ``random_standard_normal``
      through a replay ``bitgen_t`` that hands out the pushed-back word
      first and then forwards ``next_uint64``, ``next_uint32`` and
      ``next_double`` to the real generator.  So numpy's sampler reads
      the same words in the same order, with that generator's own
      ``next_double`` (MT19937's differs from PCG64's), and the
      generator ends in the state numpy leaves it in: every word the
      kernel reads is a word numpy's sampler reads;
    - ``out[i] * gain + (0.0 + std * z)`` is numpy's ``random_normal``
      (``loc + scale * z``) followed by ``+=``; the ``0.0 +`` is kept
      because it turns a ``-0.0`` product into ``0.0``.

    It declines what the keyed kernel declines, and a negative ``std``
    (``-0.0`` too), where numpy raises; a load-time check of a short
    PCG64 stream with slow-path draws (output bits and the generator's
    next word) must pass, or only this entry is absent.

The deliberate bit-compat break with v1 is versioned via
:data:`NOISE_STREAM_VERSION`; the ``power.noise_v2`` oracle in
:mod:`repro.verify.oracles` pins the statistical contract against the
retained v1 reference path.
"""

from __future__ import annotations

import numpy as np

from repro.backends import get_kernel

#: Bumped whenever the keyed-noise construction changes incompatibly.
#: Cached profiles and golden fixtures embed this (a stream change
#: silently reused against old templates would corrupt comparisons).
NOISE_STREAM_VERSION = 2

#: Samples per independently-keyed Philox block.  Large enough that a
#: typical single-coefficient trace stays within one block (one
#: generator construction per trace), small enough that a partially
#: consumed tail block wastes little work.
NOISE_BLOCK = 16384


def stream_key(entropy: int, seed: int) -> np.ndarray:
    """The 2x64-bit Philox key of the ``(entropy, seed)`` noise stream."""
    return np.random.SeedSequence(
        entropy=(int(entropy), int(seed))
    ).generate_state(2, np.uint64)


def _block_normals(base_key: np.ndarray, block: int, take: int) -> np.ndarray:
    """The first ``take`` standard normals of one keyed block."""
    key = base_key.copy()
    key[1] ^= np.uint64(block)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(take)


def standard_noise(entropy: int, seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Samples ``offset .. offset+count`` of the unit-variance stream.

    Pure function of ``(entropy, seed, offset, count)``: generating a
    stream in any partition of contiguous slices yields bit-identical
    samples to one-shot generation.
    """
    if offset < 0 or count < 0:
        raise ValueError("noise offset and count must be non-negative")
    out = np.empty(count, dtype=np.float64)
    if count == 0:
        return out
    base = stream_key(entropy, seed)
    pos = int(offset)
    end = pos + count
    while pos < end:
        block, lo = divmod(pos, NOISE_BLOCK)
        hi = min(end - block * NOISE_BLOCK, NOISE_BLOCK)
        out[pos - offset : pos - offset + (hi - lo)] = _block_normals(
            base, block, hi
        )[lo:]
        pos += hi - lo
    return out


def add_noise(
    out: np.ndarray, entropy: int, seed: int, std: float, offset: int = 0
) -> None:
    """Add ``std``-scaled stream noise to ``out`` in place.

    This is the single noise entry point of the per-trace capture path
    (:meth:`~repro.power.scope.Oscilloscope.capture_keyed`): it adds
    ``standard_noise(...) * std`` with one in-place ``+=``, so every
    engine produces bit-identical traces for the same ``(entropy,
    seed)`` regardless of worker count or capture order.  The native
    kernel, where it runs, computes the same bits in one pass.
    """
    if std > 0 and out.size:
        if scaled_noise(out, out, entropy, seed, 1.0, std, offset) is None:
            out += standard_noise(entropy, seed, out.size, offset) * std


def scaled_noise(
    samples: np.ndarray,
    out,
    entropy: int,
    seed: int,
    gain: float,
    std: float,
    offset: int = 0,
):
    """The native kernel's ``samples * gain`` plus ``std``-scaled stream
    noise, into ``out`` (``None``: a new array; it may be ``samples``).

    Returns the result, or ``None`` where the kernel is absent or
    declines the arrays; the caller then runs the numpy twin, ``out =
    samples * gain`` followed by :func:`add_noise`.
    """
    kernel = get_kernel("add_noise")
    if kernel is None:
        return None
    return kernel(samples, out, stream_key(entropy, seed), offset, gain, std)


def sequential_noise(
    samples: np.ndarray,
    out,
    rng: np.random.Generator,
    gain: float,
    std: float,
):
    """:func:`scaled_noise` for the sequential stream of ``rng``: the
    native kernel's ``samples * gain + (0.0 + std * z)`` with ``z`` the
    next standard normals of ``rng``, which it leaves where ``out *=
    gain; out += rng.normal(0.0, std, out.size)`` would.

    Returns ``None`` where the kernel is absent or declines (a negative
    ``std`` included); the caller then runs that numpy twin.
    """
    kernel = get_kernel("add_normal")
    if kernel is None:
        return None
    return kernel(samples, out, rng, gain, std)
