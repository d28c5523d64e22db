"""Per-backend kernel oracles for the compute-backend registry.

:mod:`repro.backends` promises that every accelerated kernel is
bit-exact against the inline numpy path it replaces.  This module turns
that promise into registered EXACT oracles: for every backend whose
capability probe succeeds (``native`` when a C compiler is present) it
registers one oracle per kernel group —

- ``backend.<name>.ntt`` — forward/inverse butterflies and the
  negacyclic pointwise product through :class:`~repro.ring.ntt
  .NttContext` (Shoup modular arithmetic lands on the same residues as
  the numpy ladder);
- ``backend.<name>.expand`` — event-log leakage expansion through
  :meth:`LeakageModel.expand` (float64: the compiled kernel mirrors the
  numpy expression trees operation for operation, compiled without FMA
  contraction);
- ``backend.<name>.noise`` — keyed measurement noise through
  :func:`repro.power.noise.add_noise` at an offset and
  :meth:`Oscilloscope.capture_keyed` with a gain, and sequential-stream
  noise through :meth:`Oscilloscope.capture` from a seeded generator of
  a random BitGenerator type (PCG64, Philox, MT19937, SFC64 or
  PCG64DXSM), compared as raw bits (so the sign of a zero and a NaN's
  payload count) together with the generator's next raw words after
  the capture.  Cases draw counts of 0 and 1, ranges that straddle or
  end on a 16,384-sample block boundary, streams long enough for
  numpy's tail and wedge draws, and NaN, infinite and ``-0.0`` input
  samples.  Fuzzable:
  ``python -m repro.verify fuzz backend.native.noise --cases 1000``.

Each fast side runs inside :func:`repro.backends.use_backend` so the
kernel under test is armed; each reference side pins ``use_backend
("reference")`` so the comparison target is always the inline numpy
path.  Probes that fail register nothing — on a host without a
compiler this module is a no-op and the registry is exactly
the pre-backend set.

Replay a failure like any other oracle::

    PYTHONPATH=src python -m repro.verify replay backend.native.ntt --case-seed 7
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.backends import available_backends, probe_backend, use_backend
from repro.verify.compare import EXACT
from repro.verify.oracles import (
    Oracle,
    _sample_leakage_case,
    _sample_ntt_case,
    register,
)


# ----------------------------------------------------------------------
# NTT: forward / inverse / negacyclic pointwise product
# ----------------------------------------------------------------------
def _ntt_with_backend(case: Dict[str, Any], backend: str) -> Dict[str, Any]:
    from repro.ring.ntt import get_ntt_context

    with use_backend(backend):
        context = get_ntt_context(case["modulus"], case["n"])
        forward = context.forward(case["a"])
        return {
            "forward": forward,
            "inverse": context.inverse(case["b"]),
            "roundtrip": context.inverse(forward),
            "product": context.multiply(case["a"], case["b"]),
        }


# ----------------------------------------------------------------------
# Leakage expansion
# ----------------------------------------------------------------------
def _expand_with_backend(case: Dict[str, Any], backend: str):
    with use_backend(backend):
        return case["model"].expand(case["events"])


# ----------------------------------------------------------------------
# Measurement noise: the keyed stream and a generator's own stream
# ----------------------------------------------------------------------
#: BitGenerator types of the sequential-stream case.
_BIT_GENERATORS = ("PCG64", "Philox", "MT19937", "SFC64", "PCG64DXSM")


def _untemper(y: int) -> int:
    """The MT19937 state word whose tempered output is ``y``."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(3):
        x = y ^ (x >> 11)
    return x & 0xFFFFFFFF


def planted_mt19937(seed: int) -> np.random.MT19937:
    """An MT19937 whose next standard normal is ``-0.0``.

    Its next 64-bit word is ``0x105``: ziggurat index 5, the sign bit
    set and ``rabs = 0``, a fast-path draw of ``-0.0 * wi[5]``.  Such a
    draw comes once in 2**52 otherwise; it is the one where ``loc +
    scale * z`` (``0.0 + std * -0.0 = 0.0``) differs from ``scale * z``.
    """
    bits = np.random.MT19937(seed)
    state = bits.state
    state["state"]["key"][:2] = [_untemper(0), _untemper(0x105)]
    state["state"]["pos"] = 0
    bits.state = state
    return bits


def _sample_noise_case(rng: np.random.Generator) -> Dict[str, Any]:
    from repro.power.noise import NOISE_BLOCK

    shape = rng.integers(0, 4)
    if shape == 0:  # tiny ranges anywhere
        count = int(rng.integers(0, 3))
        offset = int(rng.integers(0, 3 * NOISE_BLOCK))
    elif shape == 1:  # straddle, or end exactly on, a block boundary
        edge = int(rng.integers(1, 4)) * NOISE_BLOCK
        offset = edge - int(rng.integers(1, 2000))
        count = edge - offset + int(rng.choice([0, rng.integers(1, 2000)]))
    else:  # long streams: numpy's tail and wedge draws
        count = int(rng.integers(0, 60_000))
        offset = int(rng.integers(0, 50_000))
    samples = rng.normal(0.0, 4.0, count)
    if count and rng.random() < 0.3:
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
        where = rng.integers(0, count, size=min(count, 8))
        samples[where] = rng.choice(specials, size=where.size)
    case = {
        "entropy": int(rng.integers(0, 1 << 63)),
        "seed": int(rng.integers(0, 1 << 40)),
        "offset": offset,
        "samples": samples,
        "std": float(rng.choice([0.0, 0.37, 1.0, 2.5, rng.uniform(0.01, 10)])),
        "gain": float(rng.choice([1.0, -0.5, rng.uniform(0.1, 3.0)])),
        "bit_generator": str(rng.choice(_BIT_GENERATORS)),
        "generator_seed": int(rng.integers(0, 1 << 63)),
    }
    # Half the MT19937 cases start on a -0.0 draw over a sample that is
    # -0.0 after the gain, so the sum's sign tells the two forms apart.
    if case["bit_generator"] == "MT19937" and count and rng.random() < 0.5:
        case["planted"] = True
        samples[0] = -0.0 if case["gain"] > 0 else 0.0
    return case


def _noise_with_backend(case: Dict[str, Any], backend: str) -> Dict[str, Any]:
    from repro.power import noise
    from repro.power.scope import Oscilloscope

    scope = Oscilloscope(noise_std=case["std"], gain=case["gain"])
    with use_backend(backend):
        shifted = case["samples"].copy()
        noise.add_noise(
            shifted, case["entropy"], case["seed"], case["std"], case["offset"]
        )
        captured = scope.capture_keyed(
            case["samples"], case["entropy"], case["seed"]
        )
        if case.get("planted"):
            bits = planted_mt19937(case["generator_seed"])
        else:
            bits = getattr(np.random, case["bit_generator"])(case["generator_seed"])
        sequential = scope.capture(case["samples"], rng=np.random.Generator(bits))
    return {
        "add_noise": shifted.view(np.uint64),
        "capture_keyed": captured.view(np.uint64),
        "capture": sequential.view(np.uint64),
        "next_words": bits.random_raw(4),
    }


# ----------------------------------------------------------------------
# Registration: one oracle per (available backend, kernel group)
# ----------------------------------------------------------------------
#: Kernel groups: (oracle suffix, kernels that must all be present,
#: description tail).
_GROUPS: Tuple[Tuple[str, Tuple[str, ...], str], ...] = (
    (
        "ntt",
        ("ntt_forward", "ntt_inverse", "pointwise_mulmod"),
        "NTT forward/inverse + negacyclic pointwise product vs the "
        "inline numpy butterflies",
    ),
    (
        "expand",
        ("expand_events",),
        "leakage event expansion vs the vectorized numpy emitter",
    ),
    (
        "noise",
        ("add_noise",),
        "keyed Philox noise, sequential-stream noise from a caller's "
        "Generator and the scope gain vs numpy's standard_normal and "
        "normal paths",
    ),
)

#: Kernel group -> (case sampler, runner, case summary).
_CASES = {
    "ntt": (
        _sample_ntt_case,
        _ntt_with_backend,
        lambda case: f"q={case['modulus'].value}, n={case['n']}",
    ),
    "expand": (
        _sample_leakage_case,
        _expand_with_backend,
        lambda case: f"{len(case['events'])} events",
    ),
    "noise": (
        _sample_noise_case,
        _noise_with_backend,
        lambda case: (
            f"count={case['samples'].size}, offset={case['offset']}, "
            f"std={case['std']}, gain={case['gain']}, "
            f"{case['bit_generator']}({case['generator_seed']})"
            f"{', planted -0.0' if case.get('planted') else ''}"
        ),
    ),
}


def _register_backend_oracles() -> None:
    for backend in available_backends():
        if backend == "reference":
            continue
        declared = probe_backend(backend).kernels
        for suffix, kernels, tail in _GROUPS:
            if not all(k in declared for k in kernels):
                continue
            sample, run, summarize = _CASES[suffix]
            register(
                Oracle(
                    name=f"backend.{backend}.{suffix}",
                    description=f"{backend} backend: {tail} (bit-exact)",
                    sample=sample,
                    fast=lambda case, b=backend, run=run: run(case, b),
                    reference=lambda case, run=run: run(case, "reference"),
                    tolerance=EXACT,
                    fuzzable=suffix == "noise",
                    summarize=summarize,
                )
            )


_register_backend_oracles()
