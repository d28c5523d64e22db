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
  contraction).

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
)


def _register_backend_oracles() -> None:
    for backend in available_backends():
        if backend == "reference":
            continue
        declared = probe_backend(backend).kernels
        for suffix, kernels, tail in _GROUPS:
            if not all(k in declared for k in kernels):
                continue
            if suffix == "ntt":
                fast = (
                    lambda case, b=backend: _ntt_with_backend(case, b)
                )
                reference = lambda case: _ntt_with_backend(case, "reference")
                sample = _sample_ntt_case
                summarize = (
                    lambda case: f"q={case['modulus'].value}, n={case['n']}"
                )
            else:  # expand
                fast = (
                    lambda case, b=backend: _expand_with_backend(case, b)
                )
                reference = (
                    lambda case: _expand_with_backend(case, "reference")
                )
                sample = _sample_leakage_case
                summarize = lambda case: f"{len(case['events'])} events"
            register(
                Oracle(
                    name=f"backend.{backend}.{suffix}",
                    description=f"{backend} backend: {tail} (bit-exact)",
                    sample=sample,
                    fast=fast,
                    reference=reference,
                    tolerance=EXACT,
                    summarize=summarize,
                )
            )


_register_backend_oracles()
