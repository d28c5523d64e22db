"""Per-backend kernel oracles for the compute-backend registry.

:mod:`repro.backends` promises that every accelerated kernel is either
bit-exact against the inline numpy path it replaces or numerically
equivalent within a declared :class:`~repro.verify.compare.Tolerance`.
This module turns that promise into registered oracles: for every
backend whose capability probe succeeds (``native`` when a C compiler
is present) it registers one oracle per kernel group —

- ``backend.<name>.ntt`` — forward/inverse butterflies and the
  negacyclic pointwise product through :class:`~repro.ring.ntt
  .NttContext` (bit-exact: Shoup modular arithmetic lands on the same
  residues as the numpy ladder);
- ``backend.<name>.expand`` — event-log leakage expansion through
  :meth:`LeakageModel.expand` (bit-exact float64: the compiled kernel
  mirrors the numpy expression trees operation for operation, compiled
  without FMA contraction);
- ``backend.<name>.template`` — pooled and per-class Mahalanobis
  log-likelihood matrices (Tolerance: the compiled quadratic form
  necessarily reduces in a different order than ``np.einsum``).

Each fast side runs inside :func:`repro.backends.use_backend` so the
kernel under test is actually armed (including non-exact kernels, which
auto-probe withholds); each reference side pins ``use_backend
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

from repro.backends import available_backends, kernel_exactness, use_backend
from repro.verify.compare import EXACT, Tolerance
from repro.verify.oracles import (
    Oracle,
    _sample_leakage_case,
    _sample_ntt_case,
    register,
)

#: The compiled quadratic form accumulates in a different order than
#: ``np.einsum``; on well-conditioned template matrices the drift is
#: ~1e-15 relative, so 1e-9 (the repo's standard float envelope, and
#: what the template-matrix tests pin) leaves ample headroom.
_TEMPLATE_TOLERANCE = Tolerance(rtol=1e-9, atol=1e-9)


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
# Template matching
# ----------------------------------------------------------------------
def _sample_template_case(rng: np.random.Generator) -> Dict[str, Any]:
    """A synthetic template set plus a batch of slices to score."""
    from repro.attack.template import TemplateSet

    k = int(rng.integers(2, 12))
    length = k + int(rng.integers(1, 60))

    def spd(size: int) -> np.ndarray:
        basis = rng.normal(0.0, 1.0, (size, size))
        return basis @ basis.T + size * np.eye(size)

    labels = sorted(
        int(v)
        for v in rng.choice(
            np.arange(-14, 15), size=int(rng.integers(2, 9)), replace=False
        )
    )
    pois = sorted(int(p) for p in rng.choice(length, size=k, replace=False))
    means = {label: rng.normal(0.0, 5.0, k) for label in labels}
    priors = None
    if rng.random() < 0.5:
        raw = rng.uniform(0.05, 1.0, len(labels))
        priors = {
            label: float(p / raw.sum()) for label, p in zip(labels, raw)
        }
    class_precisions = class_log_dets = None
    if rng.random() < 0.5:  # per-class covariance path
        class_precisions = {label: spd(k) for label in labels}
        class_log_dets = {
            label: float(rng.normal(0.0, 2.0)) for label in labels
        }
    templates = TemplateSet(
        pois=pois,
        means=means,
        precision=spd(k),
        priors=priors,
        class_precisions=class_precisions,
        class_log_dets=class_log_dets,
    )
    slices = rng.normal(0.0, 5.0, (int(rng.integers(1, 16)), length))
    return {"templates": templates, "slices": slices}


def _template_with_backend(case: Dict[str, Any], backend: str) -> np.ndarray:
    with use_backend(backend):
        return case["templates"].log_likelihoods_matrix(case["slices"])


# ----------------------------------------------------------------------
# Registration: one oracle per (available backend, kernel group)
# ----------------------------------------------------------------------
#: Kernel groups: (oracle suffix, kernels that must all be present,
#: description tail).  Exactness is read off the backend's declarations
#: — a group whose kernels all declare ``exact=True`` registers an
#: EXACT oracle, otherwise the declared Tolerance applies.
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
        "template",
        ("template_quad",),
        "pooled/per-class Mahalanobis log-likelihood matrices vs "
        "np.einsum",
    ),
)


def _register_backend_oracles() -> None:
    for backend in available_backends():
        if backend == "reference":
            continue
        exactness = kernel_exactness(backend)
        for suffix, kernels, tail in _GROUPS:
            if not all(k in exactness for k in kernels):
                continue
            exact = all(exactness[k] for k in kernels)
            if suffix == "ntt":
                fast = (
                    lambda case, b=backend: _ntt_with_backend(case, b)
                )
                reference = lambda case: _ntt_with_backend(case, "reference")
                sample = _sample_ntt_case
                summarize = (
                    lambda case: f"q={case['modulus'].value}, n={case['n']}"
                )
            elif suffix == "expand":
                fast = (
                    lambda case, b=backend: _expand_with_backend(case, b)
                )
                reference = (
                    lambda case: _expand_with_backend(case, "reference")
                )
                sample = _sample_leakage_case
                summarize = lambda case: f"{len(case['events'])} events"
            else:  # template
                fast = (
                    lambda case, b=backend: _template_with_backend(case, b)
                )
                reference = (
                    lambda case: _template_with_backend(case, "reference")
                )
                sample = _sample_template_case
                summarize = (
                    lambda case: f"{len(case['templates'].labels)} classes, "
                    f"{case['slices'].shape[0]} slices, "
                    f"{len(case['templates'].pois)} POIs"
                )
            register(
                Oracle(
                    name=f"backend.{backend}.{suffix}",
                    description=f"{backend} backend: {tail} "
                    + ("(bit-exact)" if exact else "(declared tolerance)"),
                    sample=sample,
                    fast=fast,
                    reference=reference,
                    tolerance=EXACT if exact else _TEMPLATE_TOLERANCE,
                    summarize=summarize,
                )
            )


_register_backend_oracles()
