"""Capability-probed compute-backend registry for the numeric hot kernels.

PRs 5-6 pushed the single-core pipeline to the point where numpy
dispatch overhead (~15 C-API calls per vector instruction) and Python
kernel glue are the floor; Intel HEXL makes the case that SEAL-class
workloads get their remaining order of magnitude from *dedicated
kernels*, not better algorithms.  This package is that layer for the
reproduction: the numeric hot kernels — NTT butterflies, negacyclic
pointwise products, leakage expansion and template matching — are
abstracted behind a uniform :func:`get_backend` / :func:`get_kernel`
interface with pluggable implementations.

Backends
--------
``reference``
    Always present.  It carries *no* kernel overrides: a call site that
    gets ``None`` from :func:`get_kernel` falls through to its existing
    vectorized numpy path, which stays the semantic twin every other
    backend is verified against.
``native``
    C kernels compiled once per machine through ``cffi`` + the system C
    compiler (``-O3 -ffp-contract=off``; the contraction barrier keeps
    float kernels bit-identical to numpy's non-fused arithmetic).  The
    shared object is cached on disk keyed by the C source hash, so
    probes after the first are a plain import and forked pool workers
    inherit the loaded library.  Probing never raises when no compiler
    is present — the registry silently falls back to ``reference``.

Selection
---------
Resolution is lazy (first :func:`get_backend` call, never at import)
and picks the available backend with the highest priority.  The
``REVEAL_BACKEND`` environment variable or an explicit
:func:`set_backend` call overrides the probe; unknown names raise
:class:`~repro.errors.ParameterError` listing the valid options at
parse time, not as a ``KeyError`` deep in dispatch.

Bit-exactness contract
----------------------
Every kernel declares whether it is bit-exact against the reference
twin.  Exact kernels (integer NTT/pointwise arithmetic, leakage
expansion whose float evaluation order is mirrored operation for
operation) are drop-in and enabled whenever a compiled
backend probes available.  Non-exact kernels (the template Mahalanobis
form, whose reduction order necessarily differs from ``np.einsum``)
change last bits and are enabled only when the backend was *explicitly*
selected — via ``REVEAL_BACKEND``, ``repro.reproduce --backend`` or
:func:`set_backend` — so default outputs stay bit-identical across
machines with and without a compiler (the golden fixtures depend on
that).  Either way ``repro.verify`` registers one oracle per backend
kernel against the reference (bit-exact or a declared ``Tolerance``),
so the differential harness enforces the contract automatically.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.errors import ParameterError

#: Canonical backend names, in the order reported to users.
BACKEND_NAMES = ("reference", "native")


@dataclass(frozen=True)
class Kernel:
    """One backend implementation of a named hot kernel.

    ``exact`` declares the verification contract: ``True`` means the
    kernel's output is bit-identical to the reference twin (enforced by
    an exact oracle); ``False`` means it is numerically equivalent
    within a declared :class:`repro.verify.Tolerance` and is therefore
    only used when the backend was explicitly selected.
    """

    fn: Callable
    exact: bool = True


@dataclass
class Backend:
    """A named set of kernel implementations plus probe metadata."""

    name: str
    version: str
    priority: int
    kernels: Dict[str, Kernel] = field(default_factory=dict)

    @property
    def ident(self) -> str:
        """Stable ``name-version`` identifier for cache keys/reports."""
        return f"{self.name}-{self.version}"

    def kernel_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.kernels))


# ----------------------------------------------------------------------
# Probing
# ----------------------------------------------------------------------
def _build_reference() -> Backend:
    import numpy

    # No kernel overrides: call sites keep their inline numpy hot paths.
    return Backend(name="reference", version=numpy.__version__, priority=0)


def _build_native() -> Backend:
    from repro.backends import native

    return native.build_backend()


_FACTORIES: Dict[str, Callable[[], Backend]] = {
    "reference": _build_reference,
    "native": _build_native,
}

_LOCK = threading.Lock()
_PROBED: Dict[str, Optional[Backend]] = {}
_PROBE_ERRORS: Dict[str, str] = {}
_ACTIVE: Optional[Backend] = None
_EXPLICIT = False


def resolve_backend(name: Optional[str] = None) -> Optional[str]:
    """Validate a backend request at parse time.

    ``None`` falls back to the ``REVEAL_BACKEND`` environment variable;
    an empty/unset variable returns ``None`` (meaning: auto-select by
    capability probe).  Unknown names raise
    :class:`~repro.errors.ParameterError` listing the valid options.
    """
    source = "backend"
    if name is None:
        name = os.environ.get("REVEAL_BACKEND", "").strip() or None
        source = "REVEAL_BACKEND"
        if name is None:
            return None
    name = str(name).strip().lower()
    if name not in BACKEND_NAMES:
        raise ParameterError(
            f"unknown {source} {name!r} (choose from "
            f"{', '.join(BACKEND_NAMES)})"
        )
    return name


def probe_backend(name: str) -> Optional[Backend]:
    """Build (or fetch the cached) backend; ``None`` if unavailable.

    A probe failure is cached with its reason and never raises: a
    missing compiler must degrade to the reference
    path, not break imports.
    """
    name = resolve_backend(name)
    with _LOCK:
        if name in _PROBED:
            return _PROBED[name]
    try:
        backend = _FACTORIES[name]()
    except Exception as exc:  # noqa: BLE001 - probe must never propagate
        with _LOCK:
            _PROBED[name] = None
            _PROBE_ERRORS[name] = f"{type(exc).__name__}: {exc}"
        return None
    with _LOCK:
        _PROBED[name] = backend
    return backend


def probe_error(name: str) -> Optional[str]:
    """Why the last probe of ``name`` failed (``None`` if it did not)."""
    return _PROBE_ERRORS.get(resolve_backend(name))


def available_backends() -> Tuple[str, ...]:
    """Names of backends whose probe succeeds, in canonical order."""
    return tuple(n for n in BACKEND_NAMES if probe_backend(n) is not None)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def get_backend() -> Backend:
    """The active backend, resolving lazily on first use.

    Resolution order: an explicit :func:`set_backend` call, then the
    ``REVEAL_BACKEND`` environment variable (validated; a requested but
    unavailable backend raises instead of silently degrading), then the
    highest-priority backend whose capability probe succeeds.
    """
    global _ACTIVE, _EXPLICIT
    if _ACTIVE is not None:
        return _ACTIVE
    requested = resolve_backend(None)
    if requested is not None:
        return set_backend(requested)
    best = probe_backend("reference")
    for name in BACKEND_NAMES:
        backend = probe_backend(name)
        if backend is not None and backend.priority > best.priority:
            best = backend
    with _LOCK:
        if _ACTIVE is None:
            _ACTIVE = best
            _EXPLICIT = False
    return _ACTIVE


def set_backend(name: str) -> Backend:
    """Explicitly select a backend (CLI ``--backend``, tests).

    Unlike auto-selection this raises when the requested backend cannot
    be built, and it arms the backend's non-exact kernels (see the
    module docstring's bit-exactness contract).
    """
    global _ACTIVE, _EXPLICIT
    validated = resolve_backend(name)
    backend = probe_backend(validated)
    if backend is None:
        reason = _PROBE_ERRORS.get(validated, "probe failed")
        raise ParameterError(
            f"backend {validated!r} is unavailable on this host "
            f"({reason}); available: {', '.join(available_backends())}"
        )
    with _LOCK:
        _ACTIVE = backend
        _EXPLICIT = True
    return backend


@contextmanager
def use_backend(name: str) -> Iterator[Backend]:
    """Temporarily select ``name`` (oracles, differential tests)."""
    global _ACTIVE, _EXPLICIT
    with _LOCK:
        saved = (_ACTIVE, _EXPLICIT)
    backend = set_backend(name)
    try:
        yield backend
    finally:
        with _LOCK:
            _ACTIVE, _EXPLICIT = saved


def reset_backend() -> None:
    """Forget the active selection (tests); probes stay cached."""
    global _ACTIVE, _EXPLICIT
    with _LOCK:
        _ACTIVE = None
        _EXPLICIT = False


def backend_id() -> str:
    """``name-version`` of the active backend (cache keys, reports)."""
    return get_backend().ident


def get_kernel(name: str) -> Optional[Callable]:
    """The active backend's implementation of ``name``, or ``None``.

    ``None`` means: run the call site's inline numpy path (the
    reference twin).  Non-exact kernels are withheld unless the backend
    was explicitly selected, keeping auto-probed defaults bit-identical
    to a reference-only install.
    """
    backend = get_backend()
    kernel = backend.kernels.get(name)
    if kernel is None:
        return None
    if not kernel.exact and not _EXPLICIT:
        return None
    return kernel.fn


def kernel_exactness(backend_name: str) -> Dict[str, bool]:
    """Kernel name -> declared exactness for one backend (oracles)."""
    backend = probe_backend(backend_name)
    if backend is None:
        return {}
    return {name: k.exact for name, k in backend.kernels.items()}
