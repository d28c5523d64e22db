"""Capability-probed compute-backend registry for the numeric hot kernels.

PRs 5-6 pushed the single-core pipeline to the point where numpy
dispatch overhead (~15 C-API calls per vector instruction) and Python
kernel glue are the floor; Intel HEXL makes the case that SEAL-class
workloads get their remaining order of magnitude from *dedicated
kernels*, not better algorithms.  This package is that layer for the
reproduction: the numeric hot kernels — NTT butterflies, negacyclic
pointwise products, leakage expansion, measurement noise (keyed and
sequential), trace segmentation and the profiling moments' merge — are
abstracted behind a uniform
:func:`get_backend` / :func:`get_kernel` interface with pluggable
implementations.

Backends
--------
``reference``
    Always present.  It carries *no* kernel overrides: a call site that
    gets ``None`` from :func:`get_kernel` falls through to its existing
    vectorized numpy path, which stays the semantic twin every other
    backend is verified against.
``native``
    One cffi module, compiled once per machine with the system C
    compiler (``-O3 -ffp-contract=off``; the contraction barrier keeps
    float kernels bit-identical to numpy's non-fused arithmetic).  It
    carries these kernels and the compiled RV32IM engine's core, whose
    one ``ebreak`` must retire before the probe passes.  The shared
    object is cached on disk keyed by the C source hash, so probes
    after the first are a plain import and forked pool workers inherit
    the loaded library.  A missing cffi or compiler makes the probe
    return ``None`` with its reason kept (:func:`probe_error`): the
    registry falls back to ``reference`` and the compiled engine to
    threaded.  Any other error is a bug and propagates.

Selection
---------
Resolution is lazy (first :func:`get_backend` call, never at import)
and picks the available backend with the highest priority: ``native``
where it builds, ``reference`` otherwise.  There is no user-facing
knob, because the backend is a speed choice only.
:func:`use_backend` selects one temporarily (oracles, benchmarks and
tests pin the reference twin with it).

Bit-exactness
-------------
Every kernel is bit-exact against the reference twin: integer
NTT/pointwise arithmetic, leakage expansion and the moments' merge
whose float evaluation order is mirrored operation for operation, noise
that replays numpy's Philox stream or draws from the caller's own
generator and hands its ziggurat's slow path to numpy's own sampler,
and segmentation, which mirrors numpy the same way except for one dot
product that it screens under a rigorous rounding bound.
Outputs are therefore identical on hosts with and without a compiler,
and ``repro.verify`` registers EXACT oracles (``backend.*``,
``segmentation.windows``) to enforce it."""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.errors import ParameterError, SimulationError

#: Canonical backend names, in the order reported to users.
BACKEND_NAMES = ("reference", "native")


@dataclass
class Backend:
    """A named set of kernel implementations plus probe metadata."""

    name: str
    version: str
    priority: int
    kernels: Dict[str, Callable] = field(default_factory=dict)
    #: The loaded cffi module behind the kernels (``None`` for
    #: ``reference``); the compiled engine runs its core from it.
    module: Any = field(default=None, repr=False)

    @property
    def ident(self) -> str:
        """Stable ``name-version`` identifier for reports."""
        return f"{self.name}-{self.version}"


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


def _probe_failures() -> tuple:
    """What a failed probe raises: a missing cffi or C compiler, an
    unwritable cache, a cdef cffi rejects, or a core that does not
    retire one ``ebreak``."""
    failures = (ImportError, OSError, SimulationError)
    try:
        from cffi import CDefError, VerificationError
    except ImportError:
        return failures
    return failures + (CDefError, VerificationError)


def _validate(name: str) -> str:
    if name not in BACKEND_NAMES:
        raise ParameterError(
            f"unknown backend {name!r} (choose from "
            f"{', '.join(BACKEND_NAMES)})"
        )
    return name


def probe_backend(name: str) -> Optional[Backend]:
    """Build (or fetch the cached) backend; ``None`` if unavailable.

    A toolchain failure (:func:`_probe_failures`) is cached with its
    reason and never raises: a missing compiler must degrade to the
    reference path, not break imports.  Any other error propagates and
    is not cached.
    """
    name = _validate(name)
    with _LOCK:
        if name in _PROBED:
            return _PROBED[name]
    try:
        backend = _FACTORIES[name]()
    except _probe_failures() as exc:
        with _LOCK:
            _PROBED[name] = None
            _PROBE_ERRORS[name] = f"{type(exc).__name__}: {exc}"
        return None
    with _LOCK:
        _PROBED[name] = backend
    return backend


def probe_error(name: str) -> Optional[str]:
    """Why the last probe of ``name`` failed (``None`` if it did not)."""
    return _PROBE_ERRORS.get(_validate(name))


def available_backends() -> Tuple[str, ...]:
    """Names of backends whose probe succeeds, in canonical order."""
    return tuple(n for n in BACKEND_NAMES if probe_backend(n) is not None)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def get_backend() -> Backend:
    """The active backend: the highest-priority one whose probe succeeds."""
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    best = probe_backend("reference")
    for name in BACKEND_NAMES:
        backend = probe_backend(name)
        if backend is not None and backend.priority > best.priority:
            best = backend
    with _LOCK:
        if _ACTIVE is None:
            _ACTIVE = best
    return _ACTIVE


@contextmanager
def use_backend(name: str) -> Iterator[Backend]:
    """Temporarily select ``name`` (oracles, benchmarks, tests).

    Raises :class:`~repro.errors.ParameterError` when ``name`` cannot
    be built on this host.
    """
    global _ACTIVE
    backend = probe_backend(name)
    if backend is None:
        raise ParameterError(
            f"backend {name!r} is unavailable on this host "
            f"({_PROBE_ERRORS.get(name, 'probe failed')}); "
            f"available: {', '.join(available_backends())}"
        )
    with _LOCK:
        saved, _ACTIVE = _ACTIVE, backend
    try:
        yield backend
    finally:
        with _LOCK:
            _ACTIVE = saved


def reset_backend() -> None:
    """Forget the active selection (tests); probes stay cached."""
    global _ACTIVE
    with _LOCK:
        _ACTIVE = None


def backend_id() -> str:
    """``name-version`` of the active backend (reports)."""
    return get_backend().ident


def get_kernel(name: str) -> Optional[Callable]:
    """The active backend's implementation of ``name``, or ``None``.

    ``None`` means: run the call site's inline numpy path (the
    reference twin).
    """
    return get_backend().kernels.get(name)
