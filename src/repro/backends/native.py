"""Native C backend: one cffi module for every C kernel in the package.

The module holds the compiled RV32IM engine's interpreter core
(``riscv/compiled.c``, driven by :mod:`repro.riscv.compiled`) and the
numeric kernels in ``backends/native.c``.  The kernels are C
transliterations of the vectorized numpy twins with HEXL-style Shoup
modular multiplication in the NTT butterflies (one precomputed
``floor(w * 2**64 / q)`` per twiddle turns every ``% q`` into a
multiply-high and a conditional subtract).  Float kernels mirror the
numpy expression tree *operation for operation* — same association,
same order — and the module is compiled with ``-ffp-contract=off`` so
the compiler cannot fuse ``a*b+c`` into an FMA; together that makes
`expand_events` bit-identical to ``LeakageModel.expand`` (enforced by
the ``backend.native.*`` oracles).  The ``segment`` kernel (see
:func:`_segment_kernel`) runs trace segmentation the same way and
screens its one inexact step, a dot product, under a rigorous rounding
bound.  The keyed-noise kernel (see :func:`_noise_kernel`) runs
Philox4x64-10 and numpy's ziggurat fast path in C and hands every other
draw to numpy's own sampler, linked from ``libnpyrandom.a``; its
sequential-stream twin (:func:`_normal_kernel`) shares that fast path
but draws its words from a caller's numpy generator.  Every kernel is
bit-exact, so the backend changes speed, never an output bit.

Both sources build on one generated ``#define`` prelude (:func:`_prelude`):
the op classes and cycle costs of :mod:`repro.riscv.cycles` and the
core's status codes.  Each source follows a ``#line`` marker, so gcc
reports its own file and line.

Compilation happens once per machine: the shared object is built into
``$REVEAL_NATIVE_CACHE`` (default ``~/.cache/reveal-native``) under a
``_reveal_native_<digest>`` name keyed by the SHA-256 of the flags, the
cdef, the C source and the linked numpy archive, so later probes are a
plain extension import and forked pool workers inherit the loaded
library; a fresh build deletes the cache's older versions.  A build
failure makes :func:`repro.backends.probe_backend` report the backend
unavailable — never an import error — and the compiled engine then
degrades to threaded.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import math
import operator
import os
import shutil
import struct
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from repro.backends import Backend
from repro.power import noise
from repro.riscv import compiled
from repro.riscv import cycles as cy

#: gcc flags, part of the module digest.  ``-ffp-contract=off``: FMA
#: contraction would change float results and break the bit-exactness
#: contract of the expand kernel.
_CFLAGS = ("-O3", "-ffp-contract=off")

_CDEF = """
int reveal_run(int64_t *st, uint32_t *R, uint8_t *mem, int64_t *ev);
void reveal_ntt_forward(int64_t *a, int64_t n, const uint64_t *w,
                        const uint64_t *ws, uint64_t q);
void reveal_ntt_inverse(int64_t *a, int64_t n, const uint64_t *w,
                        const uint64_t *ws, uint64_t q,
                        uint64_t n_inv, uint64_t n_inv_s);
void reveal_pointwise_mulmod(const int64_t *a, const int64_t *b,
                             int64_t *out, int64_t n, uint64_t q);
int64_t reveal_expand_starts(int64_t n, const int64_t *rows, int64_t *starts);
void reveal_expand_events(int64_t n, const int64_t *rows, const int64_t *starts,
                          double *samples, double wd, double wt, double wf,
                          double we, double eoff, double base);
int64_t reveal_segment_windows(const double *x, int64_t n, const int64_t *cfg,
                               int64_t *win, int64_t cap, int64_t *info);
int64_t reveal_segment_refine(const double *x, int64_t n, int64_t *win,
                              int64_t k, const double *ref, int64_t length,
                              int64_t before, int64_t after, int64_t variant,
                              uint8_t *pending);
void reveal_segment_gather(const double *x, int64_t n, const int64_t *win,
                           int64_t k, int64_t before, int64_t after,
                           double *out);
void reveal_segment_percentiles(const double *env, int64_t n, double *out);
int reveal_segment_avx2(void);
int reveal_all_finite(const double *x, int64_t n);
void reveal_moments_merge(double *s, const double *o, const double *d,
                          int64_t L, int64_t lo, int64_t hi, double w);
int reveal_noise_init(void);
int reveal_add_noise(const double *src, double *dst, int64_t n, uint64_t k0,
                     uint64_t k1, int64_t offset, double gain, double std);
int reveal_add_normal(const double *src, double *dst, int64_t n, void *bitgen,
                      double gain, double std);
"""

#: The C sources, relative to the ``repro`` package, in build order.
_SOURCES = ("riscv/compiled.c", "backends/native.c")


def _npyrandom() -> Optional[Path]:
    """numpy's ``libnpyrandom.a``, which the noise kernel links for its
    slow path, or ``None`` where this numpy does not ship it."""
    archive = Path(np.random.__file__).parent / "lib" / "libnpyrandom.a"
    return archive if archive.is_file() else None


def _prelude(archive: Optional[Path]) -> str:
    """The ``#define`` prelude of both sources: op classes, their cycle
    costs, the core's status codes and whether numpy's sampler archive
    is linked.  It is part of the source, so the digest — and the cached
    module name — changes with the cost model."""
    lines = ["#include <stdint.h>", f"#define NOISE_BLOCK {noise.NOISE_BLOCK}"]
    if archive is not None:
        lines.append("#define NOISE_NPYRANDOM 1")
    lines += [
        f"#define {name} {value}"
        for module in (cy, compiled)
        for name, value in vars(module).items()
        if name.startswith(("OP_", "STATUS_"))
    ]
    costs = ", ".join(str(cy.CYCLES[op]) for op in range(len(cy.CYCLES)))
    lines += [
        f"#define NUM_OP_CLASSES {len(cy.CYCLES)}",
        f"static const int64_t op_cycles[NUM_OP_CLASSES] = {{{costs}}};",
    ]
    return "\n".join(lines) + "\n"


def _c_source(archive: Optional[Path]) -> str:
    root = Path(__file__).resolve().parent.parent
    source = '#line 1 "<prelude>"\n' + _prelude(archive)
    for name in _SOURCES:
        source += f'#line 1 "repro/{name}"\n' + (root / name).read_text("utf-8")
    # cffi appends its call wrappers after the source.
    return source + '#line 1 "<cffi wrappers>"\n'


def _cache_dir() -> str:
    configured = os.environ.get("REVEAL_NATIVE_CACHE", "").strip()
    if configured:
        return configured
    return os.path.join(
        os.path.expanduser("~"), ".cache", "reveal-native"
    )


def _load_extension(modname: str, path: str):
    loader = importlib.machinery.ExtensionFileLoader(modname, path)
    spec = importlib.util.spec_from_loader(modname, loader, origin=path)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _truncated(path: str) -> bool:
    """True when an ELF file ends before its section-header table.

    The linker writes that table last, so a copy cut short loses it.
    ``dlopen`` would map the missing pages regardless, and the first
    touch of one kills the process with SIGBUS instead of raising.
    Anything that is not a 64-bit ELF is left to the loader to judge.
    """
    with open(path, "rb") as fh:
        head = fh.read(64)
        size = os.fstat(fh.fileno()).st_size
    if len(head) < 64 or head[:5] != b"\x7fELF\x02":
        return False
    order = "<" if head[5] == 1 else ">"
    (shoff,) = struct.unpack_from(order + "Q", head, 0x28)
    shentsize, shnum = struct.unpack_from(order + "HH", head, 0x3A)
    return size < shoff + shentsize * shnum


def build_extension(modname: str, cdef: str, source: str, cflags,
                    link_args=()):
    """Build (or reuse) the cffi extension ``modname``; returns the module.

    The shared object lives in ``$REVEAL_NATIVE_CACHE`` under
    ``modname``, which callers key by a digest of everything that goes
    into it, so a cached file is reused as is.  A cached file that is
    truncated or does not load is built once more, over it; a second
    failure propagates.  A fresh build removes the other versions of its
    family from the cache (the files named like ``modname`` up to its
    last ``_``), so the cache holds one module per family.  A missing
    ``cffi`` or C compiler raises; callers treat that as "unavailable".
    """
    cache_dir = _cache_dir()
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    target = os.path.join(cache_dir, modname + suffix)
    if os.path.exists(target) and not _truncated(target):
        try:
            return _load_extension(modname, target)
        except ImportError:
            pass  # garbage: the build below replaces it

    import cffi  # capability probe: missing cffi -> caller falls back

    os.makedirs(cache_dir, exist_ok=True)
    ffi = cffi.FFI()
    ffi.cdef(cdef)
    ffi.set_source(
        modname, source, extra_compile_args=list(cflags),
        extra_link_args=list(link_args),
    )
    # Build in a private temp dir, then publish atomically: concurrent
    # first-use from several processes must not see half-written files.
    build_dir = tempfile.mkdtemp(prefix="build-", dir=cache_dir)
    try:
        built = ffi.compile(tmpdir=build_dir)
        os.replace(built, target)
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)
    module = _load_extension(modname, target)
    family = modname.rsplit("_", 1)[0] + "_"
    for name in os.listdir(cache_dir):
        if name.startswith(family) and name != modname + suffix:
            try:
                os.unlink(os.path.join(cache_dir, name))
            except FileNotFoundError:
                pass  # another process pruned it first
    return module


def _compile_and_load():
    """Build (or reuse) the module; returns ``(module, digest)``.

    The digest covers the flags, the cdef, the C source and, where the
    noise kernel links numpy's sampler, numpy's version and the
    archive's SHA-256: the kernel's slow path is that archive's code and
    its tables are probed from it.  An archive that does not link (say,
    one built without ``-fPIC``) costs only the noise kernel: the module
    is built once more without it.
    """
    archive = _npyrandom()
    if archive is None:
        return _build_module(None)
    from cffi import VerificationError

    try:
        return _build_module(archive)
    except VerificationError:
        return _build_module(None)


def _build_module(archive: Optional[Path]):
    source = _c_source(archive)
    link_args = ("-lm",)
    key = " ".join(_CFLAGS) + _CDEF + source
    if archive is not None:
        link_args = (str(archive), "-lm")
        key += np.__version__ + hashlib.sha256(archive.read_bytes()).hexdigest()
    digest = hashlib.sha256(key.encode()).hexdigest()[:12]
    module = build_extension(
        f"_reveal_native_{digest}", _CDEF, source, _CFLAGS, link_args
    )
    return module, digest


def _shoup_table(powers: np.ndarray, q: int) -> np.ndarray:
    """``floor(w * 2**64 / q)`` per twiddle, as uint64."""
    return np.array(
        [(int(w) << 64) // q for w in powers.tolist()], dtype=np.uint64
    )


def build_backend() -> Backend:
    """The native backend, once its core has retired one ``ebreak``."""
    module, digest = _compile_and_load()
    compiled.check_core(module)
    lib = module.lib
    ffi = module.ffi

    # typed buffers pass as pointers without a cast (about 0.5 us less
    # per argument than casting an untyped one)
    def i64(arr: np.ndarray):
        return ffi.from_buffer("int64_t[]", arr)

    def u64(arr: np.ndarray):
        return ffi.from_buffer("uint64_t[]", arr)

    def f64(arr: np.ndarray):
        return ffi.from_buffer("double[]", arr)

    def _ntt_tables(ctx):
        # Shoup companions are derived lazily per context and cached on
        # it, so they ride the existing get_ntt_context LRU for free.
        tables = getattr(ctx, "_native_ntt_tables", None)
        if tables is None:
            q = ctx.modulus.value
            fwd = np.ascontiguousarray(ctx._root_powers.astype(np.uint64))
            inv = np.ascontiguousarray(
                ctx._inv_root_powers.astype(np.uint64)
            )
            n_inv = int(ctx.n_inv)
            tables = (
                fwd, _shoup_table(fwd, q), inv, _shoup_table(inv, q),
                n_inv, (n_inv << 64) // q,
            )
            ctx._native_ntt_tables = tables
        return tables

    def ntt_forward(ctx, a: np.ndarray) -> np.ndarray:
        fwd, fwd_s, _inv, _inv_s, _n_inv, _n_inv_s = _ntt_tables(ctx)
        lib.reveal_ntt_forward(
            i64(a), ctx.n, u64(fwd), u64(fwd_s), ctx.modulus.value
        )
        return a

    def ntt_inverse(ctx, a: np.ndarray) -> np.ndarray:
        _fwd, _fwd_s, inv, inv_s, n_inv, n_inv_s = _ntt_tables(ctx)
        lib.reveal_ntt_inverse(
            i64(a), ctx.n, u64(inv), u64(inv_s), ctx.modulus.value,
            n_inv, n_inv_s,
        )
        return a

    def pointwise_mulmod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
        a = np.ascontiguousarray(a, dtype=np.int64)
        b = np.ascontiguousarray(b, dtype=np.int64)
        out = np.empty_like(a)
        lib.reveal_pointwise_mulmod(i64(a), i64(b), i64(out), a.size, q)
        return out

    def expand_events(cols, weights):
        # cols is the (8, n) transpose of an event-major log, so its
        # transpose is the log's own rows: read in place, never copied
        rows = np.ascontiguousarray(cols.T, dtype=np.int64)
        n = rows.shape[0]
        starts = np.empty(n, dtype=np.int64)
        total = lib.reveal_expand_starts(n, i64(rows), i64(starts))
        if total < 0:
            return None
        samples = np.empty(total, dtype=np.float64)
        lib.reveal_expand_events(n, i64(rows), i64(starts), f64(samples), *weights)
        return samples, starts

    def all_finite(samples: np.ndarray) -> bool:
        x = np.ascontiguousarray(samples, dtype=np.float64)
        return bool(lib.reveal_all_finite(f64(x), x.size))

    def moments_merge(scatter, other, delta, block, weight) -> bool:
        # scatter[block, block] += outer(d, d) * weight + other[block,
        # block] with d = delta[block]; False (numpy runs) for anything
        # but C-contiguous float64 L x L matrices and a step-1 block
        if not (
            type(delta) is np.ndarray and delta.dtype == np.float64
            and delta.ndim == 1 and delta.flags.c_contiguous
        ):
            return False
        n = delta.shape[0]
        if not (
            all(
                type(m) is np.ndarray and m.dtype == np.float64
                and m.shape == (n, n) and m.flags.c_contiguous
                for m in (scatter, other)
            )
            and scatter.flags.writeable
        ):
            return False
        lo, hi, step = block.indices(n)
        if step != 1:
            return False
        lib.reveal_moments_merge(
            f64(scatter), f64(other), f64(delta), n, lo, hi, weight
        )
        return True

    kernels = {
        "ntt_forward": ntt_forward,
        "ntt_inverse": ntt_inverse,
        "pointwise_mulmod": pointwise_mulmod,
        "expand_events": expand_events,
        "segment": _segment_kernel(module),
        "all_finite": all_finite,
        "moments_merge": moments_merge,
    }
    for name, kernel in (
        ("add_noise", _noise_kernel(module)),
        ("add_normal", _normal_kernel(module)),
    ):
        if kernel is not None:
            kernels[name] = kernel
    return Backend(
        name="native",
        version=digest[:8],
        priority=10,
        module=module,
        kernels=kernels,
    )


def _noise_out(samples, out, gain, std):
    """The array a noise kernel writes, or ``None`` where it declines:
    ``samples`` must be a 1-D C-contiguous float64 array and ``out``
    (a new array when ``None``; it may be ``samples``) a writeable one
    of the same shape that ``samples`` does not partly overlap; a
    non-finite ``gain`` or ``std`` is numpy's (the operand order of a
    NaN result is its own)."""
    if not (
        type(samples) is np.ndarray and samples.dtype == np.float64
        and samples.ndim == 1 and samples.flags.c_contiguous
        and math.isfinite(gain) and math.isfinite(std)
    ):
        return None
    if out is None:
        return np.empty_like(samples)
    if out is not samples and not (
        type(out) is np.ndarray and out.dtype == np.float64
        and out.shape == samples.shape and out.flags.c_contiguous
        and (out.ctypes.data == samples.ctypes.data
             or not np.may_share_memory(out, samples))
    ):
        return None
    return out if out.flags.writeable else None


def _noise_kernel(module):
    """The exact keyed-noise kernel over ``module``, or ``None``.

    ``add_noise(samples, out, key, offset, gain, std)`` writes
    ``samples * gain + z * std`` into ``out`` (a new array when ``out``
    is ``None``; ``out`` may be ``samples``) and returns it, where ``z``
    is samples ``offset ..`` of the standard normal stream of the 2x64-bit
    Philox ``key`` (:mod:`repro.power.noise`).  It returns ``None``, and
    the caller runs numpy, for whatever :func:`_noise_out` declines and
    an ``offset`` that is not a non-negative ``int`` (numpy raises).

    The kernel is absent where the module was built without numpy's
    ``libnpyrandom.a``, where the C probe of numpy's ziggurat tables
    fails, or where a short stream with slow-path draws does not match
    numpy's ``Generator(Philox(key)).standard_normal`` bit for bit.
    """
    lib, ffi = module.lib, module.ffi
    if lib.reveal_noise_init() != 0:
        return None

    def f64(arr: np.ndarray):
        return ffi.from_buffer("double[]", arr)

    def add_noise(samples, out, key, offset, gain, std):
        if type(offset) is not int or offset < 0:
            return None
        out = _noise_out(samples, out, gain, std)
        if out is None:
            return None
        lib.reveal_add_noise(
            f64(samples), f64(out), out.size, int(key[0]), int(key[1]),
            offset, gain, std,
        )
        return out

    # A stream long enough for numpy's tail and wedge draws: the
    # replayed next_double must be numpy's too.
    key = np.array([0x243F6A8885A308D3, 0x13198A2E03707344], dtype=np.uint64)
    zeros = np.zeros(4096)
    want = zeros + np.random.Generator(np.random.Philox(key=key)).standard_normal(
        zeros.size
    )
    if add_noise(zeros, None, key, 0, 1.0, 1.0).tobytes() != want.tobytes():
        return None
    return add_noise


def _normal_kernel(module):
    """The exact sequential-stream noise kernel over ``module``, or ``None``.

    ``add_normal(samples, out, rng, gain, std)`` writes
    ``samples * gain + (0.0 + std * z)`` into ``out`` (as
    :func:`_noise_kernel`'s ``add_noise`` does) and returns it, where
    ``z`` are the next standard normals of the numpy ``Generator``
    ``rng``: the values and the generator's state afterwards are those
    of ``out *= gain; out += rng.normal(0.0, std, out.size)``.  It draws
    words through the generator's public ``bitgen_t`` (its ``ctypes``
    interface), under the generator's lock as numpy's own methods do, so
    it works for every BitGenerator without knowing its state layout.
    It declines what ``add_noise`` declines and a negative ``std``
    (``-0.0`` included), where numpy raises.

    The kernel is absent where ``add_noise`` is for want of the archive
    or its tables, or where a short PCG64 stream with slow-path draws
    does not match numpy's output bits and leave the generator where
    numpy does.
    """
    lib, ffi = module.lib, module.ffi
    if lib.reveal_noise_init() != 0:
        return None

    def f64(arr: np.ndarray):
        return ffi.from_buffer("double[]", arr)

    def add_normal(samples, out, rng, gain, std):
        if not math.copysign(1.0, std) > 0:
            return None
        out = _noise_out(samples, out, gain, std)
        if out is None:
            return None
        bits = rng.bit_generator
        address = bits.ctypes.bit_generator.value
        with bits.lock:
            lib.reveal_add_normal(
                f64(samples), f64(out), out.size,
                ffi.cast("void *", address), gain, std,
            )
        return out

    # Long enough for numpy's tail and wedge draws, whose next_double
    # and any further words must be the generator's own.
    samples = np.zeros(4096)
    mine, theirs = (np.random.default_rng(0x5EED) for _ in range(2))
    want = samples * 0.5
    want += theirs.normal(0.0, 1.5, samples.size)
    got = add_normal(samples, None, mine, 0.5, 1.5)
    if (got.tobytes() != want.tobytes()
            or mine.bit_generator.random_raw() != theirs.bit_generator.random_raw()):
        return None
    return add_normal


#: C status codes of ``reveal_segment_windows`` → the failure reasons
#: :mod:`repro.attack.segmentation` turns into its error messages.
_SEGMENT_REASONS = {
    1: "empty", 2: "non-finite", 3: "no-bursts", 4: "no-anchor", 5: "defer",
    6: "no-memory",
}

#: Integer parameters the kernel accepts; anything else defers to numpy.
_SEGMENT_INT_LIMIT = 1 << 62


def _as_small_ints(values):
    """``values`` as Python ints, or ``None`` if one is not an integer
    of moderate size (such configurations take the numpy path)."""
    out = []
    for value in values:
        try:
            value = operator.index(value)
        except TypeError:
            return None
        if not -_SEGMENT_INT_LIMIT < value < _SEGMENT_INT_LIMIT:
            return None
        out.append(value)
    return out


def _segment_kernel(module):
    """The exact segmentation kernel over the compiled ``module``.

    ``segment(samples, config, refiner=None, slices=False, variant=-1)``
    does per trace what :meth:`Segmenter.windows` (and, with
    ``slices=True``, :meth:`Segmenter.aligned_slices`) does in numpy,
    with the same output bits.  It returns ``(reason, payload)``:

    - ``("ok", windows)``: an ``(n, 3)`` int64 array of ``(start, end,
      anchor)`` rows; with ``slices=True``, ``("ok", (slices, windows,
      pending))`` where the rows in ``pending`` still carry their coarse
      anchor and need ``AnchorRefiner.refine`` (see the screen below);
    - ``("defer", None)``: an input outside the kernel's domain (a
      window wider than the trace, which numpy smooths with
      ``np.convolve``; non-integer or negative geometry; a finite trace
      whose running sum overflows); run numpy;
    - ``(reason, detail)``: the numpy path's failure, named by
      ``"empty"``, ``"non-finite"``, ``"no-bursts"`` or ``"no-anchor"``
      with ``detail = (window, start, end)``.

    Why every step is exact.  Each step but one is a fixed sequence of
    IEEE operations that the C mirrors operation for operation (the
    module is compiled with ``-ffp-contract=off``, so no FMA fuses them):

    - the finiteness check, and the padded prefix sum: numpy's cumsum is
      a sequential ``add.accumulate``, so ``P[k+1] = P[k] + x[k]`` in
      index order is the same rounding sequence;
    - both sliding means: ``(P[a] - P[b]) / window``, elementwise;
    - the thresholds: ``np.percentile(env, [10, 90])`` reads the order
      statistics at ranks ``floor((n-1)*q)`` and the next one, which are
      values of the array, so any selection algorithm returns the same
      ones (only the sign of a zero can differ, and the threshold is
      only ever compared).  The kernel takes them from one count pass
      over 16-bit buckets (the top bits of each value's float32 key,
      which is monotone in the value) and one gather pass of the exact
      keys in the buckets that hold a wanted rank, then evaluates
      numpy's ``gamma`` and ``_lerp`` expressions and ``lo + fraction *
      (hi - lo)`` as written;
    - active regions (``env > threshold`` is decided by a value's
      bucket, or by the value itself when it shares the threshold's
      bucket), the bisected window/burst assignment and ``_find_anchor``
      are integer logic;
    - the refiner's windowed energies ``W[d] = Q[d+L] - Q[d]``, with
      ``Q`` the cumsum of ``segment * segment`` from the window start,
      exactly as ``refine`` forms them.

    The one inexact step is the cross term: ``np.correlate`` calls BLAS
    ``ddot``, whose summation order depends on the build and the CPU.
    For any summation order, with or without FMA, a length-``L`` dot
    product ``c`` of ``x`` and ``r`` satisfies ``|fl(c) - c| <= g_L *
    sum|x_i r_i| <= g_L * sqrt(E) * ||r||`` (Higham, eq. 3.5, with
    ``g_L = L u / (1 - L u)``, ``u = 2**-53``, and Cauchy-Schwarz with
    the window energy ``E``).  So the kernel's cross term ``c'`` (AVX2:
    eight 4-lane FMA accumulators, else a portable loop) and numpy's
    ``c^`` differ by at most ``2 g_L sqrt(E) ||r||``.  Numpy's score is
    ``fl(W - 2 c^)``, the kernel's ``s = fl(W - 2 c')`` with the same
    ``W``; adding the two roundings, numpy's score lies within ``B =
    4 g_L sqrt(E) ||r|| + 2 u |s|`` (to first order) of ``s``.  The
    kernel uses ``8 g_L T + 8 u |s|`` plus an underflow floor, where
    ``T`` bounds ``sqrt(E) ||r||`` from above at every offset (no window
    holds more energy than the whole segment, whose computed sum is off
    by at most ``g_len`` of itself), so the factor two of slack covers
    the rounding of the bound arithmetic itself.  A position whose
    ``s - B`` exceeds the smallest ``s + B`` cannot be numpy's argmin.
    When exactly one position survives, it is numpy's argmin.  Several
    survivors (an exact tie, a flat window) or anything non-finite or
    beyond ``1e300`` mark the window ``pending``, and the caller runs
    numpy's own ``refine`` on it, so the tie rule (first minimum) and
    every special value stay numpy's by construction.  On captured
    traces the screen leaves one survivor per window.

    Most offsets never get a cross term: a cheap lower bound proves them
    beaten first.  Split the reference into ``K`` chunks (11 of width
    ``ceil(L / 11)``, the last one shorter) with sums ``rho_c``, and let
    ``S_c(d)`` be the window's matching chunk sums at offset ``d``, read
    off a prefix sum ``P`` of the segment.  By Cauchy-Schwarz on each
    chunk, ``sum (x - r)**2 >= (S_c - rho_c)**2 / w_c`` over a chunk of
    width ``w_c``, so the true SSD is at least ``LB(d) = sum_c (S_c(d) -
    rho_c)**2 / w_c``.  Numpy's score is the SSD less ``R = ||r||**2``,
    perturbed by three errors: its windowed energy ``W`` against the
    true one (both ends of ``Q`` are off by at most ``g_len`` of the
    segment energy ``A2``), its dot (``g_L T``, as above) and its final
    subtraction (``u (A2 + 2T)``).  So numpy's score is at least
    ``LB(d) - R - M`` with ``M = 3 g_len A2 + 2 g_L T + 2u (A2 + 2T)``,
    and an offset whose bound exceeds ``best_upper + R + M`` (the
    smallest screened upper end so far) cannot be numpy's argmin.  The
    kernel enforces that with rigorous margins:

    - each computed chunk difference ``(P[d+e] - P[d+b]) - rho_c`` is
      off by at most ``delta = 4 g_len (A1 + ||r||_1)`` (the prefix sums
      and the reference sums each err by at most ``g_len`` of the
      absolute masses ``A1 = sum |x|`` and ``||r||_1``), so the kernel
      squares ``max(|D| - delta, 0)``, a lower bound of ``|S_c - rho_c|``;
    - squaring, scaling by ``1 / w_c`` and summing ``K`` non-negative
      terms round up by at most ``(K + 4) u`` relative; the kernel
      multiplies the bound by ``1 - 2 (K + 4) u`` before comparing;
    - the threshold takes ``R (1 + 2 g_L) + 2M`` plus an underflow floor,
      and ``4u`` of its own magnitude for the rounding of that sum;
    - a window whose absolute mass ``A1 + ||r||_1`` exceeds ``1e150``,
      where a squared chunk difference could overflow, takes every
      offset's cross term instead.

    A loose margin costs speed, never bits.  The threshold starts from
    the screened score at the coarse anchor's offset (one dot).  The
    chunks go most-informative first (those whose sums lie furthest from
    the segment's mean level), each over the blocks of four offsets that
    still have a lane under the threshold; the offsets left after every
    chunk get their cross terms lowest bound first, and each new best
    score tightens the threshold and drops more of them.  The screen
    above then runs over the offsets that were scored, unchanged: numpy's
    argmin is never dropped, so when one survivor remains it is numpy's.
    On captured traces the bound leaves about 1% of offsets, and a window
    takes about seven dots instead of two thousand.

    ``variant`` picks the loops: bit 0 the AVX2/FMA cross terms and
    bound passes where the CPU has them (else portable ones), bit 1
    turns the offset pruning off (every offset's cross term is taken);
    ``-1`` is the best available (AVX2, pruning).  It exists so the
    tests can check every combination; every variant returns the same
    bits.
    """
    lib, ffi = module.lib, module.ffi

    def ptr(kind: str, arr: np.ndarray):
        return ffi.from_buffer(kind, arr)

    def segment(samples, config, refiner=None, slices=False, variant=-1):
        x = np.ascontiguousarray(samples, dtype=np.float64)
        cfg = _as_small_ints(
            (config.envelope_window, config.frac_window,
             config.frac_merge_gap, config.frac_min_length,
             config.burst_merge_gap, config.burst_min_length,
             config.anchor_min_length, config.quiet_gap)
        )
        # the C histograms count in 32 bits
        if x.ndim != 1 or x.size >= 1 << 32 or cfg is None:
            return "defer", None
        n = x.shape[0]
        cfg = np.array(cfg, dtype=np.int64)
        cap = n // max(int(cfg[3]), 1) + 1
        located = np.empty((cap, 3), dtype=np.int64)
        info = np.zeros(4, dtype=np.int64)
        status = lib.reveal_segment_windows(
            ptr("double[]", x), n, ptr("int64_t[]", cfg),
            ptr("int64_t[]", located), cap, ptr("int64_t[]", info),
        )
        if status:
            reason = _SEGMENT_REASONS[status]
            if reason == "no-memory":
                raise MemoryError("segmentation kernel: out of memory")
            if reason == "defer":
                return reason, None
            return reason, tuple(int(v) for v in info[:3])
        located = located[: int(info[0])].copy()
        if not slices:
            return "ok", located

        geometry = _as_small_ints((config.slice_before, config.slice_after))
        if refiner is not None:
            reference = np.ascontiguousarray(refiner.reference, np.float64)
            tail = _as_small_ints((refiner.before, refiner.after))
            geometry = None if tail is None else geometry + tail
        if geometry is None or min(geometry) < 0:
            return "defer", None
        pending = np.zeros(len(located), dtype=np.uint8)
        if refiner is not None:
            if reference.ndim != 1 or reference.size < 1:
                return "defer", None
            if lib.reveal_segment_refine(
                ptr("double[]", x), n, ptr("int64_t[]", located),
                len(located), ptr("double[]", reference), reference.size,
                geometry[2], geometry[3], variant,
                ptr("uint8_t[]", pending),
            ) < 0:
                raise MemoryError("segmentation kernel: out of memory")
        rows = np.empty((len(located), geometry[0] + geometry[1]))
        lib.reveal_segment_gather(
            ptr("double[]", x), n, ptr("int64_t[]", located), len(located),
            geometry[0], geometry[1], ptr("double[]", rows),
        )
        return "ok", (rows, located, np.flatnonzero(pending))

    return segment
