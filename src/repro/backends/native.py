"""Native C backend: cffi-compiled kernels for the numeric hot paths.

The kernels below are C transliterations of the vectorized numpy twins
with HEXL-style Shoup modular multiplication in the NTT butterflies
(one precomputed ``floor(w * 2**64 / q)`` per twiddle turns every
``% q`` into a multiply-high and a conditional subtract).  Float
kernels mirror the numpy expression tree *operation for operation* —
same association, same order — and the module is compiled with
``-ffp-contract=off`` so the compiler cannot fuse ``a*b+c`` into an
FMA; together that makes `expand_events` bit-identical to
``LeakageModel.expand`` (enforced by the ``backend.native.*``
oracles).  Every kernel is bit-exact, so the backend changes speed,
never an output bit.

Compilation happens once per machine: the shared object is built into
``$REVEAL_NATIVE_CACHE`` (default ``~/.cache/reveal-native``) under a
module name keyed by the SHA-256 of the C source, so later probes are
a plain extension import and forked pool workers inherit the loaded
library.  Any build failure is reported to the registry as an
unavailable backend — never an import error.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import struct
import sysconfig
import tempfile

import numpy as np

from repro.backends import Backend
from repro.riscv import cycles as cy
_CDEF = """
void reveal_ntt_forward(int64_t *a, int64_t n, const uint64_t *w,
                        const uint64_t *ws, uint64_t q);
void reveal_ntt_inverse(int64_t *a, int64_t n, const uint64_t *w,
                        const uint64_t *ws, uint64_t q,
                        uint64_t n_inv, uint64_t n_inv_s);
void reveal_pointwise_mulmod(const int64_t *a, const int64_t *b,
                             int64_t *out, int64_t n, uint64_t q);
void reveal_expand_events(int64_t n, const int64_t *op,
                          const int64_t *word, const int64_t *rs1,
                          const int64_t *rs2, const int64_t *result,
                          const int64_t *old_rd, const int64_t *address,
                          const int64_t *prev, const int64_t *starts,
                          double *samples, double wd, double wt,
                          double wf, double we, double eoff, double base);
"""

# The op-class ids are spliced in from repro.riscv.cycles at build time
# (@TOKENS@ below), so the source hash — and therefore the cached
# module name — changes if the event encoding ever does.
_SOURCE_TEMPLATE = r"""
#include <stdint.h>

static inline int hw32(int64_t v) {
    return __builtin_popcountll((uint64_t)v);
}

/* Shoup modular multiplication: ws = floor(w * 2^64 / q), q < 2^63.
   Returns (x * w) mod q with one high multiply and one conditional
   subtract instead of a hardware division per butterfly. */
static inline uint64_t mulmod_shoup(uint64_t x, uint64_t w, uint64_t ws,
                                    uint64_t q) {
    uint64_t hi = (uint64_t)(((__uint128_t)ws * x) >> 64);
    uint64_t r = w * x - hi * q;
    return r >= q ? r - q : r;
}

/* Python %% semantics (result in [0, q)) for possibly-negative input. */
static inline uint64_t reduce_once(int64_t v, uint64_t q) {
    int64_t r = v % (int64_t)q;
    return (uint64_t)(r < 0 ? r + (int64_t)q : r);
}

void reveal_ntt_forward(int64_t *a, int64_t n, const uint64_t *w,
                        const uint64_t *ws, uint64_t q) {
    for (int64_t j = 0; j < n; j++)
        a[j] = (int64_t)reduce_once(a[j], q);
    int64_t t = n;
    for (int64_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        for (int64_t i = 0; i < m; i++) {
            uint64_t wi = w[m + i], wsi = ws[m + i];
            int64_t j1 = 2 * i * t;
            for (int64_t j = j1; j < j1 + t; j++) {
                uint64_t lo = (uint64_t)a[j];
                uint64_t hi = (uint64_t)a[j + t];
                uint64_t prod = mulmod_shoup(hi, wi, wsi, q);
                uint64_t lo_new = lo + prod;
                if (lo_new >= q) lo_new -= q;
                uint64_t hi_new = lo + q - prod;
                if (hi_new >= q) hi_new -= q;
                a[j] = (int64_t)lo_new;
                a[j + t] = (int64_t)hi_new;
            }
        }
    }
}

void reveal_ntt_inverse(int64_t *a, int64_t n, const uint64_t *w,
                        const uint64_t *ws, uint64_t q,
                        uint64_t n_inv, uint64_t n_inv_s) {
    for (int64_t j = 0; j < n; j++)
        a[j] = (int64_t)reduce_once(a[j], q);
    int64_t t = 1;
    for (int64_t m = n; m > 1; m >>= 1) {
        int64_t h = m >> 1;
        int64_t j1 = 0;
        for (int64_t i = 0; i < h; i++) {
            uint64_t wi = w[h + i], wsi = ws[h + i];
            for (int64_t j = j1; j < j1 + t; j++) {
                uint64_t lo = (uint64_t)a[j];
                uint64_t hi = (uint64_t)a[j + t];
                uint64_t s = lo + hi;
                if (s >= q) s -= q;
                uint64_t d = lo + q - hi;
                if (d >= q) d -= q;
                a[j] = (int64_t)s;
                a[j + t] = (int64_t)mulmod_shoup(d, wi, wsi, q);
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    for (int64_t j = 0; j < n; j++)
        a[j] = (int64_t)mulmod_shoup((uint64_t)a[j], n_inv, n_inv_s, q);
}

void reveal_pointwise_mulmod(const int64_t *a, const int64_t *b,
                             int64_t *out, int64_t n, uint64_t q) {
    for (int64_t j = 0; j < n; j++) {
        uint64_t av = reduce_once(a[j], q), bv = reduce_once(b[j], q);
        out[j] = (int64_t)((av * bv) % q);
    }
}

/* Expand ONE event at s: every defined cycle of its op class, padding
   cycles keep the prefilled baseline.  Expression trees mirror
   LeakageModel.expand exactly — see that method for the
   cycle-layout rationale.  half_wd/half_we/eng_base are the hoisted
   (0.5*wd, we*0.5, base+eoff) products shared across events. */
static inline void expand_one(int64_t op, int64_t word, int64_t prevw,
                              int64_t rs1, int64_t rs2, int64_t result,
                              int64_t old_rd, int64_t address, double *s,
                              double wd, double half_wd, double wt,
                              double wf, double we, double half_we,
                              double eng_base, double base) {
    s[0] = base + wf * (double)(hw32(word) + hw32(word ^ prevw));
    double operand_v = base + half_wd * (double)(hw32(rs1) + hw32(rs2));
    double writeback_v = (base + wd * (double)hw32(result)) +
                         wt * (double)hw32(result ^ old_rd);
    switch ((int)op) {
    case @OP_ALU@:
        s[1] = operand_v;
        s[2] = writeback_v;
        break;
    case @OP_MUL@: {
        s[1] = operand_v;
        uint32_t a = (uint32_t)rs1, b = (uint32_t)rs2;
        uint32_t acc = 0;
        for (int i = 0; i < 32; i++) {
            if ((b >> i) & 1u)
                acc += (uint32_t)((uint64_t)a << i);
            s[2 + i] = eng_base + we * (double)__builtin_popcount(acc);
        }
        s[34] = writeback_v;
        break;
    }
    case @OP_DIV@: {
        s[1] = operand_v;
        uint64_t dividend = (uint64_t)rs1;
        uint64_t divisor = (uint64_t)rs2;
        for (int i = 0; i < 32; i++) {
            uint64_t shifted = dividend >> (31 - i);
            uint64_t quo, rem;
            if (divisor == 0) { quo = 0; rem = shifted; }
            else { quo = shifted / divisor; rem = shifted % divisor; }
            s[2 + i] = eng_base +
                       half_we * (double)(__builtin_popcountll(rem) +
                                          __builtin_popcountll(quo));
        }
        s[34] = writeback_v;
        break;
    }
    case @OP_LOAD@:
        s[1] = base + half_wd * (double)hw32(address);
        s[2] = base + wd * (double)hw32(result);
        s[3] = writeback_v;
        break;
    case @OP_STORE@:
        s[1] = base + half_wd * (double)hw32(address);
        s[2] = base + wd * (double)hw32(result);
        s[3] = base + half_wd * (double)hw32(result);
        break;
    case @OP_BRANCH_NOT_TAKEN@:
        s[1] = operand_v;
        break;
    case @OP_BRANCH_TAKEN@:
        s[1] = operand_v;
        s[2] = base + wf * (double)hw32(result);
        break;
    case @OP_JUMP@:
        s[1] = base + wf * (double)hw32(result);
        s[2] = base + wt * (double)hw32(result ^ old_rd);
        break;
    default: /* OP_SYSTEM: fetch cycle only */
        break;
    }
}

/* One pass over a whole event log (the row-major expand path). */
void reveal_expand_events(int64_t n, const int64_t *op,
                          const int64_t *word, const int64_t *rs1,
                          const int64_t *rs2, const int64_t *result,
                          const int64_t *old_rd, const int64_t *address,
                          const int64_t *prev, const int64_t *starts,
                          double *samples, double wd, double wt,
                          double wf, double we, double eoff, double base) {
    double half_wd = 0.5 * wd;
    double half_we = we * 0.5;
    double eng_base = base + eoff;
    for (int64_t e = 0; e < n; e++)
        expand_one(op[e], word[e], prev[e], rs1[e], rs2[e], result[e],
                   old_rd[e], address[e], samples + starts[e], wd,
                   half_wd, wt, wf, we, half_we, eng_base, base);
}
"""


def _c_source() -> str:
    source = _SOURCE_TEMPLATE
    for name in (
        "OP_ALU", "OP_MUL", "OP_DIV", "OP_LOAD", "OP_STORE",
        "OP_BRANCH_NOT_TAKEN", "OP_BRANCH_TAKEN", "OP_JUMP",
    ):
        source = source.replace(f"@{name}@", str(getattr(cy, name)))
    return source


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


def build_extension(modname: str, cdef: str, source: str, cflags):
    """Build (or reuse) the cffi extension ``modname``; returns the module.

    The shared object lives in ``$REVEAL_NATIVE_CACHE`` under
    ``modname``, which callers key by a digest of everything that goes
    into it, so a cached file is reused as is.  A cached file that is
    truncated or does not load is built once more, over it; a second
    failure propagates.  A missing ``cffi`` or C compiler raises;
    callers treat that as "unavailable".
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
    ffi.set_source(modname, source, extra_compile_args=list(cflags))
    # Build in a private temp dir, then publish atomically: concurrent
    # first-use from several processes must not see half-written files.
    build_dir = tempfile.mkdtemp(prefix="build-", dir=cache_dir)
    try:
        built = ffi.compile(tmpdir=build_dir)
        os.replace(built, target)
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)
    return _load_extension(modname, target)


def _compile_and_load():
    """Build (or reuse) the backend extension; returns ``(module, digest)``."""
    source = _c_source()
    digest = hashlib.sha256((_CDEF + source).encode()).hexdigest()[:12]
    # -ffp-contract=off: FMA contraction would change float results and
    # break the bit-exactness contract of the expand kernel.
    module = build_extension(
        f"_reveal_native_{digest}", _CDEF, source,
        ("-O3", "-ffp-contract=off"),
    )
    return module, digest


def _shoup_table(powers: np.ndarray, q: int) -> np.ndarray:
    """``floor(w * 2**64 / q)`` per twiddle, as uint64."""
    return np.array(
        [(int(w) << 64) // q for w in powers.tolist()], dtype=np.uint64
    )


def build_backend() -> Backend:
    module, digest = _compile_and_load()
    lib = module.lib
    ffi = module.ffi

    def i64(arr: np.ndarray):
        return ffi.cast("int64_t *", ffi.from_buffer(arr))

    def u64(arr: np.ndarray):
        return ffi.cast("uint64_t *", ffi.from_buffer(arr))

    def f64(arr: np.ndarray):
        return ffi.cast("double *", ffi.from_buffer(arr))

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

    def expand_events(cols, prev, starts, samples, weights) -> None:
        wd, wt, wf, we, eoff, base = weights
        rows = [np.ascontiguousarray(cols[i]) for i in range(7)]
        prev = np.ascontiguousarray(prev)
        starts_c = np.ascontiguousarray(starts)
        lib.reveal_expand_events(
            cols.shape[1], *(i64(r) for r in rows), i64(prev),
            i64(starts_c), f64(samples), wd, wt, wf, we, eoff, base,
        )

    return Backend(
        name="native",
        version=digest[:8],
        priority=10,
        kernels={
            "ntt_forward": ntt_forward,
            "ntt_inverse": ntt_inverse,
            "pointwise_mulmod": pointwise_mulmod,
            "expand_events": expand_events,
        },
    )
