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
oracles).  The ``segment`` kernel (see :func:`_segment_kernel`) runs
trace segmentation the same way and screens its one inexact step, a
dot product, under a rigorous rounding bound.  Every kernel is
bit-exact, so the backend changes speed, never an output bit.

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
import operator
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

/* ------------------------------------------------------------------
   Segmentation (Segmenter.windows / aligned_slices with AnchorRefiner).
   See _segment_kernel's docstring for the exactness argument.
   ------------------------------------------------------------------ */
#include <stdlib.h>
#include <string.h>
#include <math.h>
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SEG_X86 1
#endif

enum { SEG_OK = 0, SEG_EMPTY = 1, SEG_NONFINITE = 2, SEG_NO_BURSTS = 3,
       SEG_NO_ANCHOR = 4, SEG_DEFER = 5, SEG_NOMEM = 6 };

/* cfg layout, in SegmenterConfig field order */
enum { CFG_ENV_W, CFG_FRAC_W, CFG_FRAC_GAP, CFG_FRAC_MIN, CFG_BURST_GAP,
       CFG_BURST_MIN, CFG_ANCHOR_MIN, CFG_QUIET };

typedef struct { int64_t *start, *end; int64_t len, cap; } seg_runs;

static int runs_push(seg_runs *r, int64_t s, int64_t e) {
    if (r->len == r->cap) {
        int64_t cap = r->cap ? 2 * r->cap : 256;
        int64_t *ns = realloc(r->start, cap * sizeof(int64_t));
        if (!ns) return -1;
        r->start = ns;
        int64_t *ne = realloc(r->end, cap * sizeof(int64_t));
        if (!ne) return -1;
        r->end = ne;
        r->cap = cap;
    }
    r->start[r->len] = s;
    r->end[r->len] = e;
    r->len++;
    return 0;
}

/* One envelope, never stored whole: _moving_average's values are
   (P[lo + w + i] - P[lo + i]) / w over the shared padded prefix sum (or
   the samples, for window <= 1), recomputed where needed; the count
   pass keeps one 16-bit bucket per value (see seg_bucket). */
#define SEG_BLOCK 1024

typedef struct {
    const double *x, *P;
    int64_t n, pad, w;
    int shift;             /* bucket = float32 key >> shift (< 2^16) */
    double *buf;           /* SEG_BLOCK scratch values */
    uint16_t *bk;          /* bucket of every value, from the count pass */
} seg_env;

static const double *seg_env_block(const seg_env *e, int64_t i0, int64_t len) {
    if (e->w <= 1) return e->x + i0;
    const double *a = e->P + (e->pad - e->w / 2) + i0, *b = a + e->w;
    double dw = (double)e->w;
    for (int64_t i = 0; i < len; i++) e->buf[i] = (b[i] - a[i]) / dw;
    return e->buf;
}

static inline double seg_env_at(const seg_env *e, int64_t i) {
    if (e->w <= 1) return e->x[i];
    const double *a = e->P + (e->pad - e->w / 2) + i;
    return (a[e->w] - a[0]) / (double)e->w;
}

/* Order-preserving map of a non-NaN double onto uint64 (branch-free). */
static inline uint64_t seg_key(double v) {
    uint64_t u;
    memcpy(&u, &v, 8);
    return u ^ ((uint64_t)((int64_t)u >> 63) | 0x8000000000000000ULL);
}

static inline double seg_unkey(uint64_t k) {
    uint64_t u = (k >> 63) ? (k & 0x7FFFFFFFFFFFFFFFULL) : ~k;
    double v;
    memcpy(&v, &u, 8);
    return v;
}

#define SEG_MAX_BUCKETS 65536

/* Coarse bucket of a value: the top bits of its float32 rounding's
   order-preserving key.  Rounding to float32 is monotone, so values in
   a lower bucket are smaller; equal values share a bucket. */
static inline uint32_t seg_bucket(double v, int shift) {
    float f = (float)v;
    uint32_t u;
    memcpy(&u, &f, 4);
    return (u ^ ((uint32_t)((int32_t)u >> 31) | 0x80000000u)) >> shift;
}

static void seg_locate(const uint32_t *hist, int64_t nb, const int64_t *rank,
                       int count, int64_t *bucket, int64_t *below) {
    int64_t acc = 0;
    int left = count;
    for (int t = 0; t < count; t++) bucket[t] = -1, below[t] = 0;
    for (int64_t b = 0; b < nb && left; b++) {
        int64_t h = hist[b];
        if (!h) continue;
        for (int t = 0; t < count; t++)
            if (bucket[t] < 0 && rank[t] < acc + h) {
                bucket[t] = b;
                below[t] = acc;
                left--;
            }
        acc += h;
    }
}

/* Keys of ranks r and r + 1 (r + 1 < m) among keys[0..m): radix select
   over range-adaptive buckets (a power of two near m / 4); keys is
   compacted in place. */
static void seg_select_pair(uint64_t *keys, int64_t m, int64_t r,
                            uint32_t *hist, uint64_t out[2]) {
    for (;;) {
        if (m <= 16) {
            for (int64_t i = 1; i < m; i++) {
                uint64_t v = keys[i];
                int64_t j = i;
                while (j > 0 && keys[j - 1] > v) { keys[j] = keys[j - 1]; j--; }
                keys[j] = v;
            }
            out[0] = keys[r];
            out[1] = keys[r + 1];
            return;
        }
        uint64_t lo = keys[0], hi = keys[0];
        for (int64_t i = 1; i < m; i++) {
            lo = keys[i] < lo ? keys[i] : lo;
            hi = keys[i] > hi ? keys[i] : hi;
        }
        if (lo == hi) { out[0] = out[1] = lo; return; }
        int64_t nb = 256;
        while (nb < SEG_MAX_BUCKETS && nb < m / 4) nb *= 2;
        int shift = 0;
        while (((hi - lo) >> shift) >= (uint64_t)nb) shift++;
        memset(hist, 0, (size_t)nb * sizeof(uint32_t));
        for (int64_t i = 0; i < m; i++) hist[(keys[i] - lo) >> shift]++;
        int64_t rank[2] = {r, r + 1}, bucket[2], below[2];
        seg_locate(hist, nb, rank, 2, bucket, below);
        uint64_t b = (uint64_t)bucket[0], b2 = (uint64_t)bucket[1];
        if (b == b2) {
            int64_t j = 0;
            for (int64_t i = 0; i < m; i++)
                if (((keys[i] - lo) >> shift) == b) keys[j++] = keys[i];
            m = j;
            r -= below[0];
            continue;
        }
        /* rank r closes bucket b, rank r + 1 opens bucket b2 */
        uint64_t top = 0, bottom = UINT64_MAX;
        for (int64_t i = 0; i < m; i++) {
            uint64_t bk = (keys[i] - lo) >> shift;
            if (bk == b && keys[i] > top) top = keys[i];
            else if (bk == b2 && keys[i] < bottom) bottom = keys[i];
        }
        out[0] = top;
        out[1] = bottom;
        return;
    }
}

/* np.percentile(env, [10, 90]) for a NaN-free env, with numpy's
   "linear" method: ranks floor((n-1)*q) and the next one (both n-1 at
   or past the top), gamma taken against the (possibly -1) numpy index,
   and numpy's _lerp.  Order statistics: a count pass over coarse
   buckets (see seg_bucket) that keeps each value's bucket, then a
   gather pass of the exact keys in the buckets holding a wanted rank.
   hist holds SEG_MAX_BUCKETS counters. */
static int seg_percentiles(const seg_env *e, uint32_t *hist, double out[2]) {
    const int64_t n = e->n;
    const double q[2] = {0.1, 0.9};
    int64_t prev[2];
    double gamma[2];
    for (int j = 0; j < 2; j++) {
        double v = (double)(n - 1) * q[j];
        if (v >= (double)(n - 1)) {
            prev[j] = n - 1;
            gamma[j] = v - (-1.0);
        } else {
            prev[j] = (int64_t)v;  /* v >= 0: truncation is floor */
            gamma[j] = v - (double)prev[j];
        }
    }
    const int64_t nb = (int64_t)1 << (32 - e->shift);
    memset(hist, 0, (size_t)nb * sizeof(uint32_t));
    for (int64_t i0 = 0; i0 < n; i0 += SEG_BLOCK) {
        int64_t len = n - i0 < SEG_BLOCK ? n - i0 : SEG_BLOCK;
        const double *v = seg_env_block(e, i0, len);
        uint16_t *bk = e->bk + i0;
        for (int64_t i = 0; i < len; i++) bk[i] = (uint16_t)seg_bucket(v[i], e->shift);
        for (int64_t i = 0; i < len; i++) hist[bk[i]]++;
    }

    /* wanted ranks prev[j], prev[j] + 1 (the top rank n - 1 stands for
       both at the top) */
    int64_t rank[4] = {prev[0], prev[0] + 1, prev[1], prev[1] + 1};
    for (int t = 0; t < 4; t++) if (rank[t] > n - 1) rank[t] = n - 1;
    int64_t bucket[4], below[4];
    seg_locate(hist, nb, rank, 4, bucket, below);
    int64_t tb[4], size[4], offset[4], fill[4] = {0, 0, 0, 0};
    int64_t ns = 0, total = 0, largest = 0;
    for (int t = 0; t < 4; t++) {
        int seen = 0;
        for (int s = 0; s < ns; s++) seen |= tb[s] == bucket[t];
        if (seen) continue;
        tb[ns] = bucket[t];
        size[ns] = hist[bucket[t]];
        offset[ns] = total;
        total += size[ns];
        if (size[ns] > largest) largest = size[ns];
        ns++;
    }
    uint64_t *gathered = malloc((size_t)(total + largest) * sizeof(uint64_t));
    uint8_t *slot = calloc((size_t)nb, 1);  /* bucket -> 1 + its region */
    if (!gathered || !slot) {
        free(gathered);
        free(slot);
        return -1;
    }
    uint64_t *scratch = gathered + total;
    for (int s = 0; s < ns; s++) slot[tb[s]] = (uint8_t)(s + 1);
    for (int64_t i = 0; i < n; i++) {
        int s = slot[e->bk[i]];
        if (s) {
            s--;
            gathered[offset[s] + fill[s]++] = seg_key(seg_env_at(e, i));
        }
    }
    free(slot);
    for (int j = 0; j < 2; j++) {
        int s0 = 0, s1 = 0;
        while (tb[s0] != bucket[2 * j]) s0++;
        while (tb[s1] != bucket[2 * j + 1]) s1++;
        const uint64_t *g0 = gathered + offset[s0], *g1 = gathered + offset[s1];
        uint64_t pair[2];
        if (prev[j] == n - 1 || s0 != s1) {
            /* rank prev closes its bucket (the top rank closes the last
               one) and the next rank opens the following one */
            uint64_t top = 0, bottom = UINT64_MAX;
            for (int64_t t = 0; t < size[s0]; t++) if (g0[t] > top) top = g0[t];
            for (int64_t t = 0; t < size[s1]; t++) if (g1[t] < bottom) bottom = g1[t];
            pair[0] = top;
            pair[1] = prev[j] == n - 1 ? top : bottom;
        } else {
            memcpy(scratch, g0, (size_t)size[s0] * sizeof(uint64_t));
            seg_select_pair(scratch, size[s0], prev[j] - below[2 * j], hist,
                            pair);
        }
        double a = seg_unkey(pair[0]), b = seg_unkey(pair[1]), t = gamma[j];
        double diff = b - a;
        double lerp = a + diff * t;
        if (t >= 0.5) lerp = b - diff * (1.0 - t);
        out[j] = lerp;
    }
    free(gathered);
    return 0;
}

/* Scratch for one envelope over n values. */
static int seg_env_init(seg_env *e, const double *x, const double *P,
                        int64_t n, int64_t pad, int64_t w) {
    e->x = x;
    e->P = P;
    e->n = n;
    e->pad = pad;
    e->w = w;
    /* 65536 buckets for long traces, 4096 (cheaper to clear) otherwise */
    e->shift = n >= (1 << 18) ? 16 : 20;
    e->buf = malloc(SEG_BLOCK * sizeof(double));
    e->bk = malloc((size_t)n * sizeof(uint16_t));
    return e->buf && e->bk ? 0 : -1;
}

static void seg_env_free(seg_env *e) {
    free(e->buf);
    free(e->bk);
    e->buf = NULL;
    e->bk = NULL;
}

/* np.percentile(env, [10, 90]); NaN for both when env holds a NaN. */
void reveal_segment_percentiles(const double *env, int64_t n, double *out) {
    seg_env e = {0};
    int nan = 0;
    for (int64_t i = 0; i < n; i++) nan |= env[i] != env[i];
    uint32_t *hist = malloc(SEG_MAX_BUCKETS * sizeof(uint32_t));
    int failed = nan || !hist || seg_env_init(&e, env, NULL, n, 0, 1) ||
                 seg_percentiles(&e, hist, out);
    if (failed) out[0] = out[1] = NAN;
    seg_env_free(&e);
    free(hist);
}

/* _active_regions(env > thr, gap, min_len) with the same break rule
   (index step > gap + 1) and length filter.  A value's bucket decides
   env > thr unless it shares the threshold's bucket; only those values
   are recomputed.  (The threshold of a NaN-free envelope is NaN only
   when inf - inf arises in _lerp; it activates nothing.) */
static int seg_regions(const seg_env *e, double thr, int64_t gap,
                       int64_t min_len, seg_runs *out) {
    const int64_t n = e->n;
    if (thr != thr) return 0;
    const uint16_t tb = (uint16_t)seg_bucket(thr, e->shift);
    int64_t start = -1, last = -1;
    for (int64_t i = 0; i < n; i++) {
        uint16_t b = e->bk[i];
        if (b < tb || (b == tb && !(seg_env_at(e, i) > thr))) continue;
        if (start < 0) {
            start = i;
        } else if (i - last > gap + 1) {
            if (last + 1 - start >= min_len && runs_push(out, start, last + 1))
                return -1;
            start = i;
        }
        last = i;
    }
    if (start >= 0 && last + 1 - start >= min_len &&
        runs_push(out, start, last + 1))
        return -1;
    return 0;
}

/* Segmenter._engine_threshold: lo + fraction * (hi - lo). */
static int seg_threshold(const seg_env *e, double fraction, uint32_t *hist,
                         double *thr) {
    double p[2];
    if (seg_percentiles(e, hist, p)) return -1;
    *thr = p[0] + fraction * (p[1] - p[0]);
    return 0;
}

/* Segmenter._find_anchor over bursts [j0, j1); -1 when there is none. */
static int64_t seg_find_anchor(const seg_runs *b, int64_t j0, int64_t j1,
                               int64_t w_end, int is_last, int64_t amin,
                               int64_t quiet) {
    for (int64_t j = j1 - 1; j >= j0; j--) {
        int64_t s = b->start[j], e = b->end[j], gap;
        if (e - s < amin) continue;
        if (j + 1 < j1) gap = b->start[j + 1] - e;
        else if (is_last) gap = quiet;
        else gap = w_end - e;
        if (gap >= quiet) return e;
    }
    return j1 > j0 ? b->end[j1 - 1] : -1;
}

static int seg_all_finite(const double *x, int64_t n) {
    int finite = 1;
    for (int64_t i = 0; i < n; i++) finite &= (x[i] - x[i]) == 0.0;
    return finite;
}

/* Segmenter.windows: (start, end, anchor) triples into win, their count
   into info[0]; SEG_NO_ANCHOR puts (window, start, end) in info. */
int64_t reveal_segment_windows(const double *x, int64_t n, const int64_t *cfg,
                               int64_t *win, int64_t cap, int64_t *info) {
    if (n == 0) return SEG_EMPTY;
    int64_t ew = cfg[CFG_ENV_W], fw = cfg[CFG_FRAC_W];
    /* windows wider than the trace take np.convolve in numpy */
    if (ew < 1 || fw < 1 || ew > n || fw > n)
        return seg_all_finite(x, n) ? SEG_DEFER : SEG_NONFINITE;

    int64_t status = SEG_NOMEM;
    int64_t pad = (ew > fw ? ew : fw) / 2;
    double *P = NULL;
    uint32_t *hist = malloc(SEG_MAX_BUCKETS * sizeof(uint32_t));
    seg_runs frac = {0}, bursts = {0};
    seg_env fenv = {0}, eenv = {0};
    if (!hist) goto done;
    if (ew > 1 || fw > 1) {
        /* _padded_prefix_sum: zeros, numpy's sequential cumsum, csum[n] */
        P = malloc((size_t)(n + 1 + 2 * pad) * sizeof(double));
        if (!P) goto done;
        for (int64_t i = 0; i <= pad; i++) P[i] = 0.0;
        double acc = x[0];
        P[pad + 1] = acc;
        for (int64_t i = 1; i < n; i++) { acc = acc + x[i]; P[pad + 1 + i] = acc; }
        for (int64_t i = pad + 1 + n; i < n + 1 + 2 * pad; i++) P[i] = acc;
        /* a non-finite sample leaves the running sum non-finite for good,
           so a finite total clears the whole trace; a finite trace whose
           sum overflows (inf - inf envelopes) is left to numpy */
        if ((acc - acc) != 0.0) {
            status = seg_all_finite(x, n) ? SEG_DEFER : SEG_NONFINITE;
            goto done;
        }
    } else if (!seg_all_finite(x, n)) {
        status = SEG_NONFINITE;
        goto done;
    }
    /* 1. log bursts delimit the coefficients */
    double thr;
    if (seg_env_init(&fenv, x, P, n, pad, fw)) goto done;
    if (seg_threshold(&fenv, 0.35, hist, &thr)) goto done;
    if (seg_regions(&fenv, thr, cfg[CFG_FRAC_GAP], cfg[CFG_FRAC_MIN], &frac))
        goto done;
    if (frac.len == 0) { status = SEG_NO_BURSTS; goto done; }
    if (frac.len > cap) { status = SEG_DEFER; goto done; }
    seg_env_free(&fenv);

    /* 2. engine bursts for anchoring */
    if (seg_env_init(&eenv, x, P, n, pad, ew)) goto done;
    if (seg_threshold(&eenv, 0.5, hist, &thr)) goto done;
    if (seg_regions(&eenv, thr, cfg[CFG_BURST_GAP], cfg[CFG_BURST_MIN], &bursts))
        goto done;

    /* 3. bursts are sorted by start: each window's are one run of them */
    int64_t j0 = 0;
    for (int64_t i = 0; i < frac.len; i++) {
        int64_t w_start = frac.start[i];
        int64_t w_end = i + 1 < frac.len ? frac.start[i + 1] : n;
        while (j0 < bursts.len && bursts.start[j0] < w_start) j0++;
        int64_t j1 = j0;
        while (j1 < bursts.len && bursts.start[j1] < w_end) j1++;
        int64_t anchor = seg_find_anchor(&bursts, j0, j1, w_end,
                                         i == frac.len - 1,
                                         cfg[CFG_ANCHOR_MIN], cfg[CFG_QUIET]);
        if (anchor < 0) {
            info[0] = i;
            info[1] = w_start;
            info[2] = w_end;
            status = SEG_NO_ANCHOR;
            goto done;
        }
        win[3 * i] = w_start;
        win[3 * i + 1] = w_end;
        win[3 * i + 2] = anchor;
        j0 = j1;
    }
    info[0] = frac.len;
    status = SEG_OK;
done:
    seg_env_free(&fenv);
    seg_env_free(&eenv);
    free(hist);
    free(P);
    free(frac.start);
    free(frac.end);
    free(bursts.start);
    free(bursts.end);
    return status;
}

/* Cross terms c[d] = sum_k seg[d + k] * ref[k] for d < m, in any
   rounding order: the screen below bounds the error of every order. */
static void seg_cross_portable(const double *seg, const double *ref,
                               int64_t L, int64_t m, double *c) {
    int64_t d = 0;
    for (; d + 8 <= m; d += 8) {
        double a[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        for (int64_t k = 0; k < L; k++) {
            double r = ref[k];
            const double *p = seg + d + k;
            for (int j = 0; j < 8; j++) a[j] += p[j] * r;
        }
        for (int j = 0; j < 8; j++) c[d + j] = a[j];
    }
    for (; d < m; d++) {
        double s = 0.0;
        for (int64_t k = 0; k < L; k++) s += seg[d + k] * ref[k];
        c[d] = s;
    }
}

#ifdef SEG_X86
/* 32 positions per pass in eight 4-lane FMA accumulators: per reference
   tap, one broadcast, eight unaligned loads and eight FMAs. */
__attribute__((target("avx2,fma")))
static void seg_cross_avx2(const double *seg, const double *ref, int64_t L,
                           int64_t m, double *c) {
    int64_t d = 0;
    for (; d + 32 <= m; d += 32) {
        __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
        __m256d a4 = a0, a5 = a0, a6 = a0, a7 = a0;
        const double *p = seg + d;
        for (int64_t k = 0; k < L; k++) {
            __m256d r = _mm256_broadcast_sd(ref + k);
            const double *q = p + k;
            a0 = _mm256_fmadd_pd(_mm256_loadu_pd(q), r, a0);
            a1 = _mm256_fmadd_pd(_mm256_loadu_pd(q + 4), r, a1);
            a2 = _mm256_fmadd_pd(_mm256_loadu_pd(q + 8), r, a2);
            a3 = _mm256_fmadd_pd(_mm256_loadu_pd(q + 12), r, a3);
            a4 = _mm256_fmadd_pd(_mm256_loadu_pd(q + 16), r, a4);
            a5 = _mm256_fmadd_pd(_mm256_loadu_pd(q + 20), r, a5);
            a6 = _mm256_fmadd_pd(_mm256_loadu_pd(q + 24), r, a6);
            a7 = _mm256_fmadd_pd(_mm256_loadu_pd(q + 28), r, a7);
        }
        _mm256_storeu_pd(c + d, a0);
        _mm256_storeu_pd(c + d + 4, a1);
        _mm256_storeu_pd(c + d + 8, a2);
        _mm256_storeu_pd(c + d + 12, a3);
        _mm256_storeu_pd(c + d + 16, a4);
        _mm256_storeu_pd(c + d + 20, a5);
        _mm256_storeu_pd(c + d + 24, a6);
        _mm256_storeu_pd(c + d + 28, a7);
    }
    for (; d + 4 <= m; d += 4) {
        __m256d a = _mm256_setzero_pd();
        for (int64_t k = 0; k < L; k++)
            a = _mm256_fmadd_pd(_mm256_loadu_pd(seg + d + k),
                                _mm256_broadcast_sd(ref + k), a);
        _mm256_storeu_pd(c + d, a);
    }
    if (d < m) seg_cross_portable(seg + d, ref, L, m - d, c + d);
}
#endif

int reveal_segment_avx2(void) {
#ifdef SEG_X86
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return 0;
#endif
}

/* AnchorRefiner.refine for every window whose argmin the screen pins
   down; the rest get pending[i] = 1 and keep their coarse anchor.
   variant: 0 portable cross terms, 1 AVX2/FMA (where the CPU has it),
   -1 the best available.  Returns the pending count, -1 on no memory. */
int64_t reveal_segment_refine(const double *x, int64_t n, int64_t *win,
                              int64_t k, const double *ref, int64_t L,
                              int64_t before, int64_t after, int64_t variant,
                              uint8_t *pending) {
    void (*cross)(const double *, const double *, int64_t, int64_t, double *) =
        seg_cross_portable;
#ifdef SEG_X86
    if (variant != 0 && reveal_segment_avx2()) cross = seg_cross_avx2;
#else
    (void)variant;  /* the portable loop is the only one */
#endif
    const double u = 0x1p-53;
    double rr = 0.0;
    for (int64_t j = 0; j < L; j++) rr += ref[j] * ref[j];
    int screenable = rr <= 1e300;  /* false for inf and NaN too */
    double gl = 1.01 * (double)(L + 2) * u;
    double rnorm = sqrt(rr) * (1.0 + 2.0 * gl);
    double floor_abs = 64.0 * (double)(L + 2) * 0x1p-1022;

    int64_t room = 0, count = 0;
    double *Q = NULL, *c = NULL;
    for (int64_t i = 0; i < k; i++) {
        pending[i] = 0;
        int64_t lo = win[3 * i] > 0 ? win[3 * i] : 0;
        int64_t hi = win[3 * i + 1] + after < n ? win[3 * i + 1] + after : n;
        int64_t len = hi > lo ? hi - lo : 0;
        if (len < L) continue;  /* refine keeps the coarse anchor */
        if (!screenable) { pending[i] = 1; count++; continue; }
        if (len + 1 > room) {
            free(Q);
            free(c);
            room = 2 * (len + 1);
            Q = malloc((size_t)room * sizeof(double));
            c = malloc((size_t)room * sizeof(double));
            if (!Q || !c) { free(Q); free(c); return -1; }
        }
        const double *seg = x + lo;
        int64_t m = len - L + 1;
        /* numpy: squared[0] = 0, cumsum(segment * segment) after it */
        double acc = 0.0;
        Q[0] = 0.0;
        for (int64_t j = 0; j < len; j++) { acc = acc + seg[j] * seg[j]; Q[j + 1] = acc; }
        if (!(acc <= 1e300)) { pending[i] = 1; count++; continue; }
        /* every window energy E_d is at most the whole segment's, whose
           computed sum acc is off by at most g_len * acc */
        double gn = 1.01 * (double)(len + 2) * u;
        double slack = 8.0 * gl * sqrt(acc * (1.0 + 2.0 * gn)) * rnorm + floor_abs;
        cross(seg, ref, L, m, c);
        /* screened SSD s and bound slack + 8u|s|; smallest upper end */
        double best_upper = INFINITY;
        int ok = 1;
        for (int64_t d = 0; d < m; d++) {
            double s = (Q[L + d] - Q[d]) - 2.0 * c[d];
            double upper = s + (slack + 8.0 * u * fabs(s));
            ok &= (upper - upper) == 0.0;
            c[d] = s;
            best_upper = upper < best_upper ? upper : best_upper;
        }
        int64_t survivors = 0, best = -1;
        for (int64_t d = 0; ok && d < m && survivors < 2; d++) {
            double s = c[d];
            if (s - (slack + 8.0 * u * fabs(s)) <= best_upper) { survivors++; best = d; }
        }
        if (!ok || survivors != 1) { pending[i] = 1; count++; continue; }
        win[3 * i + 2] = lo + best + before;
    }
    free(Q);
    free(c);
    return count;
}

/* aligned_slices' rows: [anchor - before, anchor + after), zero-padded
   at the trace edges. */
void reveal_segment_gather(const double *x, int64_t n, const int64_t *win,
                           int64_t k, int64_t before, int64_t after,
                           double *out) {
    int64_t width = before + after;
    for (int64_t i = 0; i < k; i++) {
        int64_t anchor = win[3 * i + 2];
        int64_t lo = anchor - before;
        int64_t src_lo = lo > 0 ? lo : 0;
        int64_t src_hi = anchor + after < n ? anchor + after : n;
        double *row = out + i * width;
        memset(row, 0, (size_t)width * sizeof(double));
        if (src_hi > src_lo)
            memcpy(row + (src_lo - lo), x + src_lo,
                   (size_t)(src_hi - src_lo) * sizeof(double));
    }
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
            "segment": _segment_kernel(module),
        },
    )


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

    ``variant`` picks the cross-term loop: ``0`` portable, ``1`` AVX2/FMA
    where the CPU has it, ``-1`` the best available.  It exists so the
    tests can check both loops; every variant returns the same bits.
    """
    lib, ffi = module.lib, module.ffi

    def ptr(kind: str, arr: np.ndarray):
        return ffi.cast(kind, ffi.from_buffer(arr))

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
            ptr("double *", x), n, ptr("int64_t *", cfg),
            ptr("int64_t *", located), cap, ptr("int64_t *", info),
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
                ptr("double *", x), n, ptr("int64_t *", located),
                len(located), ptr("double *", reference), reference.size,
                geometry[2], geometry[3], variant,
                ptr("uint8_t *", pending),
            ) < 0:
                raise MemoryError("segmentation kernel: out of memory")
        rows = np.empty((len(located), geometry[0] + geometry[1]))
        lib.reveal_segment_gather(
            ptr("double *", x), n, ptr("int64_t *", located), len(located),
            geometry[0], geometry[1], ptr("double *", rows),
        )
        return "ok", (rows, located, np.flatnonzero(pending))

    return segment
