/* The native backend's kernels (repro.backends.native): NTT, pointwise
   products, leakage expansion and segmentation.

   Built into one cffi module after the generated prelude, which
   defines the op classes OP_*, NUM_OP_CLASSES and their cycle costs
   op_cycles[] from repro.riscv.cycles. */
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

/* Python % semantics (result in [0, q)) for possibly-negative input. */
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

/* Expand ONE event at s: every defined cycle of its op class; returns
   how many leading cycles it wrote (the rest of the class's cycles are
   baseline).  Expression trees mirror LeakageModel.expand exactly — see
   that method for the cycle-layout rationale.  half_wd/half_we/eng_base
   are the hoisted (0.5*wd, we*0.5, base+eoff) products shared across
   events. */
static inline int expand_one(int64_t op, int64_t word, int64_t prevw,
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
    case OP_ALU:
        s[1] = operand_v;
        s[2] = writeback_v;
        return 3;
    case OP_MUL: {
        s[1] = operand_v;
        uint32_t a = (uint32_t)rs1, b = (uint32_t)rs2;
        uint32_t acc = 0;
        for (int i = 0; i < 32; i++) {
            if ((b >> i) & 1u)
                acc += (uint32_t)((uint64_t)a << i);
            s[2 + i] = eng_base + we * (double)__builtin_popcount(acc);
        }
        s[34] = writeback_v;
        return 35;
    }
    case OP_DIV: {
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
        return 35;
    }
    case OP_LOAD:
        s[1] = base + half_wd * (double)hw32(address);
        s[2] = base + wd * (double)hw32(result);
        s[3] = writeback_v;
        return 4;
    case OP_STORE:
        s[1] = base + half_wd * (double)hw32(address);
        s[2] = base + wd * (double)hw32(result);
        s[3] = base + half_wd * (double)hw32(result);
        return 4;
    case OP_BRANCH_NOT_TAKEN:
        s[1] = operand_v;
        return 2;
    case OP_BRANCH_TAKEN:
        s[1] = operand_v;
        s[2] = base + wf * (double)hw32(result);
        return 3;
    case OP_JUMP:
        s[1] = base + wf * (double)hw32(result);
        s[2] = base + wt * (double)hw32(result ^ old_rd);
        return 3;
    default: /* OP_SYSTEM: fetch cycle only */
        return 1;
    }
}

/* starts[e] = cycles before event e of an event-major (n, 8) log, in
   place; returns the total cycle count, or -1 when an op class is out
   of range (the numpy path then decides what that means). */
int64_t reveal_expand_starts(int64_t n, const int64_t *rows, int64_t *starts) {
    int64_t total = 0;
    for (int64_t e = 0; e < n; e++) {
        int64_t op = rows[8 * e];
        if (op < 0 || op >= NUM_OP_CLASSES) return -1;
        starts[e] = total;
        total += op_cycles[op];
    }
    return total;
}

/* One pass over a whole event-major (n, 8) log: every cycle of every
   event, padding cycles at the baseline. */
void reveal_expand_events(int64_t n, const int64_t *rows, const int64_t *starts,
                          double *samples, double wd, double wt, double wf,
                          double we, double eoff, double base) {
    double half_wd = 0.5 * wd;
    double half_we = we * 0.5;
    double eng_base = base + eoff;
    int64_t prevw = 0;
    for (int64_t e = 0; e < n; e++) {
        const int64_t *r = rows + 8 * e;
        double *s = samples + starts[e];
        int64_t c = expand_one(r[0], r[1], prevw, r[2], r[3], r[4], r[5],
                               r[6], s, wd, half_wd, wt, wf, we, half_we,
                               eng_base, base);
        for (int64_t end = op_cycles[r[0]]; c < end; c++) s[c] = base;
        prevw = r[1];
    }
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
#ifdef __SSE2__
    __m128i want[4];
    for (int s = 0; s < 4; s++) want[s] = _mm_set1_epi16((short)tb[s < ns ? s : 0]);
#endif
    for (int64_t i = 0; i < n; i++) {
#ifdef __SSE2__
        /* the wanted buckets are few: skip eight values holding none */
        if (i + 8 <= n) {
            __m128i v = _mm_loadu_si128((const __m128i *)(e->bk + i));
            __m128i hit = _mm_or_si128(
                _mm_or_si128(_mm_cmpeq_epi16(v, want[0]), _mm_cmpeq_epi16(v, want[1])),
                _mm_or_si128(_mm_cmpeq_epi16(v, want[2]), _mm_cmpeq_epi16(v, want[3])));
            if (_mm_movemask_epi8(hit) == 0) {
                i += 7;
                continue;
            }
        }
#endif
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
#ifdef __SSE2__
        /* bursts and the gaps between them are long: eight buckets all
           below the threshold's are eight inactive values, eight all
           above it eight active ones (which, with gap >= 0, can only
           break a region at the first) */
        if (i + 8 <= n) {
            __m128i v = _mm_loadu_si128((const __m128i *)(e->bk + i));
            __m128i t = _mm_set1_epi16((short)tb), zero = _mm_setzero_si128();
            if (_mm_movemask_epi8(_mm_cmpeq_epi16(_mm_subs_epu16(t, v), zero)) == 0) {
                i += 7;
                continue;
            }
            if (gap >= 0 &&
                _mm_movemask_epi8(_mm_cmpeq_epi16(_mm_subs_epu16(v, t), zero)) == 0) {
                if (start < 0) {
                    start = i;
                } else if (i - last > gap + 1) {
                    if (last + 1 - start >= min_len && runs_push(out, start, last + 1))
                        return -1;
                    start = i;
                }
                last = i + 7;
                i += 7;
                continue;
            }
        }
#endif
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

/* One cross term sum_k seg[k] * ref[k], in any rounding order (screened
   like seg_cross_*). */
static double seg_dot_portable(const double *seg, const double *ref, int64_t L) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    int64_t k = 0;
    for (; k + 4 <= L; k += 4) {
        a0 += seg[k] * ref[k];
        a1 += seg[k + 1] * ref[k + 1];
        a2 += seg[k + 2] * ref[k + 2];
        a3 += seg[k + 3] * ref[k + 3];
    }
    for (; k < L; k++) a0 += seg[k] * ref[k];
    return (a0 + a1) + (a2 + a3);
}

#ifdef SEG_X86
__attribute__((target("avx2,fma")))
static double seg_dot_avx2(const double *seg, const double *ref, int64_t L) {
    __m256d a0 = _mm256_setzero_pd(), a1 = a0;
    int64_t k = 0;
    for (; k + 8 <= L; k += 8) {
        a0 = _mm256_fmadd_pd(_mm256_loadu_pd(seg + k), _mm256_loadu_pd(ref + k), a0);
        a1 = _mm256_fmadd_pd(_mm256_loadu_pd(seg + k + 4),
                             _mm256_loadu_pd(ref + k + 4), a1);
    }
    for (; k + 4 <= L; k += 4)
        a0 = _mm256_fmadd_pd(_mm256_loadu_pd(seg + k), _mm256_loadu_pd(ref + k), a0);
    double lane[4];
    _mm256_storeu_pd(lane, _mm256_add_pd(a0, a1));
    double s = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    for (; k < L; k++) s += seg[k] * ref[k];
    return s;
}
#endif

/* ---- the offset bound (see _segment_kernel's docstring) ----------- */

/* Reference chunks of the bound: chunk c covers ref[cend[c-1], cend[c])
   (cend[-1] = 0), all of width ceil(L / SEG_CHUNKS) but the last. */
#define SEG_CHUNKS 11

typedef struct {
    int64_t nc, cend[SEG_CHUNKS];
    double rho[SEG_CHUNKS], inv_w[SEG_CHUNKS];
} seg_chunks;

/* Two lanes of a portable vector (gcc's vector extensions): SSE2 on
   x86-64, NEON on AArch64.  Casts between the two types keep the bits. */
typedef double seg_v2 __attribute__((vector_size(16)));
typedef int64_t seg_m2 __attribute__((vector_size(16)));

static inline seg_v2 seg_load2(const double *p) {
    seg_v2 v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline seg_v2 seg_abs2(seg_v2 x) {
    return (seg_v2)((seg_m2)x & 0x7fffffffffffffffLL);
}

/* One chunk's bound term over blocks of four offsets: for every block
   start d in blk[0..nb), c[d + l] += the chunk difference (pe - pb) - r
   at d + l, less its error allowance delta, clamped at zero ((t + |t|)
   / 2 is exact), squared and scaled by the chunk's 1 / width.  Blocks
   with a lane whose c * shrink is still at most thr are kept, in order,
   in out; returns their count.  Each block is two two-lane vectors
   (gcc does not vectorize the scalar four-lane body by itself); c, blk
   and out never alias P or each other. */
static int64_t seg_bound_blocks(const double *restrict pb,
                                const double *restrict pe, double r,
                                double inv_w, double delta, double shrink,
                                double thr, double *restrict c,
                                const int64_t *restrict blk, int64_t nb,
                                int64_t *restrict out) {
    int64_t kept = 0;
    for (int64_t j = 0; j < nb; j++) {
        int64_t d = blk[j];
        seg_m2 any = {0, 0};
        for (int64_t h = d; h < d + 4; h += 2) {
            seg_v2 t = seg_abs2((seg_load2(pe + h) - seg_load2(pb + h)) - r)
                       - delta;
            t = (t + seg_abs2(t)) * 0.5;
            seg_v2 v = seg_load2(c + h) + t * t * inv_w;
            memcpy(c + h, &v, sizeof v);
            any |= v * shrink <= thr;
        }
        out[kept] = d;
        kept += (any[0] | any[1]) != 0;
    }
    return kept;
}

#ifdef SEG_X86
/* seg_bound_blocks with a block per AVX2 vector: the same operations
   in the same order, four lanes at once. */
__attribute__((target("avx2")))
static int64_t seg_bound_blocks_avx2(const double *pb, const double *pe,
                                     double r, double inv_w, double delta,
                                     double shrink, double thr, double *c,
                                     const int64_t *blk, int64_t nb,
                                     int64_t *out) {
    const __m256d vr = _mm256_set1_pd(r), vw = _mm256_set1_pd(inv_w);
    const __m256d vd = _mm256_set1_pd(delta), vs = _mm256_set1_pd(shrink);
    const __m256d vt = _mm256_set1_pd(thr), half = _mm256_set1_pd(0.5);
    const __m256d sign = _mm256_set1_pd(-0.0);
    int64_t kept = 0;
    for (int64_t j = 0; j < nb; j++) {
        int64_t d = blk[j];
        __m256d t = _mm256_sub_pd(
            _mm256_sub_pd(_mm256_loadu_pd(pe + d), _mm256_loadu_pd(pb + d)), vr);
        t = _mm256_sub_pd(_mm256_andnot_pd(sign, t), vd);
        t = _mm256_mul_pd(_mm256_add_pd(t, _mm256_andnot_pd(sign, t)), half);
        __m256d v = _mm256_add_pd(_mm256_loadu_pd(c + d),
                                  _mm256_mul_pd(_mm256_mul_pd(t, t), vw));
        _mm256_storeu_pd(c + d, v);
        int any = _mm256_movemask_pd(
            _mm256_cmp_pd(_mm256_mul_pd(v, vs), vt, _CMP_LE_OQ));
        out[kept] = d;
        kept += any != 0;
    }
    return kept;
}
#endif

typedef struct {
    void (*cross)(const double *, const double *, int64_t, int64_t, double *);
    double (*dot)(const double *, const double *, int64_t);
    int64_t (*bound)(const double *, const double *, double, double, double,
                     double, double, double *, const int64_t *, int64_t,
                     int64_t *);
} seg_loops;

/* Blocks of four offsets of one window with a lane whose bound c[d] *
   shrink stays at most thr after every chunk, into *blk; returns their
   count.  Chunks most unlike the segment's mean level mu prune most, so
   they go first; each chunk runs over the blocks still in the running,
   ping-ponged between *blk and *spare.  c covers m rounded up to whole
   blocks (P has three samples of padding); lanes past m and the lane
   skip (whose score is taken already) start at +inf, so they are never
   kept. */
static int64_t seg_prune(const seg_loops *lp, const seg_chunks *ch,
                         const double *P, int64_t m, double mu, double delta,
                         double shrink, double thr, int64_t skip, double *c,
                         int64_t **blk, int64_t **spare) {
    int64_t ord[SEG_CHUNKS];
    double key[SEG_CHUNKS];
    for (int64_t a = 0; a < ch->nc; a++) {
        int64_t b = a ? ch->cend[a - 1] : 0;
        double dev = ch->rho[a] - (double)(ch->cend[a] - b) * mu;
        double kv = dev * dev * ch->inv_w[a];
        int64_t j = a;
        while (j > 0 && key[j - 1] < kv) { key[j] = key[j - 1]; ord[j] = ord[j - 1]; j--; }
        key[j] = kv;
        ord[j] = a;
    }
    int64_t live = (m + 3) / 4;
    for (int64_t j = 0; j < live; j++) (*blk)[j] = 4 * j;
    memset(c, 0, (size_t)m * sizeof(double));
    for (int64_t d = m; d < 4 * live; d++) c[d] = INFINITY;
    c[skip] = INFINITY;
    for (int64_t a = 0; a < ch->nc && live; a++) {
        int64_t q = ord[a], b = q ? ch->cend[q - 1] : 0;
        live = lp->bound(P + b, P + ch->cend[q], ch->rho[q], ch->inv_w[q],
                         delta, shrink, thr, c, *blk, live, *spare);
        int64_t *t = *blk;
        *blk = *spare;
        *spare = t;
    }
    return live;
}

typedef struct { double lb; int64_t d; } seg_cand;

/* Per-window scratch, grown as windows grow. */
typedef struct {
    int64_t room;
    double *Q, *P, *c, *cs;
    int64_t *idx, *spare, *cd;
    seg_cand *cand;
} seg_scratch;

static void seg_scratch_free(seg_scratch *w) {
    free(w->Q); free(w->P); free(w->c); free(w->cs);
    free(w->idx); free(w->spare); free(w->cd); free(w->cand);
    memset(w, 0, sizeof(*w));
}

static int seg_scratch_fit(seg_scratch *w, int64_t len) {
    if (len + 4 <= w->room) return 0;
    seg_scratch_free(w);
    w->room = 2 * (len + 4);
    size_t nd = (size_t)w->room * sizeof(double), ni = (size_t)w->room * sizeof(int64_t);
    w->Q = malloc(nd); w->P = malloc(nd); w->c = malloc(nd); w->cs = malloc(nd);
    w->idx = malloc(ni); w->spare = malloc(ni); w->cd = malloc(ni);
    w->cand = malloc((size_t)w->room * sizeof(seg_cand));
    if (w->Q && w->P && w->c && w->cs && w->idx && w->spare && w->cd && w->cand)
        return 0;
    seg_scratch_free(w);
    return -1;
}

/* AnchorRefiner.refine for every window whose argmin the screen pins
   down; the rest get pending[i] = 1 and keep their coarse anchor.
   variant bit 0: AVX2 loops (where the CPU has AVX2 and FMA), else
   portable ones; bit 1: no offset pruning (every offset's cross term
   is taken); -1 is the best available (AVX2, pruning).  Returns the
   pending count, -1 on no memory. */
int64_t reveal_segment_refine(const double *x, int64_t n, int64_t *win,
                              int64_t k, const double *ref, int64_t L,
                              int64_t before, int64_t after, int64_t variant,
                              uint8_t *pending) {
    seg_loops lp = {seg_cross_portable, seg_dot_portable, seg_bound_blocks};
#ifdef SEG_X86
    if ((variant < 0 || (variant & 1)) && reveal_segment_avx2())
        lp = (seg_loops){seg_cross_avx2, seg_dot_avx2, seg_bound_blocks_avx2};
#endif
    const int prune = variant < 0 || !(variant & 2);
    const double u = 0x1p-53;
    double rr = 0.0, r1 = 0.0;
    for (int64_t j = 0; j < L; j++) { rr += ref[j] * ref[j]; r1 += fabs(ref[j]); }
    int screenable = rr <= 1e300;  /* false for inf and NaN too */
    double gl = 1.01 * (double)(L + 2) * u;
    double rnorm = sqrt(rr) * (1.0 + 2.0 * gl);
    double floor_abs = 64.0 * (double)(L + 2) * 0x1p-1022;

    seg_chunks ch;
    int64_t cw = (L + SEG_CHUNKS - 1) / SEG_CHUNKS;
    ch.nc = (L + cw - 1) / cw;
    for (int64_t a = 0; a < ch.nc; a++) {
        int64_t b = a * cw, e = b + cw < L ? b + cw : L;
        double sum = 0.0;
        for (int64_t j = b; j < e; j++) sum += ref[j];
        ch.rho[a] = sum;
        ch.inv_w[a] = 1.0 / (double)(e - b);
        ch.cend[a] = e;
    }
    /* the bound's own rounding, relative (see the docstring) */
    const double shrink = 1.0 - 2.0 * (double)(ch.nc + 4) * u;

    int64_t count = 0;
    seg_scratch w = {0};
    for (int64_t i = 0; i < k; i++) {
        pending[i] = 0;
        int64_t lo = win[3 * i] > 0 ? win[3 * i] : 0;
        int64_t hi = win[3 * i + 1] + after < n ? win[3 * i + 1] + after : n;
        int64_t len = hi > lo ? hi - lo : 0;
        if (len < L) continue;  /* refine keeps the coarse anchor */
        if (!screenable) { pending[i] = 1; count++; continue; }
        if (seg_scratch_fit(&w, len)) return -1;
        const double *seg = x + lo;
        double *Q = w.Q, *P = w.P, *cs = w.cs;
        int64_t *cd = w.cd;
        int64_t m = len - L + 1;
        /* numpy: squared[0] = 0, cumsum(segment * segment) after it; the
           plain prefix sum P and the absolute mass ab feed the bound */
        double acc = 0.0, ps = 0.0, ab = 0.0;
        Q[0] = 0.0;
        P[0] = 0.0;
        for (int64_t j = 0; j < len; j++) {
            acc = acc + seg[j] * seg[j];
            Q[j + 1] = acc;
            ps += seg[j];
            P[j + 1] = ps;
            ab += fabs(seg[j]);
        }
        for (int64_t j = len + 1; j <= len + 3; j++) P[j] = ps;
        if (!(acc <= 1e300)) { pending[i] = 1; count++; continue; }
        /* every window energy E_d is at most the whole segment's, whose
           computed sum acc is off by at most g_len * acc */
        double gn = 1.01 * (double)(len + 2) * u;
        double T = sqrt(acc * (1.0 + 2.0 * gn)) * rnorm;
        double slack = 8.0 * gl * T + floor_abs;
        /* the offsets whose screened scores s are taken: cd, cs; a
           squared chunk difference stays finite below 1e150 of mass */
        int64_t done = 0;
        if (!prune || !(ab + r1 <= 1e150)) {
            lp.cross(seg, ref, L, m, w.c);
            for (int64_t d = 0; d < m; d++) {
                cs[d] = (Q[L + d] - Q[d]) - 2.0 * w.c[d];
                cd[d] = d;
            }
            done = m;
        } else {
            /* seed: the coarse anchor's offset, one dot */
            int64_t d0 = win[3 * i + 2] - before - lo;
            d0 = d0 < 0 ? 0 : (d0 > m - 1 ? m - 1 : d0);
            double s0 = (Q[L + d0] - Q[d0]) - 2.0 * lp.dot(seg + d0, ref, L);
            cs[0] = s0;
            cd[0] = d0;
            done = 1;
            double best_upper = s0 + (slack + 8.0 * u * fabs(s0));
            /* numpy's score at d is at least LB(d) - R - margin */
            double margin = 3.0 * gn * acc + 2.0 * gl * T + 2.0 * u * (acc + 2.0 * T);
            double base = rr * (1.0 + 2.0 * gl) + 2.0 * margin +
                          64.0 * (double)(len + L + ch.nc + 4) * 0x1p-1022;
            double delta = 4.0 * gn * (ab + r1);
            double thr = best_upper + base;
            thr += 4.0 * u * (fabs(best_upper) + base);
            int64_t blocks = seg_prune(&lp, &ch, P, m, ps / (double)len, delta,
                                       shrink, thr, d0, w.c, &w.idx, &w.spare);
            /* the surviving offsets, lowest bound first: each new best
               score lowers the threshold and drops the offsets whose
               bound now exceeds it */
            seg_cand *cand = w.cand;
            int64_t live = 0;
            for (int64_t j = 0; j < blocks; j++)
                for (int64_t d = w.idx[j]; d < w.idx[j] + 4; d++)
                    if (w.c[d] * shrink <= thr) {
                        cand[live].lb = w.c[d];
                        cand[live++].d = d;
                    }
            while (live) {
                int64_t first = 0;
                for (int64_t j = 1; j < live; j++)
                    if (cand[j].lb < cand[first].lb) first = j;
                seg_cand next = cand[first];
                cand[first] = cand[--live];
                int64_t d = next.d;
                double s = (Q[L + d] - Q[d]) - 2.0 * lp.dot(seg + d, ref, L);
                double upper = s + (slack + 8.0 * u * fabs(s));
                cs[done] = s;
                cd[done++] = d;
                if (upper < best_upper) {
                    best_upper = upper;
                    thr = best_upper + base;
                    thr += 4.0 * u * (fabs(best_upper) + base);
                    int64_t kept = 0;
                    for (int64_t j = 0; j < live; j++) {
                        cand[kept] = cand[j];
                        kept += cand[j].lb * shrink <= thr;
                    }
                    live = kept;
                }
            }
        }
        /* screened SSD s and bound slack + 8u|s|; smallest upper end */
        double best_upper = INFINITY;
        int ok = 1;
        for (int64_t j = 0; j < done; j++) {
            double s = cs[j];
            double upper = s + (slack + 8.0 * u * fabs(s));
            ok &= (upper - upper) == 0.0;
            best_upper = upper < best_upper ? upper : best_upper;
        }
        int64_t survivors = 0, best = -1;
        for (int64_t j = 0; ok && j < done && survivors < 2; j++) {
            double s = cs[j];
            if (s - (slack + 8.0 * u * fabs(s)) <= best_upper) { survivors++; best = cd[j]; }
        }
        if (!ok || survivors != 1) { pending[i] = 1; count++; continue; }
        win[3 * i + 2] = lo + best + before;
    }
    seg_scratch_free(&w);
    return count;
}

/* 1 when every x[i] is finite: x * 0 is +-0 for a finite x and NaN
   otherwise, and a sum of zeros stays zero while NaN sticks (eight
   independent sums, so the loop vectorizes). */
#define ALL_FINITE_BODY                                                  \
    double a[8] = {0, 0, 0, 0, 0, 0, 0, 0};                              \
    int64_t i = 0;                                                       \
    for (; i + 8 <= n; i += 8)                                           \
        for (int j = 0; j < 8; j++) a[j] += x[i + j] * 0.0;              \
    for (; i < n; i++) a[0] += x[i] * 0.0;                               \
    return ((a[0] + a[1]) + (a[2] + a[3])) +                             \
           ((a[4] + a[5]) + (a[6] + a[7])) == 0.0;

static int all_finite_portable(const double *x, int64_t n) { ALL_FINITE_BODY }

#ifdef SEG_X86
__attribute__((target("avx2")))
static int all_finite_avx2(const double *x, int64_t n) { ALL_FINITE_BODY }
#endif

int reveal_all_finite(const double *x, int64_t n) {
#ifdef SEG_X86
    if (reveal_segment_avx2()) return all_finite_avx2(x, n);
#endif
    return all_finite_portable(x, n);
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

/* ------------------------------------------------------------------ */
/* RunningMoments.merge (repro.attack.template): Chan's scatter update
   over the block [lo, hi) x [lo, hi) of row-major L x L matrices,
   s[i][j] += ((d[i] * d[j]) * w) + o[i][j], which numpy forms in four
   passes (correction = outer(d, d); correction *= w; correction += o;
   s += correction), operation for operation.  o may be s. */
void reveal_moments_merge(double *s, const double *o, const double *d,
                          int64_t L, int64_t lo, int64_t hi, double w) {
    for (int64_t i = lo; i < hi; i++) {
        double *si = s + i * L;
        const double *oi = o + i * L;
        double di = d[i];
        for (int64_t j = lo; j < hi; j++) si[j] = si[j] + ((di * d[j]) * w + oi[j]);
    }
}

/* ------------------------------------------------------------------ */
/* Keyed Gaussian noise (repro.power.noise): Philox4x64-10 and numpy's
   ziggurat, bit-identical to Generator(Philox(key)).standard_normal.

   Raw words are textbook Philox4x64-10 at counters 1, 2, 3, ... of a
   block's key, four words per counter in order, which is what numpy's
   Philox.random_raw yields.  A draw takes numpy's ziggurat fast path,
   x = (double)rabs * wi[idx] with the sign in bit 63, whenever
   rabs < ki[idx]; any other draw is pushed back and numpy's own
   random_standard_normal (linked from libnpyrandom.a) takes it through
   a bitgen_t that replays the stream, so the tail, the wedge and their
   libm calls are numpy's code.  The tables are probed from that same
   function at load (noise_probe_tables).  Built only where the archive
   is found (NOISE_NPYRANDOM in the prelude); elsewhere the entry points
   report the kernel unavailable.  NOISE_BLOCK, the samples per keyed
   block, comes from the prelude. */

#ifdef NOISE_NPYRANDOM
#define NOISE_BUF 32 /* raw words per refill: eight counters */

typedef struct {
    uint64_t k0, k1, ctr;
    int pos;
    uint64_t buf[NOISE_BUF];
} noise_stream;

static void noise_philox(noise_stream *s) {
    for (int c = 0; c < NOISE_BUF / 4; c += 2) {
        /* two counters per pass: their round chains are independent */
        uint64_t a[4] = {s->ctr + 1, 0, 0, 0}, b[4] = {s->ctr + 2, 0, 0, 0};
        uint64_t k0 = s->k0, k1 = s->k1;
        for (int round = 0; round < 10; round++) {
            __uint128_t pa0 = (__uint128_t)0xD2E7470EE14C6C93ULL * a[0];
            __uint128_t pa1 = (__uint128_t)0xCA5A826395121157ULL * a[2];
            __uint128_t pb0 = (__uint128_t)0xD2E7470EE14C6C93ULL * b[0];
            __uint128_t pb1 = (__uint128_t)0xCA5A826395121157ULL * b[2];
            uint64_t na[4] = {(uint64_t)(pa1 >> 64) ^ a[1] ^ k0, (uint64_t)pa1,
                              (uint64_t)(pa0 >> 64) ^ a[3] ^ k1, (uint64_t)pa0};
            uint64_t nb[4] = {(uint64_t)(pb1 >> 64) ^ b[1] ^ k0, (uint64_t)pb1,
                              (uint64_t)(pb0 >> 64) ^ b[3] ^ k1, (uint64_t)pb0};
            for (int j = 0; j < 4; j++) { a[j] = na[j]; b[j] = nb[j]; }
            k0 += 0x9E3779B97F4A7C15ULL;
            k1 += 0xBB67AE8584CAA73BULL;
        }
        for (int j = 0; j < 4; j++) {
            s->buf[4 * c + j] = a[j];
            s->buf[4 * c + 4 + j] = b[j];
        }
        s->ctr += 2;
    }
    s->pos = 0;
}

/* numpy/random/bitgen.h */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

double random_standard_normal(bitgen_t *bitgen_state);

static double noise_wi[256];
static uint64_t noise_ki[256]; /* 0: the index always takes numpy's path */
static int noise_ready;

static uint64_t noise_next64(void *st) {
    noise_stream *s = (noise_stream *)st;
    if (s->pos == NOISE_BUF) noise_philox(s);
    return s->buf[s->pos++];
}

/* random_standard_normal never reads 32-bit words; next_double is
   numpy's Philox one. */
static uint32_t noise_next32(void *st) {
    return (uint32_t)noise_next64(st);
}

static double noise_next_double(void *st) {
    return (double)(noise_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's ziggurat fast path for the raw word r: 1 with *x set when
   rabs < ki[idx], 0 when numpy's sampler must take the draw.  Both word
   sources (the keyed Philox stream and a caller's bitgen_t) share it. */
static inline int noise_fast(uint64_t r, double *x) {
    uint64_t idx = r & 0xff;
    uint64_t rabs = (r >> 9) & 0x000fffffffffffffULL;
    if (__builtin_expect(rabs < noise_ki[idx], 1)) {
        double v = (double)(int64_t)rabs * noise_wi[idx];
        uint64_t bits;
        memcpy(&bits, &v, sizeof bits);
        bits ^= (r & 0x100) << 55; /* the sign without a branch */
        memcpy(x, &bits, sizeof bits);
        return 1;
    }
    return 0;
}

static inline double noise_normal(noise_stream *s, bitgen_t *slow) {
    if (s->pos == NOISE_BUF) noise_philox(s);
    double x;
    if (noise_fast(s->buf[s->pos++], &x)) return x;
    s->pos--; /* numpy's sampler re-reads the draw */
    return random_standard_normal(slow);
}

/* The caller's generator with one word pushed back: the first
   next_uint64 returns it, every other call goes to the generator, so
   numpy's sampler re-reads a rejected draw and takes any further words
   (and its next_double, MT19937's differs from PCG64's) from the
   generator itself.  random_standard_normal reads a 64-bit word first,
   so the pushed-back word is never asked for in another width. */
typedef struct {
    bitgen_t *real;
    uint64_t word;
    int pending;
} noise_replay;

static uint64_t noise_replay_next64(void *st) {
    noise_replay *p = (noise_replay *)st;
    if (p->pending) {
        p->pending = 0;
        return p->word;
    }
    return p->real->next_uint64(p->real->state);
}

static uint32_t noise_replay_next32(void *st) {
    noise_replay *p = (noise_replay *)st;
    return p->real->next_uint32(p->real->state);
}

static double noise_replay_double(void *st) {
    noise_replay *p = (noise_replay *)st;
    return p->real->next_double(p->real->state);
}

static uint64_t noise_replay_raw(void *st) {
    noise_replay *p = (noise_replay *)st;
    return p->real->next_raw(p->real->state);
}

/* The next standard normal of the caller's generator, whose
   next_uint64 and state are next and st, as numpy's
   random_standard_normal would draw it. */
static inline double noise_normal_seq(uint64_t (*next)(void *), void *st,
                                      noise_replay *replay, bitgen_t *slow) {
    uint64_t r = next(st);
    double x;
    if (noise_fast(r, &x)) return x;
    replay->word = r;
    replay->pending = 1;
    return random_standard_normal(slow);
}

static uint64_t noise_splitmix(uint64_t *state) {
    uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* A bitgen_t whose first word is scripted; later words come from a
   splitmix64 sequence, so a rejected draw still terminates. */
typedef struct {
    uint64_t first, mix;
    int calls;
} noise_probe;

static uint64_t noise_probe_next64(void *st) {
    noise_probe *p = (noise_probe *)st;
    return p->calls++ == 0 ? p->first : noise_splitmix(&p->mix);
}

static uint32_t noise_probe_next32(void *st) {
    return (uint32_t)noise_probe_next64(st);
}

static double noise_probe_double(void *st) {
    return (double)(noise_probe_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's normal of a draw r; *fast is 1 when it read no other word */
static double noise_probe_one(uint64_t r, int *fast) {
    noise_probe p = {r, r, 0};
    bitgen_t g = {&p, noise_probe_next64, noise_probe_next32,
                  noise_probe_double, noise_probe_next64};
    double x = random_standard_normal(&g);
    *fast = p.calls == 1;
    return x;
}

static inline uint64_t noise_draw(uint64_t idx, uint64_t sign, uint64_t rabs) {
    return (rabs << 9) | (sign << 8) | idx;
}

/* Probe ki and wi from numpy's sampler, then check the fast path against
   it at the edges of every index and on scrambled draws.  Returns 0 when
   the tables are in place. */
static int noise_probe_tables(void) {
    const uint64_t top = 1ULL << 52;
    int fast;
    for (uint64_t idx = 0; idx < 256; idx++) {
        /* ki: the first rabs numpy sends down its slow path */
        uint64_t lo = 0, hi = top;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            noise_probe_one(noise_draw(idx, 0, mid), &fast);
            if (fast) lo = mid + 1; else hi = mid;
        }
        noise_ki[idx] = 0;
        noise_wi[idx] = 0.0;
        if (lo < 2) continue; /* rabs = 1 is not fast: wi unobservable */
        double w = noise_probe_one(noise_draw(idx, 0, 1), &fast);
        if (!fast) return -1;
        noise_wi[idx] = w;
        noise_ki[idx] = lo;
    }
    uint64_t mix = 0x5EA1D15EA5EULL;
    for (int i = 0; i < 256 * 8 + 4096; i++) {
        uint64_t r;
        if (i < 256 * 8) {
            uint64_t idx = (uint64_t)i >> 3, k = noise_ki[idx];
            uint64_t edge[4] = {0, 1, k ? k - 1 : 0, k < top ? k : top - 1};
            r = noise_draw(idx, (uint64_t)i & 1, edge[(i >> 1) & 3]);
        } else {
            r = noise_splitmix(&mix);
        }
        double want = noise_probe_one(r, &fast), got;
        uint64_t idx = r & 0xff, rabs = (r >> 9) & (top - 1);
        if (rabs < noise_ki[idx]) {
            if (!fast || !noise_fast(r, &got)) return -1;
            if (memcmp(&got, &want, sizeof got) != 0) return -1;
        }
    }
    return 0;
}
#endif

/* 0 when the noise kernel is usable (tables probed), else -1. */
int reveal_noise_init(void) {
#ifdef NOISE_NPYRANDOM
    if (!noise_ready) noise_ready = noise_probe_tables() == 0 ? 1 : -1;
    return noise_ready == 1 ? 0 : -1;
#else
    return -1;
#endif
}

/* dst[i] = src[i] * gain + z[offset + i] * std for i < n, where z is the
   standard normal stream of base key (k0, k1): sample j is element
   j % 16384 of block j / 16384, keyed (k0, k1 ^ block).  This is the
   expression numpy evaluates in two passes (out *= gain, then
   out += standard_noise(...) * std), operation for operation; src may
   be dst.  Returns 0, or -1 where the kernel is unavailable. */
int reveal_add_noise(const double *src, double *dst, int64_t n, uint64_t k0,
                     uint64_t k1, int64_t offset, double gain, double std) {
#ifdef NOISE_NPYRANDOM
    if (noise_ready != 1) return -1;
    noise_stream s;
    bitgen_t slow = {&s, noise_next64, noise_next32, noise_next_double,
                     noise_next64};
    int64_t i = 0;
    while (i < n) {
        int64_t pos = offset + i;
        int64_t block = pos / NOISE_BLOCK;
        int64_t lo = pos - block * NOISE_BLOCK;
        int64_t take = NOISE_BLOCK - lo;
        if (take > n - i) take = n - i;
        s.k0 = k0;
        s.k1 = k1 ^ (uint64_t)block;
        s.ctr = 0;
        noise_philox(&s);
        for (int64_t j = 0; j < lo; j++) noise_normal(&s, &slow);
        for (int64_t j = i; j < i + take; j++) {
            double z = noise_normal(&s, &slow);
            double t = src[j] * gain;
            dst[j] = t + z * std;
        }
        i += take;
    }
    return 0;
#else
    (void)src; (void)dst; (void)n; (void)k0; (void)k1; (void)offset;
    (void)gain; (void)std;
    return -1;
#endif
}

/* dst[i] = src[i] * gain + (0.0 + std * z_i) for i < n, where z_i are
   the next n standard normals of the caller's numpy bitgen_t (taken as
   void *: cffi's cdef does not know the struct).  This is what numpy
   evaluates as out *= gain, then out += rng.normal(0.0, std, n):
   random_normal returns loc + scale * z, and the 0.0 + turns a -0.0
   product into 0.0.  The generator ends in numpy's state: every word
   read is a word numpy's sampler reads.  The caller holds the
   generator's lock.  src may be dst.  Returns 0, or -1 where the kernel
   is unavailable. */
int reveal_add_normal(const double *src, double *dst, int64_t n, void *bitgen,
                      double gain, double std) {
#ifdef NOISE_NPYRANDOM
    if (noise_ready != 1) return -1;
    bitgen_t *g = (bitgen_t *)bitgen;
    noise_replay replay = {g, 0, 0};
    bitgen_t slow = {&replay, noise_replay_next64, noise_replay_next32,
                     noise_replay_double, noise_replay_raw};
    /* locals: the generator's calls cannot move them */
    uint64_t (*next)(void *) = g->next_uint64;
    void *st = g->state;
    for (int64_t i = 0; i < n; i++) {
        double z = noise_normal_seq(next, st, &replay, &slow);
        double t = src[i] * gain;
        dst[i] = t + (0.0 + std * z);
    }
    return 0;
#else
    (void)src; (void)dst; (void)n; (void)bitgen; (void)gain; (void)std;
    return -1;
#endif
}
