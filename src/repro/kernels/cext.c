/* The cext kernel backend's C source: compiled at run time for the host CPU
 * with repro.kernels.cext._CFLAGS, self-probed against the NumPy references
 * before any hook is bound.  Why each routine is bit-identical to its
 * reference is argued in the docstring of repro/kernels/cext.py. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* NumPy's pairwise summation (scalar form): n<8 naive, n<=128 8-way
 * unrolled with the ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) combine, larger n
 * recursively halved to a multiple of 8.  Bit-identical to
 * ndarray.sum over a contiguous double row (verified by self-probe). */
static double pairwise(const double *a, size_t n) {
    if (n < 8) {
        double res = 0.0;
        for (size_t i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        size_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i + 0]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) res += a[i];
        return res;
    }
    size_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

void pairwise_rows(const double *a, int64_t rows, int64_t n, double *out) {
    for (int64_t r = 0; r < rows; r++) out[r] = pairwise(a + (size_t)r * n, (size_t)n);
}

/* One 128-element leaf of the pairwise sum over a 16-wide block: eight
 * rows of two 8-lane chunks, accumulated lane-wise straight from the two
 * sources (what pairwise() does over the scratch row, minus the scratch). */
static inline double sad_leaf16(const double *c, const double *r, int64_t ref_stride) {
    double acc[8];
    for (int j = 0; j < 8; j++) acc[j] = fabs(c[j] - r[j]);
    for (int j = 0; j < 8; j++) acc[j] += fabs(c[8 + j] - r[8 + j]);
    for (int i = 1; i < 8; i++) {
        const double *cc = c + 16 * i;
        const double *rr = r + ref_stride * i;
        for (int j = 0; j < 8; j++) acc[j] += fabs(cc[j] - rr[j]);
        for (int j = 0; j < 8; j++) acc[j] += fabs(cc[8 + j] - rr[8 + j]);
    }
    return ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/* |cur - ref| over one block, then the NumPy-pairwise reduction.  The
 * scratch buffer makes the reduction read a contiguous row exactly like
 * the evaluator's (m, b, b) difference buffer; the codec's own macroblock
 * size (16: 256 elements = two 128-element leaves) skips it. */
static double sad_block(const double *cur, const double *refp, int64_t ref_stride,
                        int64_t block, double *scratch) {
    if (block == 16)
        return sad_leaf16(cur, refp, ref_stride)
               + sad_leaf16(cur + 128, refp + 8 * ref_stride, ref_stride);
    int64_t k = 0;
    for (int64_t i = 0; i < block; i++) {
        const double *r = refp + i * ref_stride;
        const double *c = cur + i * block;
        for (int64_t j = 0; j < block; j++) scratch[k++] = fabs(c[j] - r[j]);
    }
    return pairwise(scratch, (size_t)(block * block));
}

/* floor(log2(2|v| + 1)) for small integers: the bit length of the odd
 * integer 2|v|+1, minus one.  Exact — no transcendental involved. */
static double mv_bits(int64_t dx, int64_t dy, int64_t px, int64_t py) {
    uint64_t tx = 2ull * (uint64_t)llabs(dx - px) + 1ull;
    uint64_t ty = 2ull * (uint64_t)llabs(dy - py) + 1ull;
    int ex = 63 - __builtin_clzll(tx);
    int ey = 63 - __builtin_clzll(ty);
    return 2.0 + 2.0 * ((double)ex + (double)ey);
}

/* n float32 -> float64, eight at a time: GCC's -O2 vectorises only a loop
 * whose trip count it knows to be a whole number of vectors, on every
 * -march (the plain loop below stays scalar on the host ISA too).  Eight
 * lanes are four SSE2 conversions or two AVX ones. */
static inline void widen(const float *src, double *dst, int64_t n) {
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        for (int j = 0; j < 8; j++) dst[i + j] = (double)src[i + j];
    for (; i < n; i++) dst[i] = (double)src[i];
}

/* float32 plane -> float64, edge-replicated by pad on every side (np.pad of
 * the widened plane, mode="edge": widening is exact, so the order is free).
 * dst holds (h + 2 pad) rows of w + 2 pad. */
static void pad_edge(const float *src, int64_t h, int64_t w, int64_t pad, double *dst) {
    int64_t stride = w + 2 * pad;
    for (int64_t i = 0; i < h; i++) {
        const float *s = src + i * w;
        double *d = dst + (pad + i) * stride;
        for (int64_t j = 0; j < pad; j++) d[j] = (double)s[0];
        widen(s, d + pad, w);
        for (int64_t j = 0; j < pad; j++) d[pad + w + j] = (double)s[w - 1];
    }
    for (int64_t i = 0; i < pad; i++) {
        memcpy(dst + i * stride, dst + pad * stride, (size_t)stride * sizeof(double));
        memcpy(dst + (pad + h + i) * stride, dst + (pad + h - 1) * stride,
               (size_t)stride * sizeof(double));
    }
}

/* Whether n float32 values are all finite: no exponent field is all ones.
 * Integer compares OR-reduced in eight lanes (as widen, for the vectoriser). */
static int all_finite(const float *a, int64_t n) {
    uint32_t bad[8] = {0}, bits;
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        for (int j = 0; j < 8; j++) {
            memcpy(&bits, a + i + j, sizeof bits);
            bad[j] |= (bits & 0x7f800000u) == 0x7f800000u;
        }
    for (; i < n; i++) {
        memcpy(&bits, a + i, sizeof bits);
        bad[0] |= (bits & 0x7f800000u) == 0x7f800000u;
    }
    return !(bad[0] | bad[1] | bad[2] | bad[3] | bad[4] | bad[5] | bad[6] | bad[7]);
}

/* ---- the pattern searches (repro.codec.motion._pattern_search) ----
 * One call runs the whole DIA / HEX / UMH search of a frame.  Every SAD goes
 * through a per-block memo keyed by the displacement: within one call SAD is
 * a pure function of (block, dx, dy) — only the MV-bit term changes from
 * pass to pass — and sad_block keeps NumPy's pairwise order, so a hit is the
 * very double the reference computes again.  Open addressing over
 * MEMO_SLOTS keys per block (0 = empty); a table that holds MEMO_CAP entries
 * stops inserting, so a probe always ends on an empty slot. */
#define MEMO_SLOTS 128
#define MEMO_CAP 96

typedef struct {
    /* the frame */
    const double *ref_pad;  /* the reference, edge-padded by rng */
    int64_t stride, block, rng, cols;
    double lambda_mv;
    const double *cur_blocks;  /* the current frame, block-major */
    uint16_t *all_keys;  /* MEMO_SLOTS per block, */
    double *all_vals;    /* their SADs, */
    uint8_t *counts;     /* and how many each block holds */
    double *scratch;     /* block * block doubles: sad_block's row */
    /* the block being searched (me_select) */
    const double *cur, *origin;  /* its pixels; its zero-MV window in ref_pad */
    uint16_t *keys;
    double *vals;
    uint8_t *count;
} me_state;

static inline void me_select(me_state *m, int64_t b) {
    m->cur = m->cur_blocks + b * m->block * m->block;
    m->origin = m->ref_pad + (m->rng + (b / m->cols) * m->block) * m->stride
                + m->rng + (b % m->cols) * m->block;
    m->keys = m->all_keys + b * MEMO_SLOTS;
    m->vals = m->all_vals + b * MEMO_SLOTS;
    m->count = m->counts + b;
}

/* SAD of the selected block at (dx, dy), both inside [-rng, rng].  The key
 * numbers the (2 rng + 1)^2 displacements from 1: a uint16_t up to
 * rng = 127, the widest search the wrapper hands over. */
static inline double me_sad(me_state *m, int64_t dx, int64_t dy) {
    uint32_t key = (uint32_t)((dy + m->rng) * (2 * m->rng + 1) + dx + m->rng + 1);
    uint32_t slot = (key * 2654435761u) >> 25;  /* Fibonacci hash: the top log2(MEMO_SLOTS) bits */
    for (; m->keys[slot]; slot = (slot + 1) % MEMO_SLOTS)
        if (m->keys[slot] == key) return m->vals[slot];
    double sad = sad_block(m->cur, m->origin - dy * m->stride - dx, m->stride, m->block, m->scratch);
    if (*m->count < MEMO_CAP) {
        m->keys[slot] = (uint16_t)key;
        m->vals[slot] = sad;
        ++*m->count;
    }
    return sad;
}

/* One candidate against the block's running best: accepted on
 * cand < cost - 1e-9, as every stage of the reference accepts. */
static inline int me_try(me_state *m, int64_t cx, int64_t cy, int64_t px, int64_t py,
                         int64_t *dx, int64_t *dy, double *cost) {
    double cand = me_sad(m, cx, cy) + m->lambda_mv * mv_bits(cx, cy, px, py);
    if (!(cand < *cost - 1e-9)) return 0;
    *dx = cx; *dy = cy; *cost = cand;
    return 1;
}

static inline int64_t clip_range(int64_t v, int64_t rng) {
    return v < -rng ? -rng : v > rng ? rng : v;
}

/* Pattern descent: offsets relative to the block's current MV, a candidate
 * outside the window skipped (the reference costs it inf), repeated until a
 * full sweep improves nothing or 16 sweeps.  The reference batches blocks
 * per offset over an active set; blocks are independent, so walking one
 * block to the end is a pure reordering. */
static void me_descend(me_state *m, const int64_t *pattern, int64_t npat, int64_t px, int64_t py,
                       int64_t *dx, int64_t *dy, double *cost) {
    for (int it = 0; it < 16; it++) {
        int improved = 0;
        for (int64_t p = 0; p < npat; p++) {
            int64_t cx = *dx + pattern[2 * p], cy = *dy + pattern[2 * p + 1];
            if (cx < -m->rng || cx > m->rng || cy < -m->rng || cy > m->rng) continue;
            improved |= me_try(m, cx, cy, px, py, dx, dy, cost);
        }
        if (!improved) break;
    }
}

static const int64_t ME_DIAMOND[] = {0, -1, -1, 0, 1, 0, 0, 1};
static const int64_t ME_HEXAGON[] = {-2, 0, -1, -2, 1, -2, 2, 0, 1, 2, -1, 2};

/* The vertex of the parabola through (-1, sm), (0, s0), (1, sp), within
 * +-0.5 — 0 where the three do not curve upwards. */
static inline double parabola_vertex(double sm, double s0, double sp) {
    double denom = sm - 2.0 * s0 + sp, off = 0.5 * (sm - sp) / denom;
    if (!(denom > 1e-9 && isfinite(off))) return 0.0;
    return off < -0.5 ? -0.5 : off > 0.5 ? 0.5 : off;
}

static inline double clip_window(double v, int64_t rng) {
    return v < (double)-rng ? (double)-rng : v > (double)rng ? (double)rng : v;
}

static inline int64_t median3(int64_t a, int64_t b, int64_t c) {
    int64_t lo = a < b ? a : b, hi = a < b ? b : a;
    return c < lo ? lo : c > hi ? hi : c;
}

/* The search, pass-major as the reference is: the zero-predictor pass, then
 * twice a pass under the median predictors of the pass before (which must
 * be complete: they are formed for the whole grid first), the final SAD and
 * the parabolic sub-pel vertex.  method: 0 DIA, 1 HEX, 2 UMH (umh holds its
 * n_umh relative offsets).  cur / ref are (rows*block, cols*block) float32
 * planes, 0 <= rng <= 127.  mv gets (rows, cols, 2) float32, sad_out
 * the SAD under the integer MV.  Returns 1 — the reference answers — on a
 * NaN or infinite pixel (a NaN's payload is not pinned by the pairwise
 * order) and when the scratch cannot be allocated. */
int64_t pattern_search(const float *cur, const float *ref, int64_t rows, int64_t cols,
                       int64_t block, int64_t rng, int64_t method, double lambda_mv,
                       int64_t subpel, const int64_t *umh, int64_t n_umh,
                       float *mv, double *sad_out) {
    int64_t n = rows * cols, bb = block * block, w = cols * block, h = rows * block;
    int64_t stride = w + 2 * rng;
    if (!(all_finite(cur, h * w) && all_finite(ref, h * w))) return 1;
    /* One allocation, carved widest type first: the padded reference, the
     * blocks, sad_block's row, the memo's SADs and each block's running
     * cost; the MV field and its predictors; the memo's keys and counts. */
    int64_t n_ref = (h + 2 * rng) * stride, n_f64 = n_ref + n * bb + bb + n * MEMO_SLOTS + n;
    size_t memo_bytes = (size_t)(n * MEMO_SLOTS) * sizeof(uint16_t) + (size_t)n;
    double *ref_pad = malloc((size_t)(n_f64 + 4 * n) * sizeof(double) + memo_bytes);
    if (!ref_pad) return 1;
    double *cur_blocks = ref_pad + n_ref, *vals = cur_blocks + n * bb + bb;
    double *cost = vals + n * MEMO_SLOTS;
    int64_t *dx = (int64_t *)(cost + n), *dy = dx + n, *pred_x = dy + n, *pred_y = pred_x + n;
    uint16_t *keys = (uint16_t *)(pred_y + n);
    uint8_t *counts = (uint8_t *)(keys + n * MEMO_SLOTS);
    memset(keys, 0, memo_bytes);
    const int64_t *pattern = method ? ME_HEXAGON : ME_DIAMOND;
    int64_t npat = method ? 6 : 4;
    /* The selected block's fields stay zero until me_select fills them. */
    me_state m = {.ref_pad = ref_pad, .stride = stride, .block = block, .rng = rng, .cols = cols,
                  .lambda_mv = lambda_mv, .cur_blocks = cur_blocks, .all_keys = keys,
                  .all_vals = vals, .counts = counts, .scratch = cur_blocks + n * bb};
    pad_edge(ref, h, w, rng, ref_pad);
    for (int64_t b = 0; b < n; b++) {
        const float *src = cur + (b / cols) * block * w + (b % cols) * block;
        for (int64_t i = 0; i < block; i++) widen(src + i * w, cur_blocks + b * bb + i * block, block);
    }

    /* Pass 1: zero start, zero predictor.  HEX / UMH first seed the
     * blocks whose zero-MV match is poor from a coarse absolute grid. */
    int64_t step = rng / 2 > 4 ? rng / 2 : 4;
    for (int64_t b = 0; b < n; b++) {
        me_select(&m, b);
        dx[b] = dy[b] = 0;
        cost[b] = me_sad(&m, 0, 0) + lambda_mv * mv_bits(0, 0, 0, 0);
        if (method && cost[b] > 2.0 * (double)bb)
            for (int64_t ox = -rng; ox <= rng; ox += step)
                for (int64_t oy = -rng; oy <= rng; oy += step)
                    if (ox || oy) me_try(&m, ox, oy, 0, 0, dx + b, dy + b, cost + b);
        me_descend(&m, pattern, npat, 0, 0, dx + b, dy + b, cost + b);
        if (method) me_descend(&m, ME_DIAMOND, 4, 0, 0, dx + b, dy + b, cost + b);
    }

    /* Pass 2, twice: the median of the left / top / top-right MVs (zero
     * beyond the grid) predicts each block; (0, 0) and the predictor are
     * tried, UMH adds its clipped cross + multi-hexagon offsets for
     * blocks still matched poorly, and the descent runs again. */
    for (int rep = 0; rep < 2; rep++) {
        for (int64_t r = 0; r < rows; r++)
            for (int64_t c = 0; c < cols; c++) {
                int64_t b = r * cols + c, l = c ? b - 1 : -1, t = r ? b - cols : -1;
                int64_t tr = r && c < cols - 1 ? b - cols + 1 : -1;
                pred_x[b] = median3(l < 0 ? 0 : dx[l], t < 0 ? 0 : dx[t], tr < 0 ? 0 : dx[tr]);
                pred_y[b] = median3(l < 0 ? 0 : dy[l], t < 0 ? 0 : dy[t], tr < 0 ? 0 : dy[tr]);
            }
        /* dx / dy of block b are read by the predictors above only, so
         * from here each block may move on its own. */
        for (int64_t b = 0; b < n; b++) {
            int64_t px = pred_x[b], py = pred_y[b];
            me_select(&m, b);
            cost[b] = me_sad(&m, dx[b], dy[b]) + lambda_mv * mv_bits(dx[b], dy[b], px, py);
            me_try(&m, 0, 0, px, py, dx + b, dy + b, cost + b);
            me_try(&m, clip_range(px, rng), clip_range(py, rng), px, py, dx + b, dy + b, cost + b);
            if (method == 2 && cost[b] > 1.5 * (double)bb)
                for (int64_t p = 0; p < n_umh; p++)
                    me_try(&m, clip_range(dx[b] + umh[2 * p], rng),
                           clip_range(dy[b] + umh[2 * p + 1], rng),
                           px, py, dx + b, dy + b, cost + b);
            me_descend(&m, pattern, npat, px, py, dx + b, dy + b, cost + b);
            if (method) me_descend(&m, ME_DIAMOND, 4, px, py, dx + b, dy + b, cost + b);
        }
    }

    /* The SAD under the integer MV, and the sub-pel offset: the vertex of
     * the parabola through the SADs one pixel either side, per axis,
     * within +-0.5 — zero for a static skip-level block and for a
     * near-perfect match (_parabolic_subpel, operation for operation). */
    for (int64_t b = 0; b < n; b++) {
        me_select(&m, b);
        double sad0 = me_sad(&m, dx[b], dy[b]), fx = (double)dx[b], fy = (double)dy[b];
        int skip = (!dx[b] && !dy[b] && sad0 <= 1.5 * (double)bb)
                   || sad0 <= 0.05 * (double)block * (double)block;
        if (subpel && !skip) {
            double xm = me_sad(&m, clip_range(dx[b] - 1, rng), dy[b]);
            double xp = me_sad(&m, clip_range(dx[b] + 1, rng), dy[b]);
            double ym = me_sad(&m, dx[b], clip_range(dy[b] - 1, rng));
            double yp = me_sad(&m, dx[b], clip_range(dy[b] + 1, rng));
            fx = clip_window(fx + parabola_vertex(xm, sad0, xp), rng);
            fy = clip_window(fy + parabola_vertex(ym, sad0, yp), rng);
        }
        mv[2 * b] = (float)fx; mv[2 * b + 1] = (float)fy;
        sad_out[b] = sad0;
    }
    free(ref_pad);
    return 0;
}

/* Motion compensation (repro.codec.motion._motion_compensate_reference):
 * each block x block macroblock of out is the reference sampled at the
 * block's position minus its MV (mv: interleaved float64 (dx, dy) pairs),
 * with the bilinear blend in float64 in the reference's exact operation
 * order (weights formed as (1-ay)*(1-ax) etc., taps combined left to right,
 * all four taps even when a weight is 0: 0 * p and -0.0 + 0.0 are what the
 * reference adds), then cast to float32.  The float32 reference is read in
 * place: the reference's np.pad(mode="edge") of the widened plane repeats
 * the nearest edge pixel, so a tap outside the frame reads the pixel at its
 * clamped row and column — widening is exact, so that is the padded value.
 * Blocks whose taps all fall inside the frame (most of a frame) read their
 * rows in place; the others first gather their window through clamped
 * indices into a tile, then run the same 8-lane loops over it.  Returns 1 —
 * the reference answers — when an output pixel is a NaN, whose payload (and
 * a signalling NaN's quieting) this order does not pin, or the tile could
 * not be allocated.  The caller bounds every |MV| below 2^31. */
static inline int64_t clamp_index(int64_t v, int64_t n) {
    return v < 0 ? 0 : (v >= n ? n - 1 : v);
}

static inline uint32_t is_nan32(float v) {
    uint32_t bits;
    memcpy(&bits, &v, sizeof bits);
    return (bits & 0x7fffffffu) > 0x7f800000u;
}

/* Eight pixels of one row, a whole number of 8-lane vectors as in widen:
 * the integer MV's one tap, or the blend of p00 / p01 (one column left) and
 * p10 / p11 (one row up) under the weights w00 .. w11.  Each ORs into
 * nan[lane] whether that lane wrote a NaN (a lane array, not a running
 * scalar: no horizontal reduction per chunk). */
static inline void mc_copy8(const float *restrict p00, float *restrict o, uint32_t *restrict nan) {
    for (int j = 0; j < 8; j++) {
        o[j] = p00[j];
        nan[j] |= is_nan32(o[j]);
    }
}

static inline void mc_blend8(const float *restrict p00, const float *restrict p01,
                             const float *restrict p10, const float *restrict p11, double w00,
                             double w01, double w10, double w11, float *restrict o,
                             uint32_t *restrict nan) {
    for (int j = 0; j < 8; j++) {
        o[j] = (float)(((w00 * (double)p00[j] + w01 * (double)p01[j]) + w10 * (double)p10[j])
                       + w11 * (double)p11[j]);
        nan[j] |= is_nan32(o[j]);
    }
}

/* One macroblock into o (line w apart) from q0, its top-left tap, whose
 * rows are stride apart and whose taps one row up and one column left are
 * readable too.  Returns whether it wrote a NaN. */
static inline uint32_t mc_block(const float *restrict q0, int64_t stride, int64_t block, int frac,
                                double w00, double w01, double w10, double w11, float *restrict o,
                                int64_t w) {
    uint32_t nan[8] = {0};
    for (int64_t i = 0; i < block; i++, q0 += stride, o += w)
        for (int64_t j = 0; j < block; j += 8) {
            if (frac)
                mc_blend8(q0 + j, q0 + j - 1, q0 + j - stride, q0 + j - stride - 1, w00, w01, w10, w11,
                          o + j, nan);
            else
                mc_copy8(q0 + j, o + j, nan);
        }
    return nan[0] | nan[1] | nan[2] | nan[3] | nan[4] | nan[5] | nan[6] | nan[7];
}

/* Macroblock (r, c) of out: its window read in place, or gathered into tile
 * (block + 1 floats square) when it crosses an edge.  Returns whether it
 * wrote a NaN. */
static inline uint32_t mc_macroblock(const float *restrict ref, const double *restrict mv, int64_t r,
                                     int64_t c, int64_t rows, int64_t cols, int64_t block,
                                     float *restrict tile, float *restrict out) {
    int64_t h = rows * block, w = cols * block, ts = block + 1, b = r * cols + c;
    double vx = mv[2 * b], vy = mv[2 * b + 1];
    int64_t fdx = (int64_t)floor(vx), fdy = (int64_t)floor(vy);
    /* The reference subtracts the floor as an integer: -0.0 - 0 keeps the
     * sign a -0.0 - floor(-0.0) would lose, and a zero weight's sign shows
     * in a sum of -0.0 taps. */
    double ax = vx - (double)fdx, ay = vy - (double)fdy;
    double w00 = (1.0 - ay) * (1.0 - ax), w01 = (1.0 - ay) * ax, w10 = ay * (1.0 - ax), w11 = ay * ax;
    int64_t y = r * block - fdy, x = c * block - fdx;
    int frac = !(ax == 0.0 && ay == 0.0);
    float *o = out + r * block * w + c * block;
    if (y >= frac && y + block <= h && x >= frac && x + block <= w)
        return mc_block(ref + y * w + x, w, block, frac, w00, w01, w10, w11, o, w);
    for (int64_t i = 0; i < ts; i++) {
        const float *src = ref + clamp_index(y + i - 1, h) * w;
        for (int64_t j = 0; j < ts; j++) tile[i * ts + j] = src[clamp_index(x + j - 1, w)];
    }
    return mc_block(tile + ts + 1, ts, block, frac, w00, w01, w10, w11, o, w);
}

int64_t motion_comp(const float *restrict ref, const double *restrict mv, int64_t rows,
                    int64_t cols, int64_t block, float *restrict out) {
    uint32_t nan = 0;
    float *tile = malloc((size_t)((block + 1) * (block + 1)) * sizeof(float));
    if (!tile) return 1;
    for (int64_t r = 0; r < rows; r++)
        for (int64_t c = 0; c < cols; c++) nan |= mc_macroblock(ref, mv, r, c, rows, cols, block, tile, out);
    free(tile);
    return nan != 0;
}

/* ---- the surfaces (repro.world.renderer), eight pixels at a time ----
 * Two calls paint what _render_surfaces_reference paints.  render_surfaces
 * resolves visibility first — the ground's id, then every placed
 * billboard's mask far to near (ids and painted counts) — and only then
 * textures each pixel that kept its ground or billboard surface (the
 * reference textures, and then paints over, every pixel a surface covers),
 * counting the pixels each billboard kept and their bounding box on the
 * way, and gathers the sky pixels' x and z directions, in raster order, for
 * the caller's np.arctan2.  render_sky then shades the sky pixels from
 * those azimuths.  Both write the float32 image: the (float) of the double
 * the reference computes is astype's rounding.
 *
 * Billboard masks are tested, and every textured pixel shaded, LANES at a
 * time: a surface's pixels are gathered in raster order into a batch
 * (their indices in at[]), and each full batch — then the short last one,
 * padded with copies of its first pixel — runs lane by lane in GCC vector
 * types, and only its real lanes are stored.  Each step is lane-wise IEEE
 * arithmetic, an exact integer step, a compare or a bitwise select, in the
 * reference's operation order, so a lane computes the very double the
 * reference does (argued in cext.py).  Vectors cross calls by pointer only:
 * a vector argument's ABI differs between the two flag lists (-Wpsabi),
 * inlined or not. */
#define LANES 8
#define LANE_FN static inline __attribute__((always_inline))
typedef double f64x8 __attribute__((vector_size(LANES * sizeof(double))));
typedef int64_t i64x8 __attribute__((vector_size(LANES * sizeof(int64_t))));
typedef uint64_t u64x8 __attribute__((vector_size(LANES * sizeof(uint64_t))));
typedef float f32x8 __attribute__((vector_size(LANES * sizeof(float))));

/* Every lane v; m ? a : b in each lane, m all ones or all zeros (a
 * compare's lane) — bits moved, none changed; fabs. */
#define SPLAT8(v) ((f64x8){(v), (v), (v), (v), (v), (v), (v), (v)})
#define SELECT8(m, a, b) ((f64x8)(((m) & (i64x8)(a)) | (~(m) & (i64x8)(b))))
#define FABS8(v) ((f64x8)((i64x8)(v) & INT64_MAX))

#define SURFACE_SKY 0
#define SURFACE_GROUND 1
#define GROUND_HAZE 165.0

LANE_FN int all8(const i64x8 *m) {
    int64_t all = -1;
    for (int k = 0; k < LANES; k++) all &= (*m)[k];
    return all != 0;
}

LANE_FN int any8(const i64x8 *m) {
    int64_t any = 0;
    for (int k = 0; k < LANES; k++) any |= (*m)[k];
    return any != 0;
}

/* A batch's ray directions, by component, into d[0..2]; lanes from n on
 * repeat lane 0.  Each vector is built from eight scalars in registers (a
 * vector loaded over eight scalar stores waits for all of them). */
LANE_FN void gather8(const double *dirs, int64_t *at, int64_t n, f64x8 *d) {
    for (int64_t k = n; k < LANES; k++) at[k] = at[0];
    const double *p0 = dirs + 3 * at[0], *p1 = dirs + 3 * at[1], *p2 = dirs + 3 * at[2], *p3 = dirs + 3 * at[3];
    const double *p4 = dirs + 3 * at[4], *p5 = dirs + 3 * at[5], *p6 = dirs + 3 * at[6], *p7 = dirs + 3 * at[7];
    for (int c = 0; c < 3; c++) d[c] = (f64x8){p0[c], p1[c], p2[c], p3[c], p4[c], p5[c], p6[c], p7[c]};
}

/* A batch's n real lanes into the float32 image (the (float) of each). */
LANE_FN void store8(float *image, const int64_t *at, int64_t n, const f64x8 *gray) {
    f32x8 narrow = __builtin_convertvector(*gray, f32x8);
    for (int64_t k = 0; k < n; k++) image[at[k]] = narrow[k];
}

/* Fractal value noise (repro.utils.noise.value_noise_2d) at eight points,
 * for the textures below: per octave o the points are scaled by freq[o],
 * the four lattice corners around each hashed (splitmix64 avalanche;
 * sterm[o] is that octave's seed * PRIME_S, and the corners differ from the
 * first by +PX, +PY, +PX+PY — uint64 wrap-around, exact) and blended with
 * the smoothstep fade.  Integer steps are exact; every float step keeps the
 * reference's operation order.  Returns 1 (out unspecified) when a lane's
 * lattice coordinate does not fit int64 — NaN, +-inf, |u| >= 2^63 — where
 * the C cast is undefined and numpy's is platform-defined: the render call
 * then declines the frame. */
#define NOISE_PX 0x9E3779B97F4A7C15ull
#define NOISE_PY 0xC2B2AE3D27D4EB4Full

LANE_FN void lattice8(const u64x8 *corner, uint64_t offset, f64x8 *out) {
    u64x8 h = *corner + offset;
    h ^= h >> 30; h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 27; h *= 0x94D049BB133111EBull;
    h ^= h >> 31;
    /* h >> 11 < 2^53 converts exactly, as int64 too */
    *out = __builtin_convertvector((i64x8)(h >> 11), f64x8) / 9007199254740992.0;
}

LANE_FN int noise8(const f64x8 *x, const f64x8 *y, const double *freq, const uint64_t *sterm, int64_t octaves,
                   f64x8 *out) {
    const double lim = 9223372036854775808.0;  /* 2^63 */
    f64x8 total = SPLAT8(0.0), v00, v10, v01, v11;
    double amp = 1.0, amp_sum = 0.0;
    for (int64_t o = 0; o < octaves; o++) {
        f64x8 u = *x * freq[o], v = *y * freq[o];
        i64x8 fits = (u >= -lim) & (u < lim) & (v >= -lim) & (v < lim);
        if (!all8(&fits)) return 1;
        /* floor() as truncate-and-step-down, no libm call: u - trunc(u) is
         * exact, and where it is negative, adding 1 rounds the same real
         * number u - floor(u) once, as the reference's subtraction does. */
        i64x8 iu = __builtin_convertvector(u, i64x8), iv = __builtin_convertvector(v, i64x8);
        f64x8 fu = u - __builtin_convertvector(iu, f64x8), fv = v - __builtin_convertvector(iv, f64x8);
        i64x8 du = fu < 0.0, dv = fv < 0.0;  /* -1 in a lane that steps down */
        fu = SELECT8(du, fu + 1.0, fu); iu += du;
        fv = SELECT8(dv, fv + 1.0, fv); iv += dv;
        f64x8 su = fu * fu * (3.0 - 2.0 * fu), sv = fv * fv * (3.0 - 2.0 * fv);
        u64x8 h = (u64x8)iu * NOISE_PX + (u64x8)iv * NOISE_PY + sterm[o];
        lattice8(&h, 0, &v00);
        lattice8(&h, NOISE_PX, &v10);
        lattice8(&h, NOISE_PY, &v01);
        lattice8(&h, NOISE_PX + NOISE_PY, &v11);
        f64x8 top = v00 + su * (v10 - v00), bot = v01 + su * (v11 - v01);
        total += amp * (top + sv * (bot - top));
        amp_sum += amp;
        amp *= 0.5;
    }
    *out = total / amp_sum;
    return 0;
}

/* np.mod(a, b) for the shaders' divisors b = 2, 2.5 and 6: numpy's
 * npy_divmod remainder, fmod moved into the divisor's sign (np.mod(-1e-17,
 * 6.0) is 6.0) and +0.0 for an exact multiple.  Below 2^51 in magnitude a
 * lane takes no libm call.  q = trunc(a / b) is fmod's truncated quotient:
 * a / b rounds onto an integer k only when a = k b (k b is no power of two,
 * so an a below it is a whole ulp of k b below, and that over b is more
 * than half an ulp of k).  |q| <= 2^50, so q * b is exact (5q and 3q stay
 * below 2^53), and so is a - q * b (Sterbenz: q * b lies in [a / 2, 2a]
 * once q is non-zero) — fmod's remainder.  Had the quotient rounded up, the
 * sign step would still land on the same exact value.  A larger lane, NaN
 * and +-inf take fmod, one by one (their quotient lane divides 0, so no
 * conversion overflows). */
LANE_FN void np_mod8(const f64x8 *a, double b, f64x8 *out) {
    i64x8 exact = FABS8(*a) < 0x1p51;
    f64x8 q = __builtin_convertvector(__builtin_convertvector(SELECT8(exact, *a, SPLAT8(0.0)) / b, i64x8), f64x8);
    f64x8 mod = *a - q * b;
    if (!all8(&exact))
        for (int k = 0; k < LANES; k++)
            if (!exact[k]) mod[k] = fmod((*a)[k], b);
    mod = SELECT8(mod == 0.0, SPLAT8(0.0), mod);
    *out = SELECT8(mod < 0.0, mod + b, mod);
}

/* np.clip's compares, in place: a NaN and -0.0 come through as they are. */
LANE_FN void np_clip8(f64x8 *v, double lo, double hi) {
    *v = SELECT8(*v < lo, SPLAT8(lo), SELECT8(*v > hi, SPLAT8(hi), *v));
}

/* ground_texture at world (x, z), weighted into the haze by the depth tg:
 * gfreq / gsterm hold the base noise's two octaves, then the fine noise's
 * one. */
LANE_FN int ground8(const f64x8 *tg, const f64x8 *x, const f64x8 *z, const double *gfreq,
                    const uint64_t *gsterm, double max_depth, double fade, double weather, f64x8 *out) {
    f64x8 base, fine, dash, weight;
    if (noise8(x, z, gfreq, gsterm, 2, &base) || noise8(x, z, gfreq + 2, gsterm + 2, 1, &fine)) return 1;
    f64x8 gray = (80.0 + 45.0 * base) + 12.0 * (fine - 0.5);
    /* dashed lanes at x = -+1.75 (the remainder only where a lane can use
     * it), solid edge lines at x = -+5.25 */
    i64x8 mark = (FABS8(*x - -1.75) < 0.12) | (FABS8(*x - 1.75) < 0.12);
    if (any8(&mark)) {
        np_mod8(z, 6.0, &dash);
        mark &= dash < 3.0;
    }
    mark |= (FABS8(*x - -5.25) < 0.12) | (FABS8(*x - 5.25) < 0.12);
    gray = SELECT8(mark, SPLAT8(225.0), gray);
    gray = 105.0 + (gray - 105.0) * weather;
    np_clip8(&gray, 0.0, 255.0);
    weight = (max_depth - *tg) / fade;
    np_clip8(&weight, 0.0, 1.0);
    *out = weight * gray + (1.0 - weight) * GROUND_HAZE;
    return 0;
}

/* A placed billboard, GEO_SIZE doubles: its plane's point, normal and u
 * axis, half width, height, and the texture's base gray and noise
 * contrast ... */
enum { GEO_POINT, GEO_NORMAL = GEO_POINT + 3, GEO_UDIR = GEO_NORMAL + 3, GEO_HALF = GEO_UDIR + 3,
       GEO_HEIGHT, GEO_BASE, GEO_CONTRAST, GEO_SIZE };
/* ... FACE_SIZE integers: its window rows [y0, y1) and columns [x0, x1),
 * its texture kind (FACE_KIND: 0 plain, 1 building, 2 car, 3 pedestrian)
 * and its id ... */
enum { FACE_Y0, FACE_Y1, FACE_X0, FACE_X1, FACE_KIND, FACE_ID, FACE_SIZE };
/* ... and what the call returns of it, STAT_SIZE integers: the pixels its
 * mask painted, those it kept, and their bounding box [x0, x1) x [y0, y1)
 * (zeros when it kept none) — renderer.STAT_*. */
enum { STAT_PAINTED, STAT_VISIBLE, STAT_X0, STAT_Y0, STAT_X1, STAT_Y1, STAT_SIZE };

/* Rays d from o against a billboard: tt = num / (d . normal), with num =
 * (point - o) . normal (face_num), the point o + d tt, u = (that point -
 * point) . u_dir and the height above the ground; writes the texture
 * coordinates (u from the left edge, height) and the reference's mask.
 * normal and u_dir each hold one non-zero component (the wrapper declines
 * any other face), so every other product is an exact +-0 — or a NaN /
 * inf, which the reference's BLAS dot products meet too — and each dot
 * product equals the reference's in any summation order, but for the sign
 * of an all-zero sum; that sign only reaches a non-finite or +-0 tt, which
 * the mask drops either way, or |u| and the left-edge coordinate u + half
 * width. */
static inline double face_num(const double *g, const double *o) {
    const double *pt = g + GEO_POINT, *n = g + GEO_NORMAL;
    return ((pt[0] - o[0]) * n[0] + (pt[1] - o[1]) * n[1]) + (pt[2] - o[2]) * n[2];
}

LANE_FN void face8(const double *g, double num, const f64x8 *d, const double *o, f64x8 *tu, f64x8 *th,
                   i64x8 *hit) {
    const double *pt = g + GEO_POINT, *n = g + GEO_NORMAL, *ud = g + GEO_UDIR;
    f64x8 tt = num / ((d[0] * n[0] + d[1] * n[1]) + d[2] * n[2]);
    f64x8 p0 = o[0] + d[0] * tt, p1 = o[1] + d[1] * tt, p2 = o[2] + d[2] * tt;
    f64x8 u = ((p0 - pt[0]) * ud[0] + (p1 - pt[1]) * ud[1]) + (p2 - pt[2]) * ud[2];
    *tu = u + g[GEO_HALF];
    *th = -p1;
    *hit = (FABS8(tt) <= 0x1.fffffffffffffp+1023) & (tt > 0.1) & (FABS8(u) <= g[GEO_HALF]) & (*th >= 0.0)
           & (*th <= g[GEO_HEIGHT]);
}

/* object_texture at face coordinates (u, h): three octaves of noise under
 * the object's own seed terms, the kind's bands, the weather contrast. */
LANE_FN int object8(const f64x8 *u, const f64x8 *h, const double *g, int64_t kind, const double *ofreq,
                    const uint64_t *osterm, double weather, f64x8 *out) {
    f64x8 noise, wu, wh;
    if (noise8(u, h, ofreq, osterm, 3, &noise)) return 1;
    double base = g[GEO_BASE];
    f64x8 gray = base + g[GEO_CONTRAST] * (noise - 0.5);
    if (kind == 1) {  /* window grid */
        np_mod8(u, 2.0, &wu);
        np_mod8(h, 2.5, &wh);
        gray = SELECT8((wu > 0.5) & (wu < 1.7) & (wh > 0.8) & (wh < 2.1), gray - 65.0, gray);
    } else if (kind == 2) {  /* wheel / shadow band, window band */
        gray = SELECT8(*h < 0.35, gray - 55.0, gray);
        gray = SELECT8(*h > 1.1, gray + 40.0, gray);
    } else if (kind == 3) {  /* head / torso / legs */
        gray = SELECT8(*h > 1.45, gray + 35.0, gray);
        gray = SELECT8(*h < 0.75, gray - 30.0, gray);
    }
    *out = base + (gray - base) * weather;
    np_clip8(out, 0.0, 255.0);
    return 0;
}

/* One batch of a surface, n pixels: the ground's (object NULL) or those a
 * billboard kept. */
LANE_FN int shade8(const double *dirs, int64_t *at, int64_t n, const double *o, const double *object,
                   int64_t kind, double num, double max_depth, double fade, double weather, const double *freq,
                   const uint64_t *sterm, float *image) {
    f64x8 d[3], gray, tu, th;
    i64x8 hit;
    gather8(dirs, at, n, d);
    if (object) {
        face8(object, num, d, o, &tu, &th, &hit);
        if (object8(&tu, &th, object, kind, freq, sterm, weather, &gray)) return 1;
    } else {
        f64x8 tg = -o[1] / d[1], x = o[0] + tg * d[0], z = o[2] + tg * d[2];
        if (ground8(&tg, &x, &z, freq, sterm, max_depth, fade, weather, &gray)) return 1;
    }
    store8(image, at, n, &gray);
    return 0;
}

/* dirs: (h, w, 3) world ray directions from origin.  freq: the ground's
 * three noise frequencies (base octaves, fine), the objects' three, the
 * sky's one; gsterm: the ground's three seed terms, the sky's one; per
 * placed object (painter's order, far to near) FACE_SIZE integers in face,
 * GEO_SIZE doubles in geo, three seed terms in osterm.  Writes image (all
 * but the sky pixels), ids, STAT_SIZE integers per object in stats, and
 * each sky pixel's direction x and z to sky_x / sky_z; returns how many
 * sky pixels there are, or -1 — the reference answers — on a noise
 * coordinate int64 cannot hold. */
int64_t render_surfaces(const double *dirs, int64_t h, int64_t w, const double *o,
                        double max_depth, double weather, const double *freq,
                        const uint64_t *gsterm, int64_t n_obj, const int64_t *face,
                        const double *geo, const uint64_t *osterm,
                        float *image, int32_t *ids, int64_t *stats, double *sky_x, double *sky_z) {
    int64_t n = h * w, n_sky = 0, at[LANES], m = 0;
    double fade = max_depth - 0.7 * max_depth;
    f64x8 d[3], tu, th;
    i64x8 hit;
    for (int64_t i = 0; i < n; i++) {
        double dy = dirs[3 * i + 1], tg = -o[1] / dy;
        ids[i] = dy > 1e-9 && tg > 0.0 ? SURFACE_GROUND : SURFACE_SKY;
    }
    for (int64_t k = 0; k < n_obj; k++) {
        const int64_t *f = face + k * FACE_SIZE;
        const double *g = geo + k * GEO_SIZE;
        double num = face_num(g, o);
        int64_t painted = 0;
        for (int64_t y = f[FACE_Y0]; y < f[FACE_Y1]; y++)
            for (int64_t x = f[FACE_X0]; x < f[FACE_X1]; x += LANES) {
                m = f[FACE_X1] - x < LANES ? f[FACE_X1] - x : LANES;
                for (int64_t j = 0; j < m; j++) at[j] = y * w + x + j;
                gather8(dirs, at, m, d);
                face8(g, num, d, o, &tu, &th, &hit);
                for (int64_t j = 0; j < m; j++)
                    if (hit[j]) {
                        ids[at[j]] = (int32_t)f[FACE_ID];
                        painted++;
                    }
            }
        stats[k * STAT_SIZE + STAT_PAINTED] = painted;
    }
    m = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *di = dirs + 3 * i;
        if (ids[i] == SURFACE_SKY) {
            sky_x[n_sky] = di[0];
            sky_z[n_sky++] = di[2];
        }
        if (ids[i] != SURFACE_GROUND) continue;
        if (!(-o[1] / di[1] <= max_depth)) {
            image[i] = (float)GROUND_HAZE;
            continue;
        }
        at[m++] = i;
        if (m == LANES) {
            if (shade8(dirs, at, m, o, NULL, 0, 0.0, max_depth, fade, weather, freq, gsterm, image)) return -1;
            m = 0;
        }
    }
    if (m && shade8(dirs, at, m, o, NULL, 0, 0.0, max_depth, fade, weather, freq, gsterm, image)) return -1;
    /* Ids are unique, so a pixel holding object k's id is one of its mask's. */
    for (int64_t k = 0; k < n_obj; k++) {
        const int64_t *f = face + k * FACE_SIZE;
        const double *g = geo + k * GEO_SIZE;
        const uint64_t *sterm = osterm + 3 * k;
        int64_t *s = stats + k * STAT_SIZE;
        int64_t kept = 0, x0 = f[FACE_X1], x1 = f[FACE_X0], y0 = 0, y1 = 0;
        double num = face_num(g, o);
        m = 0;
        for (int64_t y = f[FACE_Y0]; y < f[FACE_Y1]; y++)
            for (int64_t x = f[FACE_X0]; x < f[FACE_X1]; x++) {
                int64_t i = y * w + x;
                if (ids[i] != f[FACE_ID]) continue;
                if (!kept++) y0 = y;
                y1 = y + 1;
                if (x < x0) x0 = x;
                if (x >= x1) x1 = x + 1;
                at[m++] = i;
                if (m == LANES) {
                    if (shade8(dirs, at, m, o, g, f[FACE_KIND], num, 0.0, 0.0, weather, freq + 3, sterm, image))
                        return -1;
                    m = 0;
                }
            }
        if (m && shade8(dirs, at, m, o, g, f[FACE_KIND], num, 0.0, 0.0, weather, freq + 3, sterm, image))
            return -1;
        s[STAT_VISIBLE] = kept;
        s[STAT_X0] = kept ? x0 : 0;
        s[STAT_Y0] = y0;
        s[STAT_X1] = kept ? x1 : 0;
        s[STAT_Y1] = y1;
    }
    return n_sky;
}

/* sky_texture over one batch of n sky pixels, from their np.arctan2
 * azimuths: the direction's norm and elevation, the gradient, one octave
 * of cloud noise, the clip. */
LANE_FN int sky8(const double *dirs, int64_t *at, int64_t n, const double *azimuth, const double *sfreq,
                 const uint64_t *sterm, float *image) {
    f64x8 d[3], az, norm, clouds, gradient;
    gather8(dirs, at, n, d);
    memcpy(&az, azimuth, sizeof az);
    f64x8 sq = (d[0] * d[0] + d[1] * d[1]) + d[2] * d[2];
    for (int k = 0; k < LANES; k++) norm[k] = sqrt(sq[k]);
    f64x8 elevation = -d[1] / norm, u = az * 8.0, v = elevation * 8.0;
    if (noise8(&u, &v, sfreq, sterm, 1, &clouds)) return 1;
    gradient = elevation / 0.6;
    np_clip8(&gradient, 0.0, 1.0);
    f64x8 sky = (190.0 + 50.0 * gradient) + 18.0 * (clouds - 0.5);
    np_clip8(&sky, 0.0, 255.0);
    store8(image, at, n, &sky);
    return 0;
}

/* The sky over the pixels render_surfaces left as sky (ids), in raster
 * order, each from its azimuth.  freq and gsterm are render_surfaces'
 * arrays, the sky's octave last.  Returns 1 — the reference answers — on a
 * noise coordinate int64 cannot hold. */
int64_t render_sky(const double *dirs, int64_t n, const int32_t *ids, const double *azimuth,
                   const double *freq, const uint64_t *gsterm, float *image) {
    const double *sfreq = freq + 6;
    const uint64_t *sterm = gsterm + 3;
    int64_t at[LANES], m = 0, j = 0;
    double tail[LANES];
    for (int64_t i = 0; i < n; i++) {
        if (ids[i] != SURFACE_SKY) continue;
        at[m++] = i;
        j++;
        if (m == LANES) {
            if (sky8(dirs, at, m, azimuth + j - LANES, sfreq, sterm, image)) return 1;
            m = 0;
        }
    }
    if (!m) return 0;
    for (int64_t k = 0; k < LANES; k++) tail[k] = azimuth[j - m + (k < m ? k : 0)];
    return sky8(dirs, at, m, tail, sfreq, sterm, image);
}

/* ---- the 8x8 DCT (repro.codec.transform: dct_blocks / idct_blocks) ----
 * scipy's dctn / idctn(axes=(1, 3), norm="ortho") of (r8, 8, c8, 8) blocks is
 * pocketfft's 8-point DCT-II / DCT-III along axis 1 (down a block's columns)
 * and then along axis 3 (its rows), the 2-D scale 1/16 applied on the first
 * axis only, in the input's own type.  Below is that arithmetic, operation for
 * operation: its real FFT of length 8 (radix 4 then 2) wrapped in the
 * DCT pre- and post-rotation, with pocketfft's twiddles, rotation wr + i wi
 * (one ulp apart in double) and sqrt(2) — double constants, rounded to float
 * for float32.  Each line function runs eight lines at once, line j in lane
 * j (element k of it at x[k * xs + j]), so every statement is one vector
 * operation under the -O2 vectoriser; the second axis reads the first's
 * result transposed.  Why the bytes are scipy's is argued in cext.py. */
#define DCT_TW { 0x1.f6297cff75cb0p-1, 0x1.d906bcf328d46p-1, 0x1.a9b66290ea1a3p-1, 0x1.6a09e667f3bccp-1, \
                 0x1.1c73b39ae68c8p-1, 0x1.87de2a6aea963p-2, 0x1.8f8b83c69a60ap-3 }
#define DCT_WR 0x1.6a09e667f3bccp-1
#define DCT_WI 0x1.6a09e667f3bcdp-1
#define DCT_SQRT2 0x1.6a09e667f3bcdp+0

/* dct2_lines_S / dct3_lines_S: the DCT-II / DCT-III of eight lines, scaled
 * by fct; dct8x8_S: one 8x8 block (rows in_line / out_line apart) forward or
 * inverse, returning 1 when an output is not finite — an inf or NaN input
 * always reaches one, and then the reference answers (a NaN's payload is
 * not pinned by this order).  Defined once per element type, and inlined
 * wherever called: out of line, the calls per block were a measurable share
 * of a P-frame's loop. */
#define DCT8_DEFINE(T, S)                                                                      \
static inline __attribute__((always_inline)) void dct2_lines_##S(                             \
        const T *restrict x, int64_t xs, T *restrict y, int64_t ys, T fct) {                   \
    static const T tw[7] = DCT_TW;                                                             \
    const T wr = (T)DCT_WR, wi = (T)DCT_WI;                                                    \
    for (int j = 0; j < 8; j++) {                                                              \
        T c0 = x[j] * 2, c7 = x[7 * xs + j] * 2;                                               \
        T c1 = x[2 * xs + j] + x[xs + j], c2 = x[2 * xs + j] - x[xs + j];                      \
        T c3 = x[4 * xs + j] + x[3 * xs + j], c4 = x[4 * xs + j] - x[3 * xs + j];              \
        T c5 = x[6 * xs + j] + x[5 * xs + j], c6 = x[6 * xs + j] - x[5 * xs + j];              \
        /* radix 2 */                                                                          \
        T h0 = c0 + c7, h4 = c0 - c7, h3 = 2 * c3, h7 = -(2 * c4), h1 = c1 + c5, r = c1 - c5;  \
        T i = c2 + c6, h2 = c2 - c6, h6 = wr * i + wi * r, h5 = wr * r - wi * i;               \
        /* radix 4 */                                                                          \
        T a = h0 + h3, b = h0 - h3, p = 2 * h1, q = 2 * h2;                                    \
        T o0 = a + p, o4 = a - p, o6 = b + q, o2 = b - q;                                      \
        a = h4 + h7; b = h4 - h7; p = 2 * h5; q = 2 * h6;                                      \
        T o1 = a + p, o5 = a - p, o7 = b + q, o3 = b - q;                                      \
        if (fct != 1) {                                                                        \
            o0 *= fct; o1 *= fct; o2 *= fct; o3 *= fct;                                        \
            o4 *= fct; o5 *= fct; o6 *= fct; o7 *= fct;                                        \
        }                                                                                      \
        T t1 = tw[0] * o7 + tw[6] * o1, t2 = tw[0] * o1 - tw[6] * o7;                          \
        y[ys + j] = (T)0.5 * (t1 + t2); y[7 * ys + j] = (T)0.5 * (t1 - t2);                    \
        t1 = tw[1] * o6 + tw[5] * o2; t2 = tw[1] * o2 - tw[5] * o6;                            \
        y[2 * ys + j] = (T)0.5 * (t1 + t2); y[6 * ys + j] = (T)0.5 * (t1 - t2);                \
        t1 = tw[2] * o5 + tw[4] * o3; t2 = tw[2] * o3 - tw[4] * o5;                            \
        y[3 * ys + j] = (T)0.5 * (t1 + t2); y[5 * ys + j] = (T)0.5 * (t1 - t2);                \
        y[4 * ys + j] = o4 * tw[3]; y[j] = o0 * ((T)DCT_SQRT2 * (T)0.5);                       \
    }                                                                                          \
}                                                                                              \
static inline __attribute__((always_inline)) void dct3_lines_##S(                             \
        const T *restrict x, int64_t xs, T *restrict y, int64_t ys, T fct) {                   \
    static const T tw[7] = DCT_TW;                                                             \
    const T wr = (T)DCT_WR, wi = (T)DCT_WI;                                                    \
    for (int j = 0; j < 8; j++) {                                                              \
        T c0 = x[j] * (T)DCT_SQRT2, c4 = x[4 * xs + j] * (2 * tw[3]);                          \
        T t1 = x[xs + j] + x[7 * xs + j], t2 = x[xs + j] - x[7 * xs + j];                      \
        T c1 = tw[0] * t2 + tw[6] * t1, c7 = tw[0] * t1 - tw[6] * t2;                          \
        t1 = x[2 * xs + j] + x[6 * xs + j]; t2 = x[2 * xs + j] - x[6 * xs + j];                \
        T c2 = tw[1] * t2 + tw[5] * t1, c6 = tw[1] * t1 - tw[5] * t2;                          \
        t1 = x[3 * xs + j] + x[5 * xs + j]; t2 = x[3 * xs + j] - x[5 * xs + j];                \
        T c3 = tw[2] * t2 + tw[4] * t1, c5 = tw[2] * t1 - tw[4] * t2;                          \
        /* radix 4 */                                                                          \
        T r1 = c6 + c2, h2 = c6 - c2, r2 = c0 + c4, h1 = c0 - c4, h0 = r2 + r1, h3 = r2 - r1;  \
        r1 = c7 + c3; r2 = c1 + c5;                                                            \
        T h6 = c7 - c3, h5 = c1 - c5, h4 = r2 + r1, h7 = r2 - r1;                              \
        /* radix 2 */                                                                          \
        T r = wr * h5 + wi * h6, i = wr * h6 - wi * h5;                                        \
        T o0 = h0 + h4, o7 = h0 - h4, o4 = -h7, o3 = h3;                                       \
        T o1 = h1 + r, o5 = h1 - r, o2 = i + h2, o6 = i - h2;                                  \
        if (fct != 1) {                                                                        \
            o0 *= fct; o1 *= fct; o2 *= fct; o3 *= fct;                                        \
            o4 *= fct; o5 *= fct; o6 *= fct; o7 *= fct;                                        \
        }                                                                                      \
        y[j] = o0; y[ys + j] = o1 - o2; y[2 * ys + j] = o1 + o2; y[3 * ys + j] = o3 - o4;      \
        y[4 * ys + j] = o3 + o4; y[5 * ys + j] = o5 - o6; y[6 * ys + j] = o5 + o6;             \
        y[7 * ys + j] = o7;                                                                    \
    }                                                                                          \
}                                                                                              \
/* a = b transposed, one output row per statement: a loop over k the      */                   \
/* vectorizer takes whole (eight interleaved loads, contiguous stores),   */                   \
/* where the two-loop spelling stays scalar.                              */                   \
static inline void transpose8_##S(const T *restrict b, T *restrict a) {                        \
    for (int k = 0; k < 8; k++) {                                                              \
        a[k] = b[8 * k]; a[8 + k] = b[8 * k + 1]; a[16 + k] = b[8 * k + 2];                    \
        a[24 + k] = b[8 * k + 3]; a[32 + k] = b[8 * k + 4]; a[40 + k] = b[8 * k + 5];          \
        a[48 + k] = b[8 * k + 6]; a[56 + k] = b[8 * k + 7];                                    \
    }                                                                                          \
}                                                                                              \
static inline __attribute__((always_inline)) int dct8x8_##S(                                  \
        const T *in, int64_t in_line, T *out, int64_t out_line, int inverse) {                 \
    T a[64], b[64], bad[8] = {0};                                                              \
    if (inverse) dct3_lines_##S(in, in_line, b, 8, (T)0.0625);                                 \
    else dct2_lines_##S(in, in_line, b, 8, (T)0.0625);                                         \
    transpose8_##S(b, a);                                                                      \
    if (inverse) dct3_lines_##S(a, 8, b, 8, 1); else dct2_lines_##S(a, 8, b, 8, 1);            \
    transpose8_##S(b, a);                                                                      \
    /* a - a is +0 for a finite a, NaN otherwise */                                            \
    for (int i = 0; i < 8; i++)                                                                \
        for (int j = 0; j < 8; j++) {                                                          \
            out[i * out_line + j] = a[8 * i + j];                                              \
            bad[j] += a[8 * i + j] - a[8 * i + j];                                             \
        }                                                                                      \
    return !(bad[0] == 0 && bad[1] == 0 && bad[2] == 0 && bad[3] == 0                          \
             && bad[4] == 0 && bad[5] == 0 && bad[6] == 0 && bad[7] == 0);                     \
}

DCT8_DEFINE(double, d)
DCT8_DEFINE(float, f)

/* dct_blocks / idct_blocks: every 8x8 block of a (rows8 * 8, cols8 * 8)
 * float32 (f32) or float64 plane, into out of the same type.  Returns 1 — the
 * reference answers — on the first block with a non-finite output. */
int64_t dct8(const void *in, int64_t f32, int64_t rows8, int64_t cols8, int64_t inverse, void *out) {
    int64_t line = cols8 * 8;
    for (int64_t br = 0; br < rows8; br++)
        for (int64_t bc = 0; bc < cols8; bc++) {
            int64_t at = br * 8 * line + bc * 8;
            if (f32 ? dct8x8_f((const float *)in + at, line, (float *)out + at, line, (int)inverse)
                    : dct8x8_d((const double *)in + at, line, (double *)out + at, line, (int)inverse))
                return 1;
        }
    return 0;
}

/* ---- I-frames (repro.codec.intra) ----
 * A whole frame per call, macroblocks in raster order: a block's left and
 * top neighbours — all its predictions read — are reconstructed before it,
 * as on the reference's anti-diagonal wavefront, and every per-block value
 * is computed as the reference computes it (its batched transforms treat
 * each 8-point line on its own).  A block-major (rows8, 8, cols8, 8) array
 * is the same memory as a (rows8*8, cols8*8) plane, so pixels and levels
 * share the frame's line stride. */

/* intra_predict_block: the prediction for `mode` with the H.264 border
 * fallbacks (H without a left column -> V, V without a top row -> H, neither
 * -> DC; any mode id other than 1/2 is DC).  The DC value is
 * np.mean(concatenate(left, top)): the pairwise sum of the 1-D concatenation
 * divided by its length.  edge holds 2*block doubles. */
static void intra_pred(const double *recon, int64_t stride, int64_t r0, int64_t c0,
                       int64_t block, int64_t mode, double *pred, double *edge) {
    const double *left = c0 > 0 ? recon + r0 * stride + c0 - 1 : NULL;
    const double *top = r0 > 0 ? recon + (r0 - 1) * stride + c0 : NULL;
    if (mode == 1 && !left) mode = top ? 2 : 0;
    if (mode == 2 && !top) mode = left ? 1 : 0;
    if (mode == 1) {
        for (int64_t i = 0; i < block; i++)
            for (int64_t j = 0; j < block; j++) pred[i * block + j] = left[i * stride];
    } else if (mode == 2) {
        for (int64_t i = 0; i < block; i++)
            for (int64_t j = 0; j < block; j++) pred[i * block + j] = top[j];
    } else {
        double dc = 128.0;
        int64_t n = 0;
        if (left) for (int64_t i = 0; i < block; i++) edge[n++] = left[i * stride];
        if (top) for (int64_t j = 0; j < block; j++) edge[n++] = top[j];
        if (n) dc = pairwise(edge, (size_t)n) / (double)n;
        for (int64_t i = 0; i < block * block; i++) pred[i] = dc;
    }
}

/* Levels at or beyond this magnitude (and NaN) send the call to the
 * reference: below it the level is an integer a uint64 holds and its
 * bit length is floor(log2) with a margin of ~1e5 ulp on np.log2. */
#define LEVEL_LIMIT 4294967296.0 /* 2^32 */

/* transform_cost_bits' per-8x8-block overhead: a block that carries a
 * coefficient, and the amortised skip flag of one that does not. */
#define CODED_BLOCK_BITS 4.0
#define SKIP_BLOCK_BITS 0.25

/* Nothing below this share of its quantiser step quantises to a non-zero
 * level: |c| < 0.25 q puts the IEEE quotient under 0.5 with a factor 2 to
 * spare.  quant_cost fills a block whose largest coefficient is under the
 * cut with signed zeros, no division; the rate counter keeps the magnitudes
 * at or above the cut of its first probe's steps, and the spare factor is
 * what keeps that list complete for _RC_DESCENT QPs below that probe (see
 * _RateCounter). */
#define ZERO_CUT 0.25

/* np.round — rint in the default rounding mode — spelled out, so no
 * compiler or -march decides whether it is a libm call (GCC inlines rint
 * under -fno-math-errno: this idiom behind a range check on baseline
 * x86-64, one roundsd (SSE4.1) or vrndscalesd (AVX-512); the bytes are
 * the same): adding and subtracting 1.5 * 2^52 leaves the nearest integer,
 * ties to even, exactly for |x| < 2^51; copysign keeps
 * np.round(-0.3) == -0.0.  Beyond 2^51 the result is off but still past
 * LEVEL_LIMIT (NaN stays NaN), which every caller hands to the reference. */
static inline double round_even(double x) {
    return copysign((fabs(x) + 0x1.8p52) - 0x1.8p52, x);
}

/* A block-major coefficient array holds float64 (an I-frame's block) or
 * float32 (a P-frame's residual is transformed in its own dtype); the
 * reference's float32 / float64 divide promotes exactly, as this does. */
static inline double coeff_at(const void *coeffs, int f32, int64_t k) {
    return f32 ? (double)((const float *)coeffs)[k] : ((const double *)coeffs)[k];
}

/* The largest magnitude in the 8x8 block at coeffs[at] — INFINITY when the
 * block holds an inf or a NaN (a NaN loses every compare, so it is mapped
 * first).  Eight running maxima down the columns: element-wise, so no
 * dependency chain and nothing the vectoriser has to reassociate. */
static inline double block_top(const void *coeffs, int f32, int64_t at, int64_t line) {
    double lane[8] = {0.0};
    for (int64_t i = 0; i < 8; i++)
        for (int64_t j = 0; j < 8; j++) {
            double mag = fabs(coeff_at(coeffs, f32, at + i * line + j));
            mag = mag < INFINITY ? mag : INFINITY;
            lane[j] = mag > lane[j] ? mag : lane[j];
        }
    double top = lane[0];
    for (int64_t j = 1; j < 8; j++) top = lane[j] > top ? lane[j] : top;
    return top;
}

/* Quantise and cost one 8x8 block of coefficients (line elements per row)
 * whose largest magnitude is top (block_top), under step: level =
 * round_even(c / step) is np.round, stored lv_line doubles per row; returns
 * the block's coefficient bits — the sum of 2*floor(log2|level|) + 3 over
 * its non-zero levels — or -1 on a level past LEVEL_LIMIT.  Below it a
 * level is a whole number, so its floor(log2) is the unbiased exponent of
 * the double (whose exponent field is 0 for a zero level): eight lanes a
 * row, no branch.  Most of a P-frame's blocks hold nothing that reaches the
 * cut: their levels are signed zeros, no division. */
static inline __attribute__((always_inline)) int64_t quant_block(
        const void *restrict coeffs, const int f32, int64_t at, int64_t line, double top, double step,
        double *restrict lv, int64_t lv_line) {
    int64_t nbits[8] = {0}, unbounded[8] = {0}, total = 0, over = 0;
    if (top < ZERO_CUT * step) {
        for (int64_t i = 0; i < 8; i++)
            for (int64_t j = 0; j < 8; j++)
                lv[i * lv_line + j] = copysign(0.0, coeff_at(coeffs, f32, at + i * line + j));
        return 0;
    }
    for (int64_t i = 0; i < 8; i++)
        for (int64_t j = 0; j < 8; j++) {
            double level = round_even(coeff_at(coeffs, f32, at + i * line + j) / step);
            double mag = fabs(level);
            int64_t biased;
            memcpy(&biased, &mag, sizeof biased);
            biased >>= 52;
            unbounded[j] |= !(mag < LEVEL_LIMIT);
            nbits[j] += (2 * biased - 2043) & -(int64_t)(biased != 0);
            lv[i * lv_line + j] = level;
        }
    for (int j = 0; j < 8; j++) total += nbits[j], over |= unbounded[j];
    return over ? -1 : total;
}

/* transform_cost_bits' total of one 8x8 block: its coefficient bits and
 * overhead.  Every partial sum of a macroblock's is a multiple of 0.25, so
 * the order is free. */
static inline double block_bits(int64_t nbits) {
    return (double)nbits + (nbits > 0 ? CODED_BLOCK_BITS : SKIP_BLOCK_BITS);
}

/* quantize_cost: an mb_rows x mb_cols grid of macroblocks of a coefficient
 * plane (line elements per row) with one step q per macroblock; levels has
 * the plane's layout and bits[] gets each macroblock's transform_cost_bits.
 * Returns 1 on the first level past LEVEL_LIMIT.  Inlined once per dtype:
 * with f32 a run-time value the 8x8 loops do not vectorise (a 480x288 frame
 * 0.43 ms against 0.32). */
static inline __attribute__((always_inline)) int64_t quant_cost_any(
        const void *restrict coeffs, const int f32, int64_t line, int64_t mb_rows, int64_t mb_cols,
        int64_t block, const double *restrict q, double *restrict levels, double *restrict bits) {
    for (int64_t R = 0; R < mb_rows; R++)
        for (int64_t C = 0; C < mb_cols; C++) {
            double step = q[R * mb_cols + C], total = 0.0;
            for (int64_t i8 = 0; i8 < block; i8 += 8)
                for (int64_t j8 = 0; j8 < block; j8 += 8) {
                    int64_t at = (R * block + i8) * line + C * block + j8;
                    int64_t nbits = quant_block(coeffs, f32, at, line, block_top(coeffs, f32, at, line), step,
                                                levels + at, line);
                    if (nbits < 0) return 1;
                    total += block_bits(nbits);
                }
            bits[R * mb_cols + C] = total;
        }
    return 0;
}

int64_t quant_cost(const void *coeffs, int64_t f32, int64_t line, int64_t mb_rows,
                   int64_t mb_cols, int64_t block, const double *q, double *levels, double *bits) {
    if (f32)
        return quant_cost_any(coeffs, 1, line, mb_rows, mb_cols, block, q, levels, bits);
    return quant_cost_any(coeffs, 0, line, mb_rows, mb_cols, block, q, levels, bits);
}

/* ---- rate control's probe (repro.codec.transform.QuantBitCounter) ---- */

/* One 8x8 block's share of the set-up below: its largest magnitude into
 * *top, and its magnitudes at or above cut appended to cand from n on.
 * Returns the new n, or -1 on a NaN or infinite coefficient. */
static inline __attribute__((always_inline)) int64_t rc_keep(
        const void *coeffs, const int f32, int64_t at, int64_t line, double cut, double *top,
        double *cand, int64_t n) {
    *top = block_top(coeffs, f32, at, line);
    if (!(*top < INFINITY)) return -1;
    if (*top < cut) return n;
    for (int64_t i = 0; i < 8; i++)
        for (int64_t j = 0; j < 8; j++) {
            double mag = fabs(coeff_at(coeffs, f32, at + i * line + j));
            cand[n] = mag;  /* kept only if the count moves past it */
            n += mag >= cut;
        }
    return n;
}

/* A macroblock's candidate list, from `from` to n, padded to whole chunks. */
static inline int64_t rc_pad(double *cand, int64_t from, int64_t n) {
    while ((n - from) % 8) cand[n++] = 0.0;
    return n;
}

/* Set-up, one pass over the coefficients: per 8x8 block its largest
 * magnitude (block_max, macroblock-major: the per_mb blocks of macroblock 0,
 * then of macroblock 1, ...) and, per macroblock, the magnitudes at or
 * above ZERO_CUT of its step packed into cand — macroblock mb owns
 * cand[start[mb] .. start[mb + 1]), padded with +0.0 to a whole number of
 * 8-lane chunks (a +0.0 quantises to level 0 and costs nothing; a
 * macroblock's block * block coefficients are a whole number of chunks, so
 * the padding never outgrows them).  cand needs room for every coefficient;
 * only what is kept gets written (and paged in).  Returns the number kept,
 * padding included, or -1 on a NaN or infinite coefficient. */
static inline __attribute__((always_inline)) int64_t rc_compact_any(
        const void *coeffs, const int f32, int64_t line, int64_t mb_rows, int64_t mb_cols,
        int64_t block, const double *step, double *block_max, double *cand, int64_t *start) {
    int64_t n = 0, b = 0;
    for (int64_t mb = 0; mb < mb_rows * mb_cols; mb++) {
        double cut = ZERO_CUT * step[mb];
        int64_t at = (mb / mb_cols) * block * line + (mb % mb_cols) * block;
        start[mb] = n;
        for (int64_t i8 = 0; i8 < block && n >= 0; i8 += 8)
            for (int64_t j8 = 0; j8 < block && n >= 0; j8 += 8)
                n = rc_keep(coeffs, f32, at + i8 * line + j8, line, cut, block_max + b++, cand, n);
        if (n < 0) return -1;
        n = rc_pad(cand, start[mb], n);
    }
    start[mb_rows * mb_cols] = n;
    return n;
}

int64_t rc_compact(const void *coeffs, int64_t f32, int64_t line, int64_t mb_rows,
                   int64_t mb_cols, int64_t block, const double *step, double *block_max,
                   double *cand, int64_t *start) {
    if (f32)
        return rc_compact_any(coeffs, 1, line, mb_rows, mb_cols, block, step, block_max, cand, start);
    return rc_compact_any(coeffs, 0, line, mb_rows, mb_cols, block, step, block_max, cand, start);
}

/* One probe: the frame's total transform_cost_bits under the per-macroblock
 * steps.  Quantising a magnitude is quantising the coefficient (divide and
 * round are odd), a block carries a coefficient iff its largest magnitude
 * rounds to a non-zero level (both are monotone), and the total is an
 * integer plus multiples of 0.25 — exact in any order.  A candidate's level
 * is a whole number below 2^31 (the caller bounds every level), so its
 * floor(log2) is the unbiased exponent of the double, read from its bits:
 * eight candidates a step, lane-wise, with no branch and no libm call.
 * (Nothing under the cut needs skipping: it rounds to level 0.) */
double rc_bits(const double *cand, const int64_t *start, const double *block_max,
               int64_t mbs, int64_t per_mb, const double *step) {
    int64_t coeff_bits = 0, coded = 0;
    for (int64_t mb = 0; mb < mbs; mb++) {
        double s = step[mb];
        int64_t lane[8] = {0};
        for (int64_t k = start[mb]; k < start[mb + 1]; k += 8)
            for (int j = 0; j < 8; j++) {
                double level = round_even(cand[k + j] / s);
                int64_t biased;  /* the exponent field: 0 for level +0.0, 1023 + floor(log2) above */
                memcpy(&biased, &level, sizeof biased);
                biased >>= 52;
                lane[j] += (2 * biased - 2043) & -(int64_t)(biased != 0);
            }
        for (int j = 0; j < 8; j++) coeff_bits += lane[j];
        for (int64_t b = mb * per_mb; b < (mb + 1) * per_mb; b++)
            coded += round_even(block_max[b] / s) > 0.0;
    }
    return (double)coeff_bits + CODED_BLOCK_BITS * (double)coded
           + SKIP_BLOCK_BITS * (double)(mbs * per_mb - coded);
}

/* clip(prediction + residual, 0, 255) of one 8x8 block, np.clip's compares
 * (the residual is finite; a NaN prediction stays a NaN). */
static inline void clip_add8(const double *pred, int64_t pred_line, const double *rec,
                             double *out, int64_t out_line) {
    for (int64_t i = 0; i < 8; i++)
        for (int64_t j = 0; j < 8; j++) {
            double v = pred[i * pred_line + j] + rec[i * 8 + j];
            v = v < 0.0 ? 0.0 : v;
            out[i * out_line + j] = v > 255.0 ? 255.0 : v;
        }
}

/* The dequantised 8x8 block at lv (lv_line doubles per row) under step,
 * inverse-transformed into rec; 1 on a non-finite result. */
static inline int dequant_idct8(const double *lv, int64_t lv_line, double step, double *rec) {
    double deq[64];
    for (int64_t i = 0; i < 8; i++)
        for (int64_t j = 0; j < 8; j++) deq[i * 8 + j] = lv[i * lv_line + j] * step;
    return dct8x8_d(deq, 8, rec, 8, 1);
}

/* ---- reconstruction (repro.codec.transform.reconstruct) ----
 * out = (float)clip((double)pred + idct(levels * q), 0, 255) over a
 * rows8 x cols8 grid of 8x8 blocks (per_side of them across a macroblock),
 * np.clip's compares (a NaN stays a NaN).  A block holding no non-zero level
 * (-0.0 is zero) is not transformed: its dense residual is all +-0.0 and
 * p + +-0.0 is p to the bit — unless p is -0.0 (the sum's sign would be the
 * residual's) or a NaN (the sum quiets it).  Returns 1 — the reference
 * answers — on those, on a level past LEVEL_LIMIT (as quant_cost does) and
 * on a non-finite residual.  recon_block is one 8x8 block, at plane offset
 * at; coded says whether it holds a non-zero level. */
static inline int recon_block(const float *restrict pred, const double *restrict levels, int64_t at,
                              int64_t line, int coded, double step, float *restrict out) {
    const float *p = pred + at;
    float *o = out + at;
    if (!coded) {
        uint32_t unproven = 0;
        for (int64_t i = 0; i < 8; i++)
            for (int64_t j = 0; j < 8; j++) {
                float v = p[i * line + j];
                uint32_t pattern;
                memcpy(&pattern, &v, sizeof pattern);
                /* -0.0, or anything past +-inf */
                unproven |= (pattern == 0x80000000u) | ((pattern & 0x7fffffffu) > 0x7f800000u);
                v = v < 0.0f ? 0.0f : v;
                o[i * line + j] = v > 255.0f ? 255.0f : v;
            }
        return unproven != 0;
    }
    double rec[64];
    if (dequant_idct8(levels + at, line, step, rec)) return 1;
    /* Sum, clip, narrow: three loops the vectoriser takes, where it leaves
     * one with the clip's selects between the two conversions scalar. */
    for (int64_t i = 0; i < 8; i++)
        for (int64_t j = 0; j < 8; j++) rec[i * 8 + j] = (double)p[i * line + j] + rec[i * 8 + j];
    for (int k = 0; k < 64; k++) {
        double v = rec[k] < 0.0 ? 0.0 : rec[k];
        rec[k] = v > 255.0 ? 255.0 : v;
    }
    for (int64_t i = 0; i < 8; i++)
        for (int64_t j = 0; j < 8; j++) o[i * line + j] = (float)rec[i * 8 + j];
    return 0;
}

int64_t reconstruct(const float *restrict pred, const double *restrict levels, int64_t rows8,
                    int64_t cols8, int64_t per_side, const double *restrict q, float *restrict out) {
    int64_t line = cols8 * 8, mb_cols = cols8 / per_side;
    for (int64_t br = 0; br < rows8; br++)
        for (int64_t bc = 0; bc < cols8; bc++) {
            int64_t at = br * 8 * line + bc * 8;
            double top = block_top(levels, 0, at, line);
            if (!(top < LEVEL_LIMIT)
                || recon_block(pred, levels, at, line, top > 0.0, q[(br / per_side) * mb_cols + bc / per_side], out))
                return 1;
        }
    return 0;
}

/* ---- P-frames (repro.codec.encoder._inter_encode_reference) ----
 * One call per P-frame: motion_comp's prediction (mc_macroblock, one
 * macroblock at a time), the float32 residual
 * (one IEEE single subtraction per pixel, as numpy's frame - prediction) and
 * its 8x8 DCT (dct8x8_f: scipy's bytes), rate control's search over the
 * base QPs, then quant_cost and reconstruct at the chosen one.  Every stage
 * is the routine the stand-alone hook runs, so each stage's bytes are that
 * hook's; what any of them would decline, this declines whole.
 *
 * The steps come from the caller, computed by numpy's qstep (C's pow is not
 * numpy's power in the last bit): a table of nq rows — one per base QP
 * 0 .. nq - 1 when rate control searches, the one fixed QP otherwise — of k
 * columns, the frame's distinct QP offsets; col[mb] is macroblock mb's. */

/* How many QPs below the probe it was compacted at a candidate list stays
 * complete (repro.kernels.cext._RC_DESCENT, argued there). */
#define RC_DESCENT 5.0
/* The largest magnitude the counter takes (_RateCounter's bound): no step is
 * below qstep(0) = 0.625, so every level stays below 2^32 = LEVEL_LIMIT. */
#define RC_LEVEL_BOUND 2147483648.0 /* 2^31 */

/* QuantBitCounter over the frame's float32 coefficients, as _RateCounter
 * drives rc_compact / rc_bits: compacted at the first probe, again whenever
 * a probe goes more than RC_DESCENT QPs below the last compaction. */
typedef struct {
    const float *coeffs;
    int64_t line, rows, cols, block, k, probes;
    const double *table;
    const int64_t *col;
    double *step, *block_max, *cand, floor;
    int64_t *start;
} rc_state;

static inline void rc_steps(const rc_state *s, int64_t qp) {
    for (int64_t mb = 0; mb < s->rows * s->cols; mb++) s->step[mb] = s->table[qp * s->k + s->col[mb]];
}

/* Whether the frame fits budget at base QP qp: 1 / 0, or -1 — decline — on a
 * coefficient whose level the counter cannot bound below 2^31. */
static int rc_fits(rc_state *s, int64_t qp, double budget) {
    int64_t per_mb = (s->block / 8) * (s->block / 8), blocks = s->rows * s->cols * per_mb;
    rc_steps(s, qp);
    if (!((double)qp >= s->floor)) {
        s->floor = (double)qp - RC_DESCENT;
        if (rc_compact_any(s->coeffs, 1, s->line, s->rows, s->cols, s->block, s->step, s->block_max,
                           s->cand, s->start) < 0)
            return -1;
        for (int64_t b = 0; b < blocks; b++)
            if (!(s->block_max[b] < RC_LEVEL_BOUND)) return -1;
    }
    s->probes++;
    return rc_bits(s->cand, s->start, s->block_max, s->rows * s->cols, per_mb, s->step) <= budget;
}

/* VideoEncoder._rate_control, probe for probe: gallop outward from the hint
 * (steps 1, 2, 4, ...) until the boundary is bracketed, or take the whole
 * range without one (hint < 0), then bisect.  Returns the smallest base QP
 * that fits (max_qp when none does), or -1 to decline. */
static int64_t rc_search(rc_state *s, double budget, int64_t hint, int64_t max_qp) {
    int64_t lo, hi, step = 1;
    int f;
    if (hint < 0) {
        lo = 0, hi = max_qp;
        if ((f = rc_fits(s, lo, budget)) != 0) return f < 0 ? -1 : lo;
        if ((f = rc_fits(s, hi, budget)) != 1) return f < 0 ? -1 : hi;
    } else {
        lo = hi = hint;
        if ((f = rc_fits(s, hi, budget)) < 0) return -1;
        if (f) {
            for (;;) {
                if (hi == 0) return 0;
                lo = hi - step > 0 ? hi - step : 0;
                if ((f = rc_fits(s, lo, budget)) < 0) return -1;
                if (!f) break;
                hi = lo, step *= 2;
            }
        } else {
            for (;;) {
                if (lo == max_qp) return max_qp;
                hi = lo + step < max_qp ? lo + step : max_qp;
                if ((f = rc_fits(s, hi, budget)) < 0) return -1;
                if (f) break;
                lo = hi, step *= 2;
            }
        }
    }
    while (hi - lo > 1) {
        int64_t mid = (lo + hi) / 2;
        if ((f = rc_fits(s, mid, budget)) < 0) return -1;
        if (f) hi = mid; else lo = mid;
    }
    return hi;
}

/* A rows x cols grid of block x block macroblocks: frame and ref are float32
 * planes, mv the interleaved float64 field; with nq > 1 rate control picks
 * the base QP (hint: the clamped hint, or -1 for none), else it is row 0.
 * Writes levels (the plane's layout), each macroblock's bits and the float32
 * reconstruction, and qp_probes = {chosen row, probes}.  Returns 1 — the
 * reference answers — where a stage's hook would decline, or when scratch
 * could not be allocated.
 *
 * Macroblock by macroblock, the first pass predicts the macroblock,
 * transforms its residual and makes the rate counter's first compaction, at
 * the QP the search probes first (the hint, else 0), while each block is
 * still in cache;
 * the pass after the search quantises, costs and reconstructs each 8x8
 * block in turn (an all-zero block is one with no coefficient bits). */
int64_t inter_encode(const float *frame, const float *ref, const double *mv, int64_t rows, int64_t cols,
                     int64_t block, const double *table, int64_t nq, int64_t k, const int64_t *col,
                     double budget, int64_t hint, double *levels, double *bits, float *recon,
                     int64_t *qp_probes) {
    int64_t h = rows * block, w = cols * block, n = h * w, mbs = rows * cols, failed = 1;
    int64_t search = nq > 1, qp = search && hint > 0 ? hint : 0, kept = 0, b = 0;
    /* the prediction, then motion compensation's border tile */
    float *pred = malloc((size_t)(n + (block + 1) * (block + 1)) * sizeof(float));
    double *scratch = malloc((size_t)(mbs + n / 64) * sizeof(double));
    int64_t *start = malloc((size_t)(mbs + 1) * sizeof(int64_t));
    if (!pred || !scratch || !start) goto done;
    float *tile = pred + n;
    /* The coefficients live in recon and the candidates in levels until the
     * last pass, which consumes a block's coefficients before it writes the
     * block's pixels, and needs the candidates no more. */
    float *coeffs = recon;
    rc_state s = {coeffs, w, rows, cols, block, k, 0, table, col, scratch, scratch + mbs, levels,
                  search ? (double)qp - RC_DESCENT : INFINITY, start};
    rc_steps(&s, qp);
    for (int64_t mb = 0; mb < mbs; mb++) {
        int64_t at0 = (mb / cols) * block * w + (mb % cols) * block;
        double cut = ZERO_CUT * s.step[mb];
        if (mc_macroblock(ref, mv, mb / cols, mb % cols, rows, cols, block, tile, pred)) goto done;
        start[mb] = kept;
        for (int64_t i8 = 0; i8 < block; i8 += 8)
            for (int64_t j8 = 0; j8 < block; j8 += 8) {
                int64_t at = at0 + i8 * w + j8;
                float res[64];
                for (int64_t i = 0; i < 8; i++)
                    for (int64_t j = 0; j < 8; j++) res[i * 8 + j] = frame[at + i * w + j] - pred[at + i * w + j];
                if (dct8x8_f(res, 8, coeffs + at, w, 0)) goto done;
                if (!search) continue;
                kept = rc_keep(coeffs, 1, at, w, cut, s.block_max + b, s.cand, kept);
                if (kept < 0 || !(s.block_max[b++] < RC_LEVEL_BOUND)) goto done;
            }
        if (search) kept = rc_pad(s.cand, start[mb], kept);
    }
    start[mbs] = kept;
    if (search && (qp = rc_search(&s, budget, hint, nq - 1)) < 0) goto done;
    rc_steps(&s, qp);
    b = 0;
    for (int64_t mb = 0; mb < mbs; mb++) {
        int64_t at0 = (mb / cols) * block * w + (mb % cols) * block;
        double step = s.step[mb], total = 0.0;
        for (int64_t i8 = 0; i8 < block; i8 += 8)
            for (int64_t j8 = 0; j8 < block; j8 += 8) {
                int64_t at = at0 + i8 * w + j8;
                double top = search ? s.block_max[b++] : block_top(coeffs, 1, at, w);
                int64_t nbits = quant_block(coeffs, 1, at, w, top, step, levels + at, w);
                if (nbits < 0 || recon_block(pred, levels, at, w, nbits > 0, step, recon)) goto done;
                total += block_bits(nbits);
            }
        bits[mb] = total;
    }
    qp_probes[0] = qp;
    qp_probes[1] = s.probes;
    failed = 0;
done:
    free(pred);
    free(scratch);
    free(start);
    return failed;
}

/* intra_encode: a rows x cols grid of block x block macroblocks of frame,
 * one step q per macroblock.  Per macroblock the DC/H/V predictions, each
 * one's SAD against the source (|pred - src| == |src - pred| bit for bit,
 * NumPy-pairwise over the contiguous block), the first strictly smaller SAD
 * winning; then per 8x8 block of the residual src - pred the DCT, quantise
 * + cost, dequantise, inverse DCT and clip(pred + residual) into recon.
 * bits[] gets each macroblock's coefficient bits (the caller adds the mode's).
 * Returns 1 — the reference answers — on a non-finite transform, a level
 * past LEVEL_LIMIT or scratch that could not be allocated. */
int64_t intra_encode(const double *frame, const double *q, int64_t rows, int64_t cols,
                     int64_t block, double *levels, int8_t *modes, double *recon, double *bits) {
    int64_t bb = block * block, stride = cols * block, failed = 0;
    /* three predictions, sad_block's row, the residual, the DC edge */
    double *preds = malloc((size_t)(5 * bb + 2 * block) * sizeof(double));
    if (!preds) return 1;
    double *diff = preds + 3 * bb, *residual = diff + bb, *edge = residual + bb;
    double coef[64], rec[64];
    for (int64_t r = 0; r < rows && !failed; r++)
        for (int64_t c = 0; c < cols && !failed; c++) {
            int64_t r0 = r * block, c0 = c * block;
            const double *src = frame + r0 * stride + c0;
            int64_t best_mode = 0;
            double best_sad = INFINITY, step = q[r * cols + c], total = 0.0;
            for (int64_t mode = 0; mode < 3; mode++) {
                intra_pred(recon, stride, r0, c0, block, mode, preds + mode * bb, edge);
                double sad = sad_block(preds + mode * bb, src, stride, block, diff);
                if (sad < best_sad) { best_mode = mode; best_sad = sad; }
            }
            modes[r * cols + c] = (int8_t)best_mode;
            const double *p = preds + best_mode * bb;
            for (int64_t i = 0; i < block; i++)
                for (int64_t j = 0; j < block; j++)
                    residual[i * block + j] = src[i * stride + j] - p[i * block + j];
            for (int64_t i8 = 0; i8 < block && !failed; i8 += 8)
                for (int64_t j8 = 0; j8 < block && !failed; j8 += 8) {
                    double *lv = levels + (r0 + i8) * stride + c0 + j8;
                    int64_t nbits = dct8x8_d(residual + i8 * block + j8, block, coef, 8, 0)
                                    ? -1 : quant_block(coef, 0, 0, 8, block_top(coef, 0, 0, 8), step, lv, stride);
                    failed = nbits < 0 || dequant_idct8(lv, stride, step, rec);
                    if (failed) break;
                    clip_add8(p + i8 * block + j8, block, rec, recon + (r0 + i8) * stride + c0 + j8, stride);
                    total += block_bits(nbits);
                }
            bits[r * cols + c] = total;
        }
    free(preds);
    return failed;
}

/* intra_decode: the stored mode's prediction per macroblock (modes: any
 * int64; ids other than 1 / 2 are DC), then per 8x8 block the levels times
 * the macroblock's step q, inverse-transformed, and clip(pred + residual)
 * into recon.  Returns 1 on a level past LEVEL_LIMIT (as quant_cost does), a
 * non-finite residual or scratch that could not be allocated. */
int64_t intra_decode(const double *levels, const int64_t *modes, const double *q, int64_t rows,
                     int64_t cols, int64_t block, double *recon) {
    int64_t stride = cols * block, failed = 0;
    double *pred = malloc((size_t)(block * block + 2 * block) * sizeof(double)), rec[64];
    if (!pred) return 1;
    for (int64_t r = 0; r < rows && !failed; r++)
        for (int64_t c = 0; c < cols && !failed; c++) {
            int64_t r0 = r * block, c0 = c * block;
            intra_pred(recon, stride, r0, c0, block, modes[r * cols + c], pred, pred + block * block);
            for (int64_t i8 = 0; i8 < block && !failed; i8 += 8)
                for (int64_t j8 = 0; j8 < block && !failed; j8 += 8) {
                    int64_t at = (r0 + i8) * stride + c0 + j8;
                    failed = !(block_top(levels, 0, at, stride) < LEVEL_LIMIT)
                             || dequant_idct8(levels + at, stride, q[r * cols + c], rec);
                    if (failed) break;
                    clip_add8(pred + i8 * block + j8, block, rec, recon + at, stride);
                }
        }
    free(pred);
    return failed;
}

/* RANSAC's hypothesis loop (repro.utils.ransac._ransac_pairs_reference)
 * over an (n, 2) system.  The pairs are drawn from the caller's numpy
 * bit generator through its C interface (next_uint32 on its state, under
 * the generator's lock), exactly as Generator.choice(n, 2, replace=False)
 * draws them: Floyd's two bounded draws, [0, n-2] then [0, n-1] (the
 * second becomes n-1 if it repeats the first), then a one-swap shuffle
 * with a draw in [0, 1]; each bounded draw is numpy's
 * buffered_bounded_lemire_uint32 on one 32-bit word at a time, a range
 * of 0 drawing nothing.  The caller declines n >= 2^32 (numpy's 64-bit
 * path). */
typedef uint32_t (*next_uint32_fn)(void *);

static inline uint32_t bounded_lemire(next_uint32_fn next, void *state, uint32_t rng) {
    if (rng == 0) return 0;
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)next(state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)next(state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* Each iteration solves the drawn pair by partial-pivot LU in scalar IEEE
 * arithmetic — swap if |a10| > |a00|, a zero pivot or u11 is a singular
 * pair: counted, not scored — and marks |a0 x0 + a1 x1 - b| <= threshold,
 * the reference's operation order.  needed[count] is the adaptive stop
 * once the best consensus holds count equations (computed in numpy, so no
 * libm log is involved), already capped at max_iterations.  best gets the
 * best mask, work is scratch, both n bytes; *best_count is -1 when no pair
 * was solvable.  Returns the iterations run. */
int64_t ransac_pairs(const double *a, const double *b, int64_t n, double threshold,
                     const int64_t *needed, int64_t max_iterations, next_uint32_fn next, void *state,
                     uint8_t *best, uint8_t *work, int64_t *best_count) {
    int64_t it = 0, limit = max_iterations, top = -1;
    while (it < limit) {
        it++;
        uint32_t i = bounded_lemire(next, state, (uint32_t)(n - 2));
        uint32_t j = bounded_lemire(next, state, (uint32_t)(n - 1));
        if (j == i) j = (uint32_t)(n - 1);
        if (bounded_lemire(next, state, 1) == 0) {
            uint32_t t = i;
            i = j;
            j = t;
        }
        double a00 = a[2 * i], a01 = a[2 * i + 1], b0 = b[i];
        double a10 = a[2 * j], a11 = a[2 * j + 1], b1 = b[j];
        if (fabs(a10) > fabs(a00)) {
            double t;
            t = a00; a00 = a10; a10 = t;
            t = a01; a01 = a11; a11 = t;
            t = b0; b0 = b1; b1 = t;
        }
        if (a00 == 0.0) continue;
        double l = a10 / a00;
        double u11 = a11 - l * a01;
        if (u11 == 0.0) continue;
        double x1 = (b1 - l * b0) / u11;
        double x0 = (b0 - a01 * x1) / a00;
        int64_t count = 0;
        for (int64_t k = 0; k < n; k++) {
            uint8_t in = fabs(a[2 * k] * x0 + a[2 * k + 1] * x1 - b[k]) <= threshold;
            work[k] = in;
            count += in;
        }
        if (count > top) {
            top = count;
            memcpy(best, work, (size_t)n);
            limit = needed[count];
        }
    }
    *best_count = top;
    return it;
}

/* ---- foreground clustering (repro.core.clustering.foreground_clusters) ----
 * region_grow, merge_clusters and clusters_to_mask over one (rows, cols)
 * float64 motion field, in one call.  Every gap is libm's hypot — numpy's
 * float64 np.hypot is that call, and region_grow's math.hypot falls on the
 * same side of `similarity` outside its guard band — and every running
 * mean the reference's IEEE expression in its order.  The merge angle is
 * the one quantity C cannot replay (np.dot is BLAS, np.arccos numpy's own
 * SIMD code): an angle within ANGLE_BAND of max_angle declines the call. */

/* How far from max_angle C's angle must land for its side to be the
 * reference's (argued in the docstring of cext.py). */
#define ANGLE_BAND 1e-9
#define FG_PI 0x1.921fb54442d18p+1 /* np.pi */

/* Python's a // b for b > 0: C's / truncates toward zero. */
static inline int64_t floor_div(int64_t a, int64_t b) {
    int64_t q = a / b;
    return q - (a % b != 0 && a < 0);
}

/* A cluster under merge_clusters: its blocks as a linked list through
 * next[] (head first, the reference's list order), its bounding box (r1,
 * c1 exclusive), its mean and the mean's hypot. */
typedef struct {
    int64_t head, tail, size, r0, c0, r1, c1, alive;
    double mx, my, norm;
} fg_cluster;

/* _near: some block of a within Chebyshev distance reach of a block
 * labelled b_id — the box gap first, then for each of a's blocks near b's
 * box the label grid over its window, clipped to b's box. */
static int fg_near(const fg_cluster *a, const fg_cluster *b, int64_t b_id, const int64_t *label,
                   const int64_t *next, int64_t cols, int64_t reach) {
    int64_t gap = b->r0 - a->r1;
    if (a->r0 - b->r1 > gap) gap = a->r0 - b->r1;
    if (b->c0 - a->c1 > gap) gap = b->c0 - a->c1;
    if (a->c0 - b->c1 > gap) gap = a->c0 - b->c1;
    if (gap >= reach) return 0;
    for (int64_t i = a->head; i >= 0; i = next[i]) {
        int64_t r = i / cols, c = i % cols;
        int64_t y0 = r - reach > b->r0 ? r - reach : b->r0, y1 = r + reach < b->r1 - 1 ? r + reach : b->r1 - 1;
        int64_t x0 = c - reach > b->c0 ? c - reach : b->c0, x1 = c + reach < b->c1 - 1 ? c + reach : b->c1 - 1;
        for (int64_t y = y0; y <= y1; y++)
            for (int64_t x = x0; x <= x1; x++)
                if (label[y * cols + x] == b_id) return 1;
    }
    return 0;
}

/* One step of Andrew's monotone chain: pop while the chain holds more than
 * `keep` - 1 vertices and its last two do not turn left towards q
 * (monotone_chain's test), then append q.  Returns the new length. */
static inline int64_t fg_push(int64_t *h, int64_t k, int64_t keep, const int64_t *q) {
    while (k >= keep) {
        const int64_t *o = h + 2 * (k - 2), *a = h + 2 * (k - 1);
        if (!((a[0] - o[0]) * (q[1] - o[1]) - (a[1] - o[1]) * (q[0] - o[0]) <= 0)) break;
        k--;
    }
    h[2 * k] = q[0];
    h[2 * k + 1] = q[1];
    return k + 1;
}

/* The hull of m >= 3 distinct (x, y) points in lexicographic order: the
 * lower chain, then the upper one from where it ended, into h (room for
 * 2m - 1 points).  Returns the vertex count, the closing repeat of the
 * first vertex excluded: monotone_chain's vertices in its order. */
static int64_t fg_hull(const int64_t *p, int64_t m, int64_t *h) {
    int64_t k = 0;
    for (int64_t i = 0; i < m; i++) k = fg_push(h, k, 2, p + 2 * i);
    for (int64_t i = m - 2, keep = k + 1; i >= 0; i--) k = fg_push(h, k, keep, p + 2 * i);
    return k - 1;
}

/* fill_convex_hull: row by row, the columns every edge's half-plane admits,
 * in exact integer arithmetic (the bounds go negative on right-to-left
 * edges, hence floor_div). */
static void fg_fill(const int64_t *h, int64_t nh, uint8_t *mask, int64_t cols) {
    int64_t x_min = h[0], x_max = h[0], y_min = h[1], y_max = h[1];
    for (int64_t e = 1; e < nh; e++) {
        if (h[2 * e] < x_min) x_min = h[2 * e];
        if (h[2 * e] > x_max) x_max = h[2 * e];
        if (h[2 * e + 1] < y_min) y_min = h[2 * e + 1];
        if (h[2 * e + 1] > y_max) y_max = h[2 * e + 1];
    }
    for (int64_t y = y_min; y <= y_max; y++) {
        int64_t lo = x_min, hi = x_max;
        for (int64_t e = 0; e < nh; e++) {
            const int64_t *v = h + 2 * e, *w = h + 2 * ((e + 1) % nh);
            int64_t ex = w[0] - v[0], ey = w[1] - v[1], bound = ex * (y - v[1]) + ey * v[0];
            if (ey > 0) {
                int64_t q = floor_div(bound, ey);
                if (q < hi) hi = q;
            } else if (ey < 0) {
                int64_t q = -floor_div(bound, -ey);
                if (q > lo) lo = q;
            }
        }
        for (int64_t x = lo; x <= hi; x++) mask[y * cols + x] = 1;
    }
}

/* merge_clusters' fixpoint over the k grown clusters (members / starts /
 * means as region growing left them), the same i < j sweep until a pass
 * merges nothing; the survivors are written back in index order.  Returns
 * the new cluster count, -1 for an angle within ANGLE_BAND of max_angle,
 * -2 when scratch could not be allocated. */
static int64_t fg_merge(int64_t k, int64_t n, int64_t cols, double max_angle, double max_ratio, int64_t reach,
                        double *means, int64_t *members, int64_t *starts) {
    fg_cluster *cl = malloc((size_t)k * sizeof *cl);
    int64_t *label = malloc((size_t)n * sizeof *label), *next = malloc((size_t)n * sizeof *next), out = 0;
    if (!cl || !label || !next) {
        out = -2;
        goto done;
    }
    for (int64_t i = 0; i < n; i++) label[i] = -1;
    for (int64_t a = 0; a < k; a++) {
        fg_cluster *c = &cl[a];
        c->head = members[starts[a]];
        c->tail = members[starts[a + 1] - 1];
        c->size = starts[a + 1] - starts[a];
        c->r0 = c->c0 = INT64_MAX;
        c->r1 = c->c1 = 0;
        for (int64_t q = starts[a]; q < starts[a + 1]; q++) {
            int64_t i = members[q], r = i / cols, col = i % cols;
            next[i] = q + 1 < starts[a + 1] ? members[q + 1] : -1;
            label[i] = a;
            if (r < c->r0) c->r0 = r;
            if (r + 1 > c->r1) c->r1 = r + 1;
            if (col < c->c0) c->c0 = col;
            if (col + 1 > c->c1) c->c1 = col + 1;
        }
        c->mx = means[2 * a];
        c->my = means[2 * a + 1];
        c->norm = hypot(c->mx, c->my);
        c->alive = 1;
    }
    for (int changed = 1; changed;) {
        changed = 0;
        for (int64_t a = 0; a < k; a++) {
            fg_cluster *A = &cl[a];
            if (!A->alive) continue;
            for (int64_t b = a + 1; b < k; b++) {
                fg_cluster *B = &cl[b];
                if (!B->alive || !fg_near(A, B, b, label, next, cols, reach)) continue;
                double small = B->norm < A->norm ? B->norm : A->norm, large = A->norm < B->norm ? B->norm : A->norm;
                if (small > 1e-9 && large / small > max_ratio) continue;
                if (A->norm < 1e-9 || B->norm < 1e-9) {
                    if (FG_PI > max_angle) continue;
                } else {
                    double cosine = (A->mx * B->mx + A->my * B->my) / (A->norm * B->norm);
                    cosine = cosine < -1.0 ? -1.0 : cosine > 1.0 ? 1.0 : cosine;
                    double angle = acos(cosine);
                    if (fabs(angle - max_angle) <= ANGLE_BAND) {
                        out = -1;
                        goto done;
                    }
                    if (angle > max_angle) continue;
                }
                double total = (double)(A->size + B->size);
                A->mx = (A->mx * (double)A->size + B->mx * (double)B->size) / total;
                A->my = (A->my * (double)A->size + B->my * (double)B->size) / total;
                for (int64_t i = B->head; i >= 0; i = next[i]) label[i] = a;
                next[A->tail] = B->head;
                A->tail = B->tail;
                A->size += B->size;
                if (B->r0 < A->r0) A->r0 = B->r0;
                if (B->r1 > A->r1) A->r1 = B->r1;
                if (B->c0 < A->c0) A->c0 = B->c0;
                if (B->c1 > A->c1) A->c1 = B->c1;
                A->norm = hypot(A->mx, A->my);
                B->alive = 0;
                changed = 1;
            }
        }
    }
    for (int64_t a = 0, top = 0; a < k; a++) {
        if (!cl[a].alive) continue;
        starts[out] = top;
        means[2 * out] = cl[a].mx;
        means[2 * out + 1] = cl[a].my;
        for (int64_t i = cl[a].head; i >= 0; i = next[i]) members[top++] = i;
        starts[++out] = top;
    }
done:
    free(cl);
    free(label);
    free(next);
    return out;
}

/* mv: (rows, cols, 2) float64; seeds / blocked: (rows, cols) bytes.
 * Grows clusters from the seeds in raster order, breadth first over the
 * neighbours right, left, below, above: a neighbour joins when it is not
 * seen and its MV is within `similarity` of the block's and of the running
 * mean (seen: blocked, or shorter than min_magnitude, unless a seed; a
 * dropped cluster's blocks stay seen).  Then, with merge, merge_clusters
 * (reach = floor(max_distance), clamped by the caller to the grid), and the
 * mask: every block, then each cluster's convex contour — the hull of the
 * topmost and bottommost block of each of its columns, which has the
 * vertices of the hull of all its blocks.  Out: means (k, 2), members (the
 * blocks r * cols + c, cluster after cluster), starts (k + 1), mask; all
 * sized for n = rows * cols.  Returns k, or -1 (an angle within
 * ANGLE_BAND) / -2 (no scratch): the reference answers. */
int64_t foreground_clusters(const double *mv, const uint8_t *seeds, const uint8_t *blocked, int64_t rows,
                            int64_t cols, double similarity, int64_t min_size, double min_magnitude, int64_t merge,
                            double max_angle, double max_ratio, int64_t reach, double *means, int64_t *members,
                            int64_t *starts, uint8_t *mask) {
    int64_t n = rows * cols, k = 0, top = 0;
    uint8_t *seen = malloc((size_t)n);
    int64_t *lo = malloc((size_t)cols * sizeof *lo), *hi = malloc((size_t)cols * sizeof *hi);
    int64_t *points = malloc((size_t)cols * 4 * sizeof *points), *hull = malloc((size_t)cols * 8 * sizeof *hull);
    if (!seen || !lo || !hi || !points || !hull) {
        k = -2;
        goto done;
    }
    for (int64_t i = 0; i < n; i++)
        seen[i] = !seeds[i] && (blocked[i] || hypot(mv[2 * i], mv[2 * i + 1]) < min_magnitude);
    for (int64_t s = 0; s < n; s++) {
        if (!seeds[s] || seen[s]) continue;
        seen[s] = 1;
        int64_t start = top;
        /* Cluster.add's expression for the seed too: -0.0 becomes 0.0. */
        double mx = (0.0 * 0 + mv[2 * s]) / 1, my = (0.0 * 0 + mv[2 * s + 1]) / 1;
        members[top++] = s;
        for (int64_t q = start; q < top; q++) {
            int64_t i = members[q], r = i / cols, c = i % cols, nbr[4], nn = 0;
            if (c + 1 < cols) nbr[nn++] = i + 1;
            if (c > 0) nbr[nn++] = i - 1;
            if (r + 1 < rows) nbr[nn++] = i + cols;
            if (r > 0) nbr[nn++] = i - cols;
            for (int64_t e = 0; e < nn; e++) {
                int64_t j = nbr[e], u = j < i ? j : i, v = j < i ? i : j;
                if (seen[j] || !(hypot(mv[2 * v] - mv[2 * u], mv[2 * v + 1] - mv[2 * u + 1]) <= similarity)) continue;
                double gap = hypot(mv[2 * j] - mx, mv[2 * j + 1] - my);
                if (gap <= similarity) {
                    double count = (double)(top - start);
                    seen[j] = 1;
                    mx = (mx * count + mv[2 * j]) / (count + 1);
                    my = (my * count + mv[2 * j + 1]) / (count + 1);
                    members[top++] = j;
                }
            }
        }
        if (top - start < min_size) {
            top = start;
            continue;
        }
        means[2 * k] = mx;
        means[2 * k + 1] = my;
        starts[k++] = start;
    }
    starts[k] = top;
    if (merge && k > 1) k = fg_merge(k, n, cols, max_angle, max_ratio, reach, means, members, starts);
    if (k < 0) goto done;
    for (int64_t i = 0; i < n; i++) mask[i] = 0;
    for (int64_t a = 0; a < k; a++) {
        int64_t c0 = cols, c1 = 0, m = 0;
        for (int64_t q = starts[a]; q < starts[a + 1]; q++) {
            int64_t c = members[q] % cols;
            if (c < c0) c0 = c;
            if (c + 1 > c1) c1 = c + 1;
        }
        for (int64_t c = c0; c < c1; c++) {
            lo[c] = rows;
            hi[c] = -1;
        }
        for (int64_t q = starts[a]; q < starts[a + 1]; q++) {
            int64_t i = members[q], r = i / cols, c = i % cols;
            mask[i] = 1;
            if (r < lo[c]) lo[c] = r;
            if (r > hi[c]) hi[c] = r;
        }
        for (int64_t c = c0; c < c1; c++) {
            if (hi[c] < 0) continue;
            points[2 * m] = c;
            points[2 * m++ + 1] = lo[c];
            if (hi[c] == lo[c]) continue;
            points[2 * m] = c;
            points[2 * m++ + 1] = hi[c];
        }
        int64_t nh = m >= 3 ? fg_hull(points, m, hull) : 0;
        if (nh >= 3) fg_fill(hull, nh, mask, cols);
    }
done:
    free(seen);
    free(lo);
    free(hi);
    free(points);
    free(hull);
    return k;
}
