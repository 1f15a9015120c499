"""Runtime-compiled C backend: the pattern search, MC, value noise, the
renderer's surfaces, I-frames and the P-frame's transform tail.

The pattern searches (DIA/HEX/UMH) are *sequentially* dependent per block:
each candidate offset is evaluated against the block's current best, which
the previous offset may just have updated.  NumPy can only batch across
blocks per offset — hundreds of small fancy-indexed gathers per frame —
while C walks each block's whole descent in one cache-resident loop.  The
whole search is one call (``pattern_search``): padding the reference and
cutting the current frame into blocks, the zero-predictor pass with
HEX/UMH's seed grid, both median-predictor passes, the final SAD and the
parabolic sub-pel vertex, pass-major as the reference is — blocks are
independent inside a pass, the predictors need the pass before complete.
Every SAD goes through a per-call, per-block memo keyed by ``(dx, dy)``:
the passes re-verify one converged neighbourhood under a new predictor
(about half of a frame's evaluations repeat a displacement, all of the
sub-pel fit's do), only the MV-bit term differs, and a hit returns the very
double the reference computes again.  What the call cannot prove it
declines — frames that are not C-contiguous float32 of one shape in whole
blocks, a search range whose ``(2R+1)^2`` displacements do not fit the
memo's 16-bit key, a NaN or infinite pixel, scratch it could not allocate —
and ``_pattern_search_reference`` answers.

Bit-exactness is engineered, then verified:

- SAD reductions replicate NumPy's pairwise summation exactly (8-way
  unrolled 128-element blocks, recursive halving above; the same algorithm
  ``ndarray.sum`` applies to each contiguous 256-element block row).
- MV bit costs use integer bit-length (``63 - clzll``) — exactly
  ``floor(log2(2|v| + 1))`` for the small odd integers involved.
- Motion compensation orders every multiply/add exactly as the reference's
  vectorised expression — as the sub-pel vertex does — and the source is
  compiled with ``-ffp-contract=off`` so no FMA contraction can change a
  rounding.  Both pad the float32 reference to float64 in C (widening is
  exact, so it is ``np.pad(..., mode="edge")`` of the widened plane).
- Value noise is a per-array pipeline in NumPy — four lattice hashes per
  octave, each a dozen full-size temporaries; C keeps a point's octaves in
  registers and reuses a lattice cell's four hashes for the next point in
  the same cell (they are a pure function of the cell and the seed).  The
  hash is uint64 wrap-around arithmetic (exact), the blend keeps the
  reference's operation order, and a call holding a coordinate int64 cannot
  represent (NaN, inf, ``|u| >= 2^63`` — an undefined cast in C) is
  answered by the reference.
- The renderer's ground and billboards (``render_surfaces``) are one call
  per frame over the world ray directions NumPy formed: the ground's ids,
  every placed object's mask far to near (ids and painted counts), then
  the texture of only the pixels that kept their surface, through the
  value-noise routine above.  Each per-pixel step is elementwise IEEE
  arithmetic in the reference's order; ``np.mod`` is ``fmod`` moved into
  the divisor's sign (numpy's ``npy_divmod``) and ``np.clip`` is its two
  compares.  The reference forms a face's ``d . normal`` and
  ``(p - point) . u_dir`` with ``@`` — BLAS dot products whose summation
  order and FMA use C cannot reproduce — so the kernel takes only faces
  whose normal and u axis each have one non-zero component: every other
  product is then an exact +-0 (or a NaN / inf the reference meets too)
  and the sum is the one product in any order, but for the sign of an
  all-zero sum, which reaches only a non-finite ``tt`` or a texture
  coordinate ``+-0 + half width``.  Every object the presets build faces
  ``(1, 0)`` or ``(0, 1)``; any other face, directions that are not
  C-contiguous float64, an id the int32 id-buffer cannot hold or that
  repeats, or a noise coordinate past int64 is declined to
  ``_render_surfaces_reference``.  The sky is not compiled: its azimuth is
  ``np.arctan2``, which numpy computes with its own SIMD code on AVX-512
  hosts — not bit-identical to libm's ``atan2`` — so it stays NumPy, on
  the pixels no surface covered.
- The I-frame wavefront (``intra_encode`` / ``intra_decode``) keeps the
  reference's anti-diagonal schedule and its scipy DCT/IDCT calls — pocketfft
  cannot be proven bit-identical from outside — and moves everything between
  them into three C steps per diagonal: predictions + SAD mode decision +
  residual, quantise + bit cost + dequantise, clip + scatter.  The DC mean
  and the SADs are the pairwise sums above, ``rint`` is ``np.round``, a
  level's ``floor(log2)`` is its integer bit length, bit totals are sums of
  multiples of 0.25 (order-free), and a call that produces a level the bit
  length cannot be proven on (NaN, inf, ``>= 2^32``) is answered by the
  reference, as is any argument the C loops could not index safely.
- The P-frame's transform tail is that same quantise + cost loop run
  frame-shaped over float32 coefficients (``quantize_cost``), a rate-control
  probe that divides only the magnitudes that can still reach a non-zero
  level (``rate_counter``: one compacting pass, no sort), and a
  reconstruction that inverse-transforms only the 8x8 blocks that carry a
  level (``reconstruct``) — through the reference's own scipy IDCT, on a
  compact block list: pocketfft transforms every 8-point line on its own.
  ``np.round`` is the add-and-subtract-1.5*2^52 idiom (exact below 2^51, no
  libm call); a skipped block's pixel is the clipped prediction because its
  dense residual is all +-0.0 — unless the prediction pixel is ``-0.0`` or a
  NaN, or a step is infinite, and then the reference answers.
- Before the first use a self-probe runs every C kernel against its
  reference on adversarial random inputs; any mismatch marks the backend
  unavailable (the registry then falls back to the reference).

Every kernel call is re-entrant: the C code keeps no state between calls
and its scratch (the search's padded reference, blocks and memo, a few
blocks of predictions and |differences|, a rate counter's candidate list,
the noise's lattice cells) is allocated per call or per counter,
so concurrent encodes (``agent_workers > 1`` — ctypes drops the GIL
around each call) cannot see each other's data.

The shared object is compiled once per source hash with the system
``cc``/``gcc``/``clang`` into a private per-user cache directory
(``$XDG_CACHE_HOME/repro/kernels``, default ``~/.cache/repro/kernels``;
the temp dir is the fallback when the home is read-only).  A directory
that is not owned by this user with mode 0700 is never loaded from, and
the object is written under a unique name and moved into place
atomically, named after its own content hash, so concurrent first runs
cannot load a half-written file and a truncated one is rebuilt.
Hosts without a C compiler report the backend unavailable, with the
reason in :meth:`CExtBackend.why_unavailable`.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import stat
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.kernels import KernelBackend, use_backend

__all__ = ["CExtBackend"]

_C_SOURCE = r"""
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

/* n float32 -> float64, eight at a time: -O2 vectorises only a loop whose
 * trip count it knows. */
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
    me_state m = {ref_pad, stride, block, rng, cols, lambda_mv,
                  cur_blocks, keys, vals, counts, cur_blocks + n * bb};
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

/* Motion compensation: per-block bilinear gather/blend from the reference
 * edge-padded by rng (pad_edge, into scratch of its own), float64 arithmetic
 * in the reference's exact operation order (weights formed as (1-ay)*(1-ax)
 * etc., taps combined left-to-right), final cast to float32.  Returns 1 when
 * the padded plane cannot be allocated. */
int64_t motion_comp(const float *ref, const double *mvx, const double *mvy,
                    int64_t rng, int64_t rows, int64_t cols, int64_t block, float *out) {
    int64_t h = rows * block, out_stride = cols * block, rp_stride = out_stride + 2 * rng;
    double *ref_pad = malloc((size_t)((h + 2 * rng) * rp_stride) * sizeof(double));
    if (!ref_pad) return 1;
    pad_edge(ref, h, out_stride, rng, ref_pad);
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t c = 0; c < cols; c++) {
            int64_t b = r * cols + c;
            double vx = mvx[b], vy = mvy[b];
            double fdx = floor(vx), fdy = floor(vy);
            double ax = vx - fdx, ay = vy - fdy;
            const double *p00 = ref_pad + (r * block - (int64_t)fdy + rng) * rp_stride
                                + (c * block - (int64_t)fdx + rng);
            float *o = out + r * block * out_stride + c * block;
            if (ax == 0.0 && ay == 0.0) {
                for (int64_t i = 0; i < block; i++)
                    for (int64_t j = 0; j < block; j++)
                        o[i * out_stride + j] = (float)p00[i * rp_stride + j];
            } else {
                double w00 = (1.0 - ay) * (1.0 - ax);
                double w01 = (1.0 - ay) * ax;
                double w10 = ay * (1.0 - ax);
                double w11 = ay * ax;
                for (int64_t i = 0; i < block; i++) {
                    const double *q00 = p00 + i * rp_stride;
                    const double *q10 = q00 - rp_stride;
                    for (int64_t j = 0; j < block; j++) {
                        double v = ((w00 * q00[j] + w01 * q00[j - 1])
                                    + w10 * q10[j]) + w11 * q10[j - 1];
                        o[i * out_stride + j] = (float)v;
                    }
                }
            }
        }
    }
    free(ref_pad);
    return 0;
}

/* Fractal value noise (repro.utils.noise) at one point: per octave o the
 * point is scaled by freq[o], the four lattice corners around it hashed
 * (splitmix64 avalanche; sterm[o] is that octave's seed * PRIME_S, and the
 * corners differ from the first by +PX, +PY, +PX+PY — uint64 wrap-around,
 * exact) and blended with the smoothstep fade.  Integer steps are exact;
 * every float step keeps the reference's operation order.  Returns 1
 * (out unspecified) when a lattice coordinate does not fit int64 — NaN,
 * +-inf, |u| >= 2^63 — where the C cast is undefined and numpy's is
 * platform-defined: the caller then takes the reference path. */
static inline double lattice(uint64_t h) {
    h ^= h >> 30; h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 27; h *= 0x94D049BB133111EBull;
    h ^= h >> 31;
    return (double)(h >> 11) / 9007199254740992.0;
}

/* The four hashed corners of the lattice cell an octave's last point fell
 * in (a pure function of the cell and the seed term): a point in the same
 * cell reuses them.  noise_cells_reset fills them for cell (INT64_MIN,
 * INT64_MIN), so they are always the hashes of the cell they name. */
typedef struct { int64_t iu, iv; double v00, v10, v01, v11; } lattice_cell;

#define NOISE_PX 0x9E3779B97F4A7C15ull
#define NOISE_PY 0xC2B2AE3D27D4EB4Full

static inline void cell_fill(lattice_cell *c, int64_t iu, int64_t iv, uint64_t sterm) {
    uint64_t h = (uint64_t)iu * NOISE_PX + (uint64_t)iv * NOISE_PY + sterm;
    c->iu = iu; c->iv = iv;
    c->v00 = lattice(h); c->v10 = lattice(h + NOISE_PX);
    c->v01 = lattice(h + NOISE_PY); c->v11 = lattice(h + NOISE_PX + NOISE_PY);
}

static void noise_cells_reset(lattice_cell *cells, const uint64_t *sterm, int64_t octaves) {
    for (int64_t o = 0; o < octaves; o++) cell_fill(cells + o, INT64_MIN, INT64_MIN, sterm[o]);
}

static inline int noise_at(double x, double y, const double *freq, const uint64_t *sterm,
                           int64_t octaves, lattice_cell *cells, double *out) {
    const double lim = 9223372036854775808.0;  /* 2^63 */
    double total = 0.0, amp = 1.0, amp_sum = 0.0;
    for (int64_t o = 0; o < octaves; o++) {
        double u = x * freq[o], v = y * freq[o];
        if (!(u >= -lim && u < lim && v >= -lim && v < lim)) return 1;
        /* floor() as truncate-and-step-down: exact in range, no libm call */
        int64_t iu = (int64_t)u, iv = (int64_t)v;
        iu -= (double)iu > u; iv -= (double)iv > v;
        double fu = u - (double)iu, fv = v - (double)iv;
        double su = fu * fu * (3.0 - 2.0 * fu);
        double sv = fv * fv * (3.0 - 2.0 * fv);
        lattice_cell *c = cells + o;
        if (c->iu != iu || c->iv != iv) cell_fill(c, iu, iv, sterm[o]);
        double top = c->v00 + su * (c->v10 - c->v00);
        double bot = c->v01 + su * (c->v11 - c->v01);
        total += amp * (top + sv * (bot - top));
        amp_sum += amp;
        amp *= 0.5;
    }
    *out = total / amp_sum;
    return 0;
}

/* value_noise_2d at n points; cells holds one lattice_cell per octave. */
int64_t value_noise(const double *x, const double *y, int64_t n,
                    const double *freq, const uint64_t *sterm, int64_t octaves,
                    double *out) {
    lattice_cell *cells = malloc((size_t)octaves * sizeof *cells);
    if (!cells) return 1;
    noise_cells_reset(cells, sterm, octaves);
    int64_t bad = 0;
    for (int64_t i = 0; i < n && !bad; i++) bad = noise_at(x[i], y[i], freq, sterm, octaves, cells, out + i);
    free(cells);
    return bad;
}

/* ---- the ground and the billboards (repro.world.renderer) ----
 * One call paints what _render_surfaces_reference paints, visibility
 * first: the ground's id, then every placed billboard's mask far to near
 * (ids and pixel counts), and only then the texture of each pixel that
 * kept its surface — the reference textures, and then paints over, every
 * pixel a surface covers.  Sky pixels are left for the caller. */
#define SURFACE_SKY 0
#define SURFACE_GROUND 1
#define GROUND_HAZE 165.0

/* np.mod of a float: fmod moved into the divisor's sign (np.mod(-1e-17,
 * 6.0) is 6.0) and +0.0 for an exact multiple — npy_divmod's remainder. */
static inline double np_mod(double a, double b) {
    double mod = fmod(a, b);
    if (!mod) return copysign(0.0, b);
    return (b < 0.0) != (mod < 0.0) ? mod + b : mod;
}

/* np.clip's compares: a NaN and -0.0 come through as they are. */
static inline double np_clip(double v, double lo, double hi) {
    return v < lo ? lo : v > hi ? hi : v;
}

/* ground_texture at world (x, z): gfreq / gsterm hold the base noise's two
 * octaves, then the fine noise's one. */
static inline int ground_gray(double x, double z, const double *gfreq, const uint64_t *gsterm,
                              lattice_cell *cells, double weather, double *out) {
    double base, fine;
    if (noise_at(x, z, gfreq, gsterm, 2, cells, &base)
        || noise_at(x, z, gfreq + 2, gsterm + 2, 1, cells + 2, &fine))
        return 1;
    double gray = (80.0 + 45.0 * base) + 12.0 * (fine - 0.5);
    /* dashed lanes at x = -+1.75 (the dash test only where it can matter),
     * solid edge lines at x = -+5.25 */
    if (((fabs(x - -1.75) < 0.12 || fabs(x - 1.75) < 0.12) && np_mod(z, 6.0) < 3.0)
        || fabs(x - -5.25) < 0.12 || fabs(x - 5.25) < 0.12)
        gray = 225.0;
    *out = np_clip(105.0 + (gray - 105.0) * weather, 0.0, 255.0);
    return 0;
}

/* A placed billboard, GEO_SIZE doubles: num = (point - origin) . normal as
 * the caller formed it, point, normal, u_dir, half width, height, and the
 * texture's base gray and noise contrast. */
enum { GEO_NUM, GEO_POINT, GEO_NORMAL = GEO_POINT + 3, GEO_UDIR = GEO_NORMAL + 3,
       GEO_HALF = GEO_UDIR + 3, GEO_HEIGHT, GEO_BASE, GEO_CONTRAST, GEO_SIZE };
/* ... and FACE_SIZE integers: its window rows [y0, y1) and columns
 * [x0, x1), its texture kind (FACE_KIND: 0 plain, 1 building, 2 car,
 * 3 pedestrian) and its id. */
enum { FACE_Y0, FACE_Y1, FACE_X0, FACE_X1, FACE_KIND, FACE_ID, FACE_SIZE };

/* The ray d from o against a billboard: tt = num / (d . normal), the point
 * o + d tt, u = (that point - point) . u_dir and the height above the
 * ground; writes the texture coordinates (u from the left edge, height) and
 * returns the reference's mask.  normal and u_dir each hold one non-zero
 * component (the wrapper declines any other face), so every other product
 * is an exact +-0 — or a NaN / inf, which the reference's BLAS dot products
 * meet too — and each dot product equals the reference's in any summation
 * order, but for the sign of an all-zero sum; that sign only reaches a
 * non-finite tt or |u| and the left-edge coordinate u + half width. */
static inline int face_hit(const double *g, const double *d, const double *o, double *tu, double *th) {
    const double *pt = g + GEO_POINT, *n = g + GEO_NORMAL, *ud = g + GEO_UDIR;
    double tt = g[GEO_NUM] / ((d[0] * n[0] + d[1] * n[1]) + d[2] * n[2]);
    double p0 = o[0] + d[0] * tt, p1 = o[1] + d[1] * tt, p2 = o[2] + d[2] * tt;
    double u = ((p0 - pt[0]) * ud[0] + (p1 - pt[1]) * ud[1]) + (p2 - pt[2]) * ud[2];
    *tu = u + g[GEO_HALF];
    *th = -p1;
    return isfinite(tt) && tt > 0.1 && fabs(u) <= g[GEO_HALF] && *th >= 0.0 && *th <= g[GEO_HEIGHT];
}

/* object_texture at face coordinates (u, h): three octaves of noise under
 * the object's own seed terms, the kind's bands, the weather contrast. */
static inline int object_gray(double u, double h, const double *g, int64_t kind, const double *ofreq,
                              const uint64_t *osterm, lattice_cell *cells, double weather, double *out) {
    double noise;
    if (noise_at(u, h, ofreq, osterm, 3, cells, &noise)) return 1;
    double base = g[GEO_BASE], gray = base + g[GEO_CONTRAST] * (noise - 0.5);
    if (kind == 1) {  /* window grid */
        double wu = np_mod(u, 2.0), wh = np_mod(h, 2.5);
        if (wu > 0.5 && wu < 1.7 && wh > 0.8 && wh < 2.1) gray = gray - 65.0;
    } else if (kind == 2) {  /* wheel / shadow band, window band */
        if (h < 0.35) gray = gray - 55.0;
        if (h > 1.1) gray = gray + 40.0;
    } else if (kind == 3) {  /* head / torso / legs */
        if (h > 1.45) gray = gray + 35.0;
        if (h < 0.75) gray = gray - 30.0;
    }
    *out = np_clip(base + (gray - base) * weather, 0.0, 255.0);
    return 0;
}

/* dirs: (h, w, 3) world ray directions from origin.  freq: the ground's
 * three noise frequencies (base octaves, fine) then the objects' three;
 * gsterm: the ground's seed terms; per placed object (painter's order, far
 * to near) FACE_SIZE integers in face, GEO_SIZE doubles in geo, three seed
 * terms in osterm.  Writes image (all but the sky pixels), ids and
 * counts[k] — the pixels object k painted.  Returns 1 — the reference
 * answers — on a noise coordinate int64 cannot hold. */
int64_t render_surfaces(const double *dirs, int64_t h, int64_t w, const double *o,
                        double max_depth, double weather, const double *freq,
                        const uint64_t *gsterm, int64_t n_obj, const int64_t *face,
                        const double *geo, const uint64_t *osterm,
                        double *image, int32_t *ids, int64_t *counts) {
    int64_t n = h * w;
    double fade = max_depth - 0.7 * max_depth, tu, th;
    lattice_cell cells[3];
    for (int64_t i = 0; i < n; i++) {
        double dy = dirs[3 * i + 1], tg = -o[1] / dy;
        ids[i] = dy > 1e-9 && tg > 0.0 ? SURFACE_GROUND : SURFACE_SKY;
    }
    for (int64_t k = 0; k < n_obj; k++) {
        const int64_t *f = face + k * FACE_SIZE;
        int64_t painted = 0;
        for (int64_t y = f[FACE_Y0]; y < f[FACE_Y1]; y++)
            for (int64_t x = f[FACE_X0]; x < f[FACE_X1]; x++)
                if (face_hit(geo + k * GEO_SIZE, dirs + 3 * (y * w + x), o, &tu, &th)) {
                    ids[y * w + x] = (int32_t)f[FACE_ID];
                    painted++;
                }
        counts[k] = painted;
    }
    noise_cells_reset(cells, gsterm, 3);
    for (int64_t i = 0; i < n; i++) {
        if (ids[i] != SURFACE_GROUND) continue;
        const double *d = dirs + 3 * i;
        double tg = -o[1] / d[1], tex;
        if (!(tg <= max_depth)) {
            image[i] = GROUND_HAZE;
            continue;
        }
        if (ground_gray(o[0] + tg * d[0], o[2] + tg * d[2], freq, gsterm, cells, weather, &tex)) return 1;
        double weight = np_clip((max_depth - tg) / fade, 0.0, 1.0);
        image[i] = weight * tex + (1.0 - weight) * GROUND_HAZE;
    }
    /* Ids are unique, so a pixel holding object k's id is one of its mask's. */
    for (int64_t k = 0; k < n_obj; k++) {
        const int64_t *f = face + k * FACE_SIZE;
        const double *g = geo + k * GEO_SIZE;
        noise_cells_reset(cells, osterm + 3 * k, 3);
        for (int64_t y = f[FACE_Y0]; y < f[FACE_Y1]; y++)
            for (int64_t x = f[FACE_X0]; x < f[FACE_X1]; x++) {
                int64_t i = y * w + x;
                if (ids[i] != f[FACE_ID]) continue;
                face_hit(g, dirs + 3 * i, o, &tu, &th);
                if (object_gray(tu, th, g, f[FACE_KIND], freq + 3, osterm + 3 * k, cells, weather, image + i))
                    return 1;
            }
    }
    return 0;
}

/* ---- I-frame wavefront (repro.codec.intra) ----
 * One anti-diagonal of the macroblock grid at a time: its k-th block is
 * macroblock (r0 + k, c0 - k).  A block-major (rows8, 8, cols8, 8) array is
 * the same memory as a (rows8*8, cols8*8) plane, so pixels, coefficients and
 * levels are all addressed as planes with a line stride.  The DCT/IDCT
 * between the steps stay scipy calls made by the Python wrapper. */

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

/* Encoder step 1: per block the DC/H/V predictions, each one's SAD against
 * the source (|src - pred| over the contiguous block, NumPy-pairwise), the
 * first strictly smaller SAD wins; the winner goes to best[k] and the
 * residual into column block k of the (block, m*block) plane.  scratch
 * holds 4*block*block + 2*block doubles. */
void intra_pre(const double *frame, const double *recon, int64_t stride,
               int64_t r0, int64_t c0, int64_t m, int64_t block,
               int8_t *modes, int64_t cols, double *best, double *plane, double *scratch) {
    int64_t bb = block * block;
    double *preds = scratch, *diff = scratch + 3 * bb, *edge = scratch + 4 * bb;
    for (int64_t k = 0; k < m; k++) {
        int64_t r = r0 + k, c = c0 - k;
        const double *src = frame + r * block * stride + c * block;
        int64_t best_mode = 0;
        double best_sad = INFINITY;
        for (int64_t mode = 0; mode < 3; mode++) {
            intra_pred(recon, stride, r * block, c * block, block, mode, preds + mode * bb, edge);
            /* |pred - src| == |src - pred| bit for bit */
            double sad = sad_block(preds + mode * bb, src, stride, block, diff);
            if (sad < best_sad) { best_mode = mode; best_sad = sad; }
        }
        modes[r * cols + c] = (int8_t)best_mode;
        const double *p = preds + best_mode * bb;
        for (int64_t i = 0; i < block; i++)
            for (int64_t j = 0; j < block; j++) {
                best[k * bb + i * block + j] = p[i * block + j];
                plane[i * m * block + k * block + j] = src[i * stride + j] - p[i * block + j];
            }
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

/* np.round — rint in the default rounding mode — without the libm call the
 * baseline ISA would make of it: adding and subtracting 1.5 * 2^52 leaves
 * the nearest integer, ties to even, exactly for |x| < 2^51; copysign keeps
 * np.round(-0.3) == -0.0.  Beyond 2^51 the result is off but still past
 * LEVEL_LIMIT (NaN stays NaN), which every caller hands to the reference. */
static inline double round_even(double x) {
    return copysign((fabs(x) + 0x1.8p52) - 0x1.8p52, x);
}

/* A block-major coefficient array holds float64 (the I-frame's diagonal
 * planes) or float32 (scipy keeps a P-frame residual's dtype); the
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

/* Quantise / cost / dequantise, frame-shaped: an mb_rows x mb_cols grid of
 * macroblocks of a coefficient plane (line elements per row) with one step
 * q per macroblock.  level = round_even(c / q) is np.round; deq (skipped
 * when NULL) = level * q has the coefficients' layout; bits[] gets each
 * macroblock's transform_cost_bits — per 8x8 block the sum of
 * 2*floor(log2|level|) + 3 over non-zero levels plus the block overhead;
 * every partial sum is a multiple of 0.25, so the order is free.
 * Macroblock (R, C) stores its levels at levels + R*lv_row + C*lv_col
 * with lv_line doubles per row — a whole frame, or the diagonal's final
 * place in one.  Returns 1 on the first level past LEVEL_LIMIT.  Inlined
 * once per dtype: with f32 a run-time value the 8x8 loops do not vectorise
 * (a 480x288 frame 0.43 ms against 0.32). */
static inline __attribute__((always_inline)) int64_t quant_cost_any(
        const void *restrict coeffs, const int f32, int64_t line, int64_t mb_rows, int64_t mb_cols,
        int64_t block, const double *restrict q, double *restrict levels, int64_t lv_line,
        int64_t lv_row, int64_t lv_col, double *restrict deq, double *restrict bits) {
    for (int64_t R = 0; R < mb_rows; R++)
        for (int64_t C = 0; C < mb_cols; C++) {
            double step = q[R * mb_cols + C], cut = ZERO_CUT * step, total = 0.0;
            int64_t at = R * block * line + C * block;
            double *lv = levels + R * lv_row + C * lv_col;
            for (int64_t i8 = 0; i8 < block; i8 += 8)
                for (int64_t j8 = 0; j8 < block; j8 += 8) {
                    int64_t nbits = 0, unbounded = 0;
                    /* Most of a P-frame: nothing in the block reaches the cut. */
                    if (block_top(coeffs, f32, at + i8 * line + j8, line) < cut) {
                        for (int64_t i = i8; i < i8 + 8; i++)
                            for (int64_t j = j8; j < j8 + 8; j++)
                                lv[i * lv_line + j] = copysign(0.0, coeff_at(coeffs, f32, at + i * line + j));
                    } else {
                        for (int64_t i = i8; i < i8 + 8; i++)
                            for (int64_t j = j8; j < j8 + 8; j++) {
                                double level = round_even(coeff_at(coeffs, f32, at + i * line + j) / step);
                                double mag = fabs(level);
                                unbounded |= !(mag < LEVEL_LIMIT);
                                if (mag > 0.0 && mag < LEVEL_LIMIT)
                                    nbits += 2 * (63 - __builtin_clzll((uint64_t)mag)) + 3;
                                lv[i * lv_line + j] = level;
                            }
                        if (unbounded) return 1;
                    }
                    if (deq)
                        for (int64_t i = i8; i < i8 + 8; i++)
                            for (int64_t j = j8; j < j8 + 8; j++)
                                deq[at + i * line + j] = lv[i * lv_line + j] * step;
                    total += (double)nbits + (nbits > 0 ? CODED_BLOCK_BITS : SKIP_BLOCK_BITS);
                }
            bits[R * mb_cols + C] = total;
        }
    return 0;
}

int64_t quant_cost(const void *coeffs, int64_t f32, int64_t line, int64_t mb_rows,
                   int64_t mb_cols, int64_t block, const double *q, double *levels,
                   int64_t lv_line, int64_t lv_row, int64_t lv_col, double *deq, double *bits) {
    if (f32)
        return quant_cost_any(coeffs, 1, line, mb_rows, mb_cols, block, q, levels,
                              lv_line, lv_row, lv_col, deq, bits);
    return quant_cost_any(coeffs, 0, line, mb_rows, mb_cols, block, q, levels,
                          lv_line, lv_row, lv_col, deq, bits);
}

/* ---- rate control's probe (repro.codec.transform.QuantBitCounter) ----
 * Set-up, one pass over the coefficients: per 8x8 block its largest
 * magnitude (block_max, macroblock-major: the per_mb blocks of macroblock 0,
 * then of macroblock 1, ...) and, per macroblock, the magnitudes at or
 * above ZERO_CUT of its step packed into cand — macroblock mb owns
 * cand[start[mb] .. start[mb + 1]).  cand needs room for every coefficient;
 * only what is kept gets written (and paged in).  Returns the number kept,
 * or -1 on a NaN or infinite coefficient. */
static inline __attribute__((always_inline)) int64_t rc_compact_any(
        const void *coeffs, const int f32, int64_t line, int64_t mb_rows, int64_t mb_cols,
        int64_t block, const double *step, double *block_max, double *cand, int64_t *start) {
    int64_t n = 0, b = 0;
    for (int64_t R = 0; R < mb_rows; R++)
        for (int64_t C = 0; C < mb_cols; C++) {
            double cut = ZERO_CUT * step[R * mb_cols + C];
            int64_t at = R * block * line + C * block;
            start[R * mb_cols + C] = n;
            for (int64_t i8 = 0; i8 < block; i8 += 8)
                for (int64_t j8 = 0; j8 < block; j8 += 8) {
                    double top = block_top(coeffs, f32, at + i8 * line + j8, line);
                    if (!(top < INFINITY)) return -1;
                    block_max[b++] = top;
                    if (top < cut) continue;
                    for (int64_t i = i8; i < i8 + 8; i++)
                        for (int64_t j = j8; j < j8 + 8; j++) {
                            double mag = fabs(coeff_at(coeffs, f32, at + i * line + j));
                            cand[n] = mag;  /* kept only if the count moves past it */
                            n += mag >= cut;
                        }
                }
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
 * integer plus multiples of 0.25 — exact in any order.  The caller has
 * bounded every level below LEVEL_LIMIT. */
double rc_bits(const double *cand, const int64_t *start, const double *block_max,
               int64_t mbs, int64_t per_mb, const double *step) {
    int64_t coeff_bits = 0, coded = 0;
    for (int64_t mb = 0; mb < mbs; mb++) {
        double s = step[mb], cut = ZERO_CUT * s;
        for (int64_t k = start[mb]; k < start[mb + 1]; k++)
            if (!(cand[k] < cut)) {
                uint64_t level = (uint64_t)round_even(cand[k] / s);
                if (level) coeff_bits += 2 * (63 - __builtin_clzll(level)) + 3;
            }
        for (int64_t b = mb * per_mb; b < (mb + 1) * per_mb; b++)
            coded += round_even(block_max[b] / s) > 0.0;
    }
    return (double)coeff_bits + CODED_BLOCK_BITS * (double)coded
           + SKIP_BLOCK_BITS * (double)(mbs * per_mb - coded);
}

/* ---- skip-aware reconstruction (repro.codec.transform.reconstruct) ----
 * Step 1: walk the rows8 x cols8 grid of 8x8 level blocks in raster order;
 * a block holding a non-zero level (-0.0 is zero) gets the next slot and
 * its levels times its macroblock's step as rows 8*slot .. 8*slot + 7 of
 * the (n*8, 8) plane the IDCT takes; an all-zero block gets slot -1.
 * Returns n, or -1 on a level past LEVEL_LIMIT (as quant_cost does). */
int64_t dequant_coded(const double *restrict levels, int64_t rows8, int64_t cols8,
                      int64_t per_side, const double *restrict q, int64_t *restrict slot,
                      double *restrict deq) {
    int64_t n = 0, line = cols8 * 8, mb_cols = cols8 / per_side;
    for (int64_t br = 0; br < rows8; br++)
        for (int64_t bc = 0; bc < cols8; bc++) {
            const double *lv = levels + br * 8 * line + bc * 8;
            double top = block_top(levels, 0, br * 8 * line + bc * 8, line);
            if (!(top < LEVEL_LIMIT)) return -1;
            if (!(top > 0.0)) { slot[br * cols8 + bc] = -1; continue; }
            double step = q[(br / per_side) * mb_cols + bc / per_side];
            double *out = deq + n * 64;
            for (int64_t i = 0; i < 8; i++)
                for (int64_t j = 0; j < 8; j++) out[i * 8 + j] = lv[i * line + j] * step;
            slot[br * cols8 + bc] = n++;
        }
    return n;
}

/* Step 2: out = (float)clip((double)pred + residual, 0, 255) with np.clip's
 * compares (a NaN stays a NaN).  A coded block's residual is its slot's rows
 * of the IDCT'd plane.  A skipped block's dense residual is all +-0.0 and
 * p + +-0.0 is p to the bit — unless p is -0.0 (the sum's sign would be the
 * residual's) or a NaN (the sum quiets it): returns 1 on those, and the
 * reference answers the call. */
int64_t recon_post(const float *restrict pred, const int64_t *restrict slot,
                   const double *restrict rec, int64_t rows8, int64_t cols8, float *restrict out) {
    int64_t line = cols8 * 8;
    for (int64_t br = 0; br < rows8; br++)
        for (int64_t bc = 0; bc < cols8; bc++) {
            const float *p = pred + br * 8 * line + bc * 8;
            float *o = out + br * 8 * line + bc * 8;
            int64_t s = slot[br * cols8 + bc];
            if (s < 0) {
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
                if (unproven) return 1;
                continue;
            }
            for (int64_t i = 0; i < 8; i++)
                for (int64_t j = 0; j < 8; j++) {
                    double v = (double)p[i * line + j] + rec[s * 64 + i * 8 + j];
                    v = v < 0.0 ? 0.0 : v;
                    o[i * line + j] = (float)(v > 255.0 ? 255.0 : v);
                }
        }
    return 0;
}

/* Last step of both directions: recon block = clip(pred + residual, 0, 255)
 * with np.clip's compares (a NaN stays a NaN, -0.0 stays -0.0). */
void intra_post(const double *best, const double *rec, int64_t r0, int64_t c0,
                int64_t m, int64_t block, double *recon, int64_t stride) {
    for (int64_t k = 0; k < m; k++) {
        double *out = recon + (r0 + k) * block * stride + (c0 - k) * block;
        for (int64_t i = 0; i < block; i++)
            for (int64_t j = 0; j < block; j++) {
                double v = best[(k * block + i) * block + j] + rec[i * m * block + k * block + j];
                if (v < 0.0) v = 0.0;
                if (v > 255.0) v = 255.0;
                out[i * stride + j] = v;
            }
    }
}

/* Decoder step 1: prediction by stored mode into best[k], and the block's
 * levels times its step q[k] gathered into the (block, m*block) plane the
 * IDCT takes.  Returns 1 on a level past LEVEL_LIMIT, as quant_cost does.
 * edge holds 2*block doubles. */
int64_t intra_unpre(const double *levels, const int64_t *modes, int64_t cols,
                    const double *q, const double *recon, int64_t stride,
                    int64_t r0, int64_t c0, int64_t m, int64_t block,
                    double *best, double *deq, double *edge) {
    for (int64_t k = 0; k < m; k++) {
        int64_t r = r0 + k, c = c0 - k;
        intra_pred(recon, stride, r * block, c * block, block, modes[r * cols + c],
                   best + k * block * block, edge);
        const double *lv = levels + r * block * stride + c * block;
        for (int64_t i = 0; i < block; i++)
            for (int64_t j = 0; j < block; j++) {
                double level = lv[i * stride + j];
                if (!(fabs(level) < LEVEL_LIMIT)) return 1;
                deq[i * m * block + k * block + j] = level * q[k];
            }
    }
    return 0;
}
"""

#: Compile flags: -ffp-contract=off forbids FMA contraction (a contracted
#: a*b+c rounds once, NumPy's separate ops round twice); -O2 never
#: reassociates FP without -ffast-math, so the operation order above is
#: what runs.  An implicit declaration is an error on gcc >= 14 / clang >= 16
#: anyway; asking for it everywhere keeps older compilers from hiding one.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno",
           "-Werror=implicit-function-declaration"]
_COMPILERS = ("cc", "gcc", "clang")

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_F64 = ctypes.c_double

#: C entry points and their argument types (all return void but the ones in
#: :data:`_RESTYPES`, which report input the reference must answer).
_SIGNATURES = {
    "pairwise_rows": [_PTR, _I64, _I64, _PTR],
    "pattern_search": [_PTR, _PTR, _I64, _I64, _I64, _I64, _I64, _F64, _I64, _PTR, _I64, _PTR, _PTR],
    "motion_comp": [_PTR, _PTR, _PTR, _I64, _I64, _I64, _I64, _PTR],
    "value_noise": [_PTR, _PTR, _I64, _PTR, _PTR, _I64, _PTR],
    "render_surfaces": [_PTR, _I64, _I64, _PTR, _F64, _F64, _PTR, _PTR, _I64, _PTR, _PTR, _PTR,
                        _PTR, _PTR, _PTR],
    "intra_pre": [_PTR, _PTR, _I64, _I64, _I64, _I64, _I64, _PTR, _I64, _PTR, _PTR, _PTR],
    "quant_cost": [_PTR, _I64, _I64, _I64, _I64, _I64, _PTR, _PTR, _I64, _I64, _I64, _PTR, _PTR],
    "rc_compact": [_PTR, _I64, _I64, _I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR],
    "rc_bits": [_PTR, _PTR, _PTR, _I64, _I64, _PTR],
    "dequant_coded": [_PTR, _I64, _I64, _I64, _PTR, _PTR, _PTR],
    "recon_post": [_PTR, _PTR, _PTR, _I64, _I64, _PTR],
    "intra_post": [_PTR, _PTR, _I64, _I64, _I64, _I64, _PTR, _I64],
    "intra_unpre": [_PTR, _PTR, _I64, _PTR, _PTR, _I64, _I64, _I64, _I64, _I64,
                    _PTR, _PTR, _PTR],
}
_RESTYPES = {"pattern_search": _I64, "motion_comp": _I64, "value_noise": _I64,
             "render_surfaces": _I64, "quant_cost": _I64, "intra_unpre": _I64, "rc_compact": _I64,
             "rc_bits": _F64, "dequant_coded": _I64, "recon_post": _I64}

_U64_MASK = 0xFFFFFFFFFFFFFFFF


class _Unavailable(Exception):
    """The shared object cannot be built or loaded; the message says why."""


def _cache_dir() -> Path:
    """The private directory the shared object is built into and loaded from.

    Only a directory owned by this user with mode 0700 qualifies — anything
    else could hold an object someone else wrote.
    """
    candidates = []
    xdg = os.environ.get("XDG_CACHE_HOME")
    try:
        candidates.append((Path(xdg) if xdg else Path.home() / ".cache") / "repro" / "kernels")
    except RuntimeError:  # no home directory for this uid
        pass
    candidates.append(Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}")
    refused = []
    for path in candidates:
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
            st = os.lstat(path)
        except OSError as exc:
            refused.append(f"{path}: {exc.strerror or exc}")
            continue
        mode = stat.S_IMODE(st.st_mode)
        if not stat.S_ISDIR(st.st_mode):
            refused.append(f"{path}: not a directory")
        elif st.st_uid != os.getuid():
            refused.append(f"{path}: owned by uid {st.st_uid}")
        elif mode != 0o700:
            refused.append(f"{path}: mode {mode:04o}, want 0700")
        else:
            return path
    raise _Unavailable("no private cache directory (" + "; ".join(refused) + ")")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _compile(cache: Path, stem: str) -> Path:
    """Compile the source into ``cache``; returns the object's path.

    The object is written under a unique temp name and moved into place
    atomically, named after its own content hash so a loader can tell a
    whole file from a truncated one.
    """
    fd, tmp = tempfile.mkstemp(dir=cache, prefix=stem + ".", suffix=".tmp")
    os.close(fd)
    errors = []
    try:
        for compiler in _COMPILERS:
            try:
                subprocess.run(
                    [compiler, *_CFLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                    input=_C_SOURCE.encode(),
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
            except FileNotFoundError:
                errors.append(f"{compiler}: not found")
            except subprocess.CalledProcessError as exc:
                stderr = exc.stderr.decode(errors="replace").strip()
                errors.append(f"{compiler}: {stderr[-400:] or f'exit {exc.returncode}'}")
            except (OSError, subprocess.SubprocessError) as exc:
                errors.append(f"{compiler}: {exc}")
            else:
                so_path = cache / f"{stem}-{_digest(Path(tmp).read_bytes())}.so"
                os.replace(tmp, so_path)
                return so_path
        raise _Unavailable("no working C compiler (" + "; ".join(errors) + ")")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(so_path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(so_path))
    for name, argtypes in _SIGNATURES.items():
        func = getattr(lib, name)
        func.argtypes = argtypes
        func.restype = _RESTYPES.get(name)
    return lib


def _build_library() -> ctypes.CDLL:
    """Load the shared object, compiling it when missing or damaged."""
    cache = _cache_dir()
    stem = "kernels-" + _digest((_C_SOURCE + " ".join(_CFLAGS)).encode())
    for so_path in sorted(cache.glob(f"{stem}-*.so")):
        # dlopen of a truncated object can kill the process (SIGBUS), so a
        # file is only loaded once it matches the content hash in its name.
        try:
            if _digest(so_path.read_bytes()) == so_path.stem.rpartition("-")[2]:
                return _load(so_path)
        except (OSError, AttributeError):
            pass
        so_path.unlink(missing_ok=True)
    so_path = _compile(cache, stem)
    try:
        return _load(so_path)
    except (OSError, AttributeError) as exc:
        raise _Unavailable(f"cannot load {so_path}: {exc}") from None


def _intra_grid(shape: tuple, block) -> tuple[int, int] | None:
    """The macroblock grid of a pixel plane the compiled wavefront may walk:
    whole 8-multiple blocks, at least one — else ``None``."""
    if type(block) is not int or block <= 0 or block % 8 or len(shape) != 2:
        return None
    h, w = shape
    if not (h and w) or h % block or w % block:
        return None
    return h // block, w // block


def _block_grid(blocks, mb_size, dtypes=(np.float32, np.float64)) -> tuple[int, int] | None:
    """The macroblock grid of a block-major ``(rows8, 8, cols8, 8)`` array the
    C loops may walk as a plane — C-contiguous, of one of ``dtypes``, covering
    whole macroblocks, at least one — else ``None``."""
    if (
        not isinstance(blocks, np.ndarray)
        or blocks.ndim != 4
        or blocks.shape[1::2] != (8, 8)
        or blocks.dtype not in dtypes
        or not blocks.flags.c_contiguous
    ):
        return None
    return _intra_grid((blocks.shape[0] * 8, blocks.shape[2] * 8), mb_size)


#: How many QPs below the probe it was compacted at a rate counter's candidate
#: list stays complete: the list keeps every magnitude from a quarter of that
#: probe's step (the C source's ZERO_CUT), a level needs half of its own, and
#: five QPs down the steps are 2^(-5/6) = 0.56 of what they were — so
#: 0.25 / 0.56 = 0.45 < 0.5 with a margin no rounding of ``qstep`` can close.
_RC_DESCENT = 5.0


class _RateCounter:
    """``QuantBitCounter``'s compiled probe over one coefficient set: call it
    with a base QP for the frame's total bits, ``None`` when the reference
    must answer (a NaN or infinite coefficient, one too large to cost in
    integers).

    The first probe makes the one pass over the coefficients — per-8x8
    maxima, and per macroblock the magnitudes that can still quantise to a
    non-zero level down to ``_RC_DESCENT`` QPs below it — and every probe
    after that divides only those candidates; a probe that descends further
    compacts again from there.  No sort, any offset map.
    """

    def __init__(self, lib, coeffs, offsets, grid, mb_size, max_qp):
        self._lib = lib
        self._coeffs = coeffs
        self._offsets = offsets
        self._grid = grid
        self._mb_size = mb_size
        self._max_qp = max_qp
        self._per_mb = (mb_size // 8) ** 2
        self._floor = np.inf  # the lowest QP the candidates cover
        self._block_max = self._cand = self._start = None

    def __call__(self, qp: float) -> float | None:
        from repro.codec.transform import qstep

        steps = qstep(np.clip(qp + self._offsets, 0.0, self._max_qp))
        if not qp >= self._floor:
            self._floor = qp - _RC_DESCENT
            if not self._compact(steps):
                return None
        return self._lib.rc_bits(
            self._cand.ctypes.data, self._start.ctypes.data, self._block_max.ctypes.data,
            steps.size, self._per_mb, steps.ctypes.data,
        )

    def _compact(self, steps: np.ndarray) -> bool:
        coeffs = self._coeffs
        rows, cols = self._grid
        if self._cand is None:
            self._block_max = np.empty(coeffs.size // 64, dtype=np.float64)
            self._cand = np.empty(coeffs.size, dtype=np.float64)
            self._start = np.empty(steps.size + 1, dtype=np.int64)
        kept = -1
        if np.isfinite(steps).all() and (steps > 0.0).all():
            kept = self._lib.rc_compact(
                coeffs.ctypes.data, coeffs.dtype == np.float32, coeffs.shape[2] * 8, rows, cols,
                self._mb_size, steps.ctypes.data, self._block_max.ctypes.data,
                self._cand.ctypes.data, self._start.ctypes.data,
            )
        # No effective QP is below 0, so no step is below 0.625 and no level
        # reaches twice the largest magnitude.
        return kept >= 0 and self._block_max.max() < 2.0**31


@functools.lru_cache(maxsize=16)
def _diagonals(rows: int, cols: int) -> tuple:
    """The wavefront of a grid, built once per shape: per anti-diagonal its
    first block ``(r0, c0)`` — block ``k`` is ``(r0 + k, c0 - k)`` — and the
    reference's index arrays."""
    from repro.codec.intra import _wavefront

    return tuple((int(rs[0]), int(cs[0]), rs, cs) for rs, cs in _wavefront(rows, cols))


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-identity, not equality: tells -0.0 from 0.0 and one NaN from another."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_surfaces(got, want) -> bool:
    """Whether a ``render_surfaces`` answer is the reference's to the bit: the
    id-buffer, every pixel but the sky's (left unset by both) and the
    per-object pixel counts."""
    from repro.world.scene import SKY_ID

    if got is None:
        return False
    (image, ids, counts), (want_image, want_ids, want_counts) = got, want
    painted = want_ids != SKY_ID
    return (
        list(counts) == list(want_counts)
        and _same_bytes(ids, want_ids)
        and _same_bytes(image[painted], want_image[painted])
    )


#: ``pattern_search``'s method ids, and the widest search range its memo's
#: 16-bit key can number: ``(2 * 127 + 1) ** 2 + 1 <= 2 ** 16``.
_ME_METHODS = {"dia": 0, "hex": 1, "umh": 2}
_ME_MAX_RANGE = 127


def _frame_pair(current, reference, block) -> tuple[int, int] | None:
    """The macroblock grid of two frames the C search may walk as they stand —
    float32, C-contiguous, one shape, a plane ``_intra_grid`` takes — else
    ``None``."""
    for frame in (current, reference):
        if not (isinstance(frame, np.ndarray) and frame.dtype == np.float32 and frame.flags.c_contiguous):
            return None
    return _intra_grid(current.shape, block) if current.shape == reference.shape else None


def _noise_terms(seed, scale, octaves) -> tuple[list[float], list[int]]:
    """``value_noise_2d``'s per-octave frequency and seed term (times
    ``PRIME_S``, mod 2^64), formed as the reference forms them — whatever
    numeric type ``scale`` is, any int seed."""
    from repro.utils.noise import _PRIME_S

    freq = 1.0 / scale
    freqs, sterm = [], []
    for octave in range(octaves):
        freqs.append(freq)
        sterm.append(((seed + octave * 7919) * int(_PRIME_S)) & _U64_MASK)
        freq *= 2.0
    return freqs, sterm


#: ``render_surfaces``' texture kinds: the bands of ``object_texture`` (any
#: other kind, poles included, is noise alone).
_SURFACE_KINDS = {"building": 1, "car": 2, "pedestrian": 3}


def _axis_vector(v) -> bool:
    """Whether a plane vector has exactly one non-zero component — then every
    dot product with it is one product, whatever order BLAS sums in."""
    values = np.asarray(v).tolist()
    return isinstance(values, list) and len(values) == 3 and values.count(0.0) == 2


class _CKernels:
    """ctypes call wrappers over one loaded library.

    Holds nothing but the library handle and every call allocates its own
    scratch and outputs, so one instance serves any number of threads.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib

    def pattern_search(self, current, reference, *, method, search_range, block, lambda_mv, subpel):
        """``_pattern_search``: the whole DIA / HEX / UMH search in one call,
        or ``None`` when the reference must answer — frames the C loops could
        not index as they stand, a search range the memo cannot key, a NaN or
        infinite pixel, scratch that could not be allocated."""
        from repro.codec.motion import _umh_offsets

        grid = _frame_pair(current, reference, block)
        if (
            grid is None
            or method not in _ME_METHODS
            or type(search_range) is not int
            or not 0 <= search_range <= _ME_MAX_RANGE
            or not np.isfinite(lambda_mv)
        ):
            return None
        offsets = np.array(_umh_offsets(search_range) if method == "umh" else (), dtype=np.int64)
        mv = np.empty((*grid, 2), dtype=np.float32)
        sad = np.empty(grid, dtype=np.float64)
        if self._lib.pattern_search(
            current.ctypes.data, reference.ctypes.data, *grid, block, search_range,
            _ME_METHODS[method], float(lambda_mv), bool(subpel),
            offsets.ctypes.data, offsets.shape[0], mv.ctypes.data, sad.ctypes.data,
        ):
            return None
        return mv, sad

    def motion_compensate(self, reference, mv, *, block=16):
        from repro.codec.motion import _motion_compensate_reference

        plane = np.ascontiguousarray(reference, dtype=np.float32)
        if not (
            isinstance(mv, np.ndarray)
            and mv.ndim == 3
            and mv.shape[2] == 2
            and _intra_grid(plane.shape, block) == mv.shape[:2]
        ):
            # A field that does not tile the plane: what the reference makes
            # of it (its exceptions included) is the answer.
            return _motion_compensate_reference(reference, mv, block=block)
        rows, cols = mv.shape[0], mv.shape[1]
        rng = int(np.ceil(np.abs(mv).max())) + 2
        mvx = np.ascontiguousarray(mv[..., 0], dtype=np.float64).ravel()
        mvy = np.ascontiguousarray(mv[..., 1], dtype=np.float64).ravel()
        out = np.empty(plane.shape, dtype=np.float32)
        if self._lib.motion_comp(
            plane.ctypes.data, mvx.ctypes.data, mvy.ctypes.data, rng, rows, cols, block, out.ctypes.data
        ):
            return _motion_compensate_reference(reference, mv, block=block)
        return out

    def value_noise(self, x, y, *, seed, scale=1.0, octaves=1):
        """``value_noise_2d``: all octaves and lattice hashes of a point in one pass."""
        from repro.utils.noise import _value_noise_2d_reference

        if scale > 0 and octaves >= 1:
            x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
            out = np.empty(x.shape, dtype=np.float64)
            x = np.ascontiguousarray(x)
            y = np.ascontiguousarray(y)
            freqs, sterm = _noise_terms(seed, scale, octaves)
            freqs = np.array(freqs, dtype=np.float64)
            sterm = np.array(sterm, dtype=np.uint64)
            if not self._lib.value_noise(
                x.ctypes.data, y.ctypes.data, out.size,
                freqs.ctypes.data, sterm.ctypes.data, octaves, out.ctypes.data,
            ):
                return out[()]  # 0-d -> scalar, as the reference's arithmetic yields
        # Parameters the reference rejects (it raises), or a coordinate int64
        # cannot hold (C leaves the cast undefined): the reference answers.
        return _value_noise_2d_reference(x, y, seed=seed, scale=scale, octaves=octaves)

    def render_surfaces(self, dirs, origin, scene, placed):
        """``Renderer.render``'s ground and placed objects in one call, or
        ``None`` when ``_render_surfaces_reference`` must answer — directions
        the C loops could not index as they stand, a window that is not a
        plain slice pair, a face whose normal or u axis is off the world axes
        (every preset object faces ``(1, 0)`` or ``(0, 1)``), an object id the
        id-buffer cannot hold or that repeats, a noise coordinate int64
        cannot hold."""
        from repro.world.texture import _object_tone

        if not (
            isinstance(dirs, np.ndarray)
            and dirs.dtype == np.float64
            and dirs.ndim == 3
            and dirs.shape[2] == 3
            and dirs.flags.c_contiguous
        ):
            return None
        h, w = dirs.shape[:2]
        origin = np.ascontiguousarray(origin, dtype=np.float64)
        if origin.shape != (3,):
            return None
        face, geo, osterm = [], [], []
        seen = set()
        for obj, window, (point, normal, u_dir) in placed:
            rows, cols = window
            if not (isinstance(rows, slice) and isinstance(cols, slice)):
                return None
            y0, y1, sy = rows.indices(h)
            x0, x1, sx = cols.indices(w)
            oid = obj.object_id
            if sy != 1 or sx != 1 or not 2 <= oid < 2**31 or oid in seen:
                return None
            if not (np.shape(point) == (3,) and _axis_vector(normal) and _axis_vector(u_dir)):
                return None
            seen.add(oid)
            face.append((y0, max(y0, y1), x0, max(x0, x1), _SURFACE_KINDS.get(obj.kind, 0), oid))
            num = float((point - origin) @ normal)  # as the reference forms it
            geo.append((num, *point, *normal, *u_dir, obj.width / 2.0, obj.height, *_object_tone(obj.kind)))
            osterm.append(_noise_terms(obj.texture_seed, 0.6, 3)[1])
        face = np.array(face, dtype=np.int64).reshape(-1, 6)
        geo = np.array(geo, dtype=np.float64).reshape(-1, 14)
        osterm = np.array(osterm, dtype=np.uint64).reshape(-1, 3)
        # As ground_texture samples: two octaves at scale 1.5, one at 0.35
        # under seed + 101; then object_texture's three at 0.6.
        base_freq, base_sterm = _noise_terms(scene.texture_seed, 1.5, 2)
        fine_freq, fine_sterm = _noise_terms(scene.texture_seed + 101, 0.35, 1)
        freq = np.array(base_freq + fine_freq + _noise_terms(0, 0.6, 3)[0], dtype=np.float64)
        gsterm = np.array(base_sterm + fine_sterm, dtype=np.uint64)
        image = np.empty((h, w), dtype=np.float64)
        ids = np.empty((h, w), dtype=np.int32)
        counts = np.empty(len(placed), dtype=np.int64)
        if self._lib.render_surfaces(
            dirs.ctypes.data, h, w, origin.ctypes.data, float(scene.max_ground_depth),
            float(scene.weather_contrast), freq.ctypes.data, gsterm.ctypes.data, len(placed),
            face.ctypes.data, geo.ctypes.data, osterm.ctypes.data,
            image.ctypes.data, ids.ctypes.data, counts.ctypes.data,
        ):
            return None
        return image, ids, counts.tolist()

    def intra_encode(self, frame, qp_map, *, block=16):
        """``intra_encode``: per anti-diagonal three C steps around the
        reference's own scipy transforms."""
        from repro.codec.intra import _MODE_BITS, _intra_encode_reference
        from repro.codec.transform import _dct_blocks_reference, idct_blocks, qstep

        pixels = np.ascontiguousarray(frame, dtype=np.float64)
        qp = np.asarray(qp_map, dtype=float)
        grid = _intra_grid(pixels.shape, block)
        if grid is None or qp.shape != grid:
            # The C loops trust their geometry: whatever the reference makes
            # of these arguments (its exceptions included) is the answer.
            return _intra_encode_reference(frame, qp_map, block=block)
        rows, cols = grid
        width = pixels.shape[1]
        recon = np.zeros_like(pixels)
        modes = np.zeros(grid, dtype=np.int8)
        bits_per_mb = np.empty(grid, dtype=np.float64)
        # Block-major (rows*sub, 8, cols*sub, 8) is the frame's own plane layout.
        levels = np.empty((pixels.shape[0] // 8, 8, width // 8, 8), dtype=np.float64)
        best = np.empty(min(grid) * block * block, dtype=np.float64)
        scratch = np.empty(4 * block * block + 2 * block, dtype=np.float64)
        lib = self._lib
        frame_p, recon_p, modes_p = pixels.ctypes.data, recon.ctypes.data, modes.ctypes.data
        levels_p, best_p, scratch_p = levels.ctypes.data, best.ctypes.data, scratch.ctypes.data
        for r0, c0, rs, cs in _diagonals(rows, cols):
            m = rs.size
            plane = np.empty((block, m * block), dtype=np.float64)
            lib.intra_pre(frame_p, recon_p, width, r0, c0, m, block,
                          modes_p, cols, best_p, plane.ctypes.data, scratch_p)
            coeffs = _dct_blocks_reference(plane)
            q = qstep(qp[rs, cs])
            dequantised = np.empty_like(coeffs)
            diag_bits = np.empty(m, dtype=np.float64)
            # The diagonal is a 1 x m grid whose k-th macroblock's levels
            # belong one block row down and one block column left of the last.
            if lib.quant_cost(
                coeffs.ctypes.data, 0, m * block, 1, m, block, q.ctypes.data,
                levels_p + 8 * (r0 * block * width + c0 * block), width,
                0, block * width - block, dequantised.ctypes.data, diag_bits.ctypes.data,
            ):
                # NaN / inf / a level too large to cost in integers.
                return _intra_encode_reference(frame, qp_map, block=block)
            rec_plane = idct_blocks(dequantised)
            lib.intra_post(best_p, rec_plane.ctypes.data, r0, c0, m, block, recon_p, width)
            bits_per_mb[rs, cs] = diag_bits + _MODE_BITS
        return levels, modes, recon, bits_per_mb

    def intra_decode(self, levels, modes, qp_map, *, block=16):
        """``intra_decode``: predict + dequantise in C, the reference's IDCT,
        clip + scatter in C."""
        from repro.codec.intra import _intra_decode_reference
        from repro.codec.transform import idct_blocks, qstep

        grid = None
        if isinstance(levels, np.ndarray) and levels.ndim == 4 and levels.shape[1::2] == (8, 8):
            grid = _intra_grid((levels.shape[0] * 8, levels.shape[2] * 8), block)
        qp = np.asarray(qp_map, dtype=float)
        if (
            grid is None
            or not isinstance(modes, np.ndarray)
            or modes.shape != grid
            or modes.dtype.kind not in "iub"
            or qp.shape != grid
        ):
            return _intra_decode_reference(levels, modes, qp_map, block=block)
        coded = np.ascontiguousarray(levels, dtype=np.float64)
        mode_map = np.ascontiguousarray(modes, dtype=np.int64)
        rows, cols = grid
        width = cols * block
        recon = np.zeros((rows * block, width), dtype=np.float64)
        best = np.empty(min(grid) * block * block, dtype=np.float64)
        edge = np.empty(2 * block, dtype=np.float64)
        lib = self._lib
        levels_p, modes_p, recon_p = coded.ctypes.data, mode_map.ctypes.data, recon.ctypes.data
        best_p, edge_p = best.ctypes.data, edge.ctypes.data
        for r0, c0, rs, cs in _diagonals(rows, cols):
            m = rs.size
            q = qstep(qp[rs, cs])
            dequantised = np.empty((block // 8, 8, m * block // 8, 8), dtype=np.float64)
            if lib.intra_unpre(levels_p, modes_p, cols, q.ctypes.data, recon_p, width,
                               r0, c0, m, block, best_p, dequantised.ctypes.data, edge_p):
                return _intra_decode_reference(levels, modes, qp_map, block=block)
            rec_plane = idct_blocks(dequantised)
            lib.intra_post(best_p, rec_plane.ctypes.data, r0, c0, m, block, recon_p, width)
        return recon

    def quantize_cost(self, coeffs, qp_per_mb, *, mb_size=16):
        """``quantize_cost``: one pass over the coefficients, float32 read in place."""
        from repro.codec.transform import _quantize_cost_reference, qstep

        grid = _block_grid(coeffs, mb_size)
        q = qstep(np.ascontiguousarray(qp_per_mb, dtype=float))
        if grid is not None and q.shape == grid:
            levels = np.empty(coeffs.shape, dtype=np.float64)
            bits_per_mb = np.empty(grid, dtype=np.float64)
            line = coeffs.shape[2] * 8
            if not self._lib.quant_cost(
                coeffs.ctypes.data, coeffs.dtype == np.float32, line, grid[0], grid[1], mb_size,
                q.ctypes.data, levels.ctypes.data, line, mb_size * line, mb_size,
                None, bits_per_mb.ctypes.data,
            ):
                return levels, bits_per_mb
        # Geometry the C loop could not index (the reference raises on it, or
        # reads a layout C does not), or NaN / inf / a level too large to cost
        # in integers: the reference answers.
        return _quantize_cost_reference(coeffs, qp_per_mb, mb_size=mb_size)

    def rate_counter(self, coeffs, offsets, *, mb_size=16, max_qp=51.0):
        """``QuantBitCounter``'s probe, or ``None`` when its NumPy body must
        serve these arguments."""
        grid = _block_grid(coeffs, mb_size)
        offs = np.ascontiguousarray(offsets, dtype=np.float64)
        if grid is None or offs.shape != grid or not max_qp >= 0.0:
            return None
        return _RateCounter(self._lib, coeffs, offs, grid, mb_size, float(max_qp))

    def reconstruct(self, prediction, levels, qp_per_mb, *, mb_size=16):
        """``reconstruct``: dequantise the coded 8x8 blocks only, the
        reference's own IDCT over that compact list, clip + cast in C."""
        from repro.codec.transform import _reconstruct_reference, idct_blocks, qstep

        grid = _block_grid(levels, mb_size, dtypes=(np.float64,))
        q = qstep(np.ascontiguousarray(qp_per_mb, dtype=float))
        if (
            grid is not None
            and q.shape == grid
            and np.isfinite(q).all()  # 0 * inf is NaN: an all-zero block under such a step is not skippable
            and isinstance(prediction, np.ndarray)
            and prediction.dtype == np.float32
            and prediction.shape == (levels.shape[0] * 8, levels.shape[2] * 8)
            and prediction.flags.c_contiguous
        ):
            rows8, cols8 = levels.shape[0], levels.shape[2]
            slot = np.empty(rows8 * cols8, dtype=np.int64)
            # Room for every block; only the coded ones are written (and paged in).
            dequantised = np.empty((rows8 * cols8, 8, 1, 8), dtype=np.float64)
            coded = self._lib.dequant_coded(
                levels.ctypes.data, rows8, cols8, mb_size // 8, q.ctypes.data,
                slot.ctypes.data, dequantised.ctypes.data,
            )
            if coded >= 0:
                # pocketfft transforms every 8-point line on its own, so a
                # block's inverse does not depend on which blocks sit beside it.
                # (With nothing coded no residual is read, whatever is passed.)
                residual = np.ascontiguousarray(idct_blocks(dequantised[:coded])) if coded else dequantised
                out = np.empty(prediction.shape, dtype=np.float32)
                if not self._lib.recon_post(
                    prediction.ctypes.data, slot.ctypes.data, residual.ctypes.data,
                    rows8, cols8, out.ctypes.data,
                ):
                    return out
        # Wrong shape / dtype / stride, an infinite step, a level past the limit,
        # or a -0.0 / NaN prediction pixel under a skipped block: the reference answers.
        return _reconstruct_reference(prediction, levels, qp_per_mb, mb_size=mb_size)

    def self_probe(self) -> str | None:
        """Bitwise-compare every C kernel against its reference.

        Returns the name of the first kernel that disagrees, ``None`` when
        all agree.
        """
        from repro.codec.motion import _motion_compensate_reference, _pattern_search_reference
        from repro.codec.intra import _intra_encode_reference
        from repro.codec.transform import (
            _quantize_cost_reference,
            _reconstruct_reference,
            quantize,
            transform_cost_bits,
        )
        from repro.geometry.camera import CameraIntrinsics
        from repro.utils.noise import _value_noise_2d_reference
        from repro.world import (
            EgoTrajectory,
            Renderer,
            Scene,
            SceneObject,
            StraightSegment,
            TurnSegment,
            building,
            moving_car,
            parked_car,
            pedestrian,
        )
        from repro.world.objects import pole
        from repro.world.renderer import _render_surfaces_reference

        gen = np.random.default_rng(0xCE)
        # Pairwise summation, adversarial magnitudes.
        for n in (49, 64, 200, 256, 1024):
            a = np.exp(gen.normal(0.0, 12.0, size=(64, n)))
            out = np.empty(64, dtype=np.float64)
            self._lib.pairwise_rows(a.ctypes.data, 64, n, out.ctypes.data)
            if not np.array_equal(out, a.sum(axis=1)):
                return f"pairwise_rows (n={n})"
        # The three pattern searches and MC against the reference
        # implementations: content that moved (so the seed grid, the
        # predictors and the window's edge all bite) under noise.
        for block, shape in ((16, (96, 128)), (8, (48, 64))):
            where = f"(block {block})"
            ref = gen.uniform(0, 255, size=shape).astype(np.float32)
            cur = np.roll(ref, (3, -7), axis=(0, 1))
            cur = np.clip(cur + gen.normal(0, 9, size=shape), 0, 255).astype(np.float32)
            for method in _ME_METHODS:
                params = dict(method=method, search_range=10, block=block, lambda_mv=4.0, subpel=True)
                got = self.pattern_search(cur, ref, **params)
                want = _pattern_search_reference(cur, ref, **params)
                if got is None or not all(_same_bytes(g, w) for g, w in zip(got, want)):
                    return f"pattern_search {method} {where}"
            mv = (gen.integers(-28, 29, size=(shape[0] // block, shape[1] // block, 2))
                  * 0.25).astype(np.float32)
            if not np.array_equal(
                self.motion_compensate(ref, mv, block=block),
                _motion_compensate_reference(ref, mv, block=block),
            ):
                return f"motion_comp {where}"
        # Value noise: the renderer's three call shapes over world-sized,
        # lattice-exact, negative and 2^40-scale coordinates, with seeds on
        # both sides of the uint64 wrap.
        px = np.concatenate([gen.uniform(-300.0, 300.0, 1500), gen.integers(-9, 9, 200) * 0.35,
                             gen.normal(0.0, 2.0**40, 300)])
        py = gen.permutation(px) * 0.7
        for seed, scale, octaves in ((11, 1.5, 2), (-(2**70) - 3, 0.35, 1), (2**63 + 101, 0.6, 3)):
            params = dict(seed=seed, scale=scale, octaves=octaves)
            if not np.array_equal(
                self.value_noise(px, py, **params), _value_noise_2d_reference(px, py, **params)
            ):
                return f"value_noise (scale {scale}, octaves {octaves})"
        # The renderer's ground and billboards on a small turning drive: every
        # kind's bands, both facings, a car hiding a pedestrian, objects cut by
        # the frame edge, ground fading into haze, contrasts that clip.
        scene = Scene(
            trajectory=EgoTrajectory([StraightSegment(1.0, 8.0), TurnSegment(1.0, 8.0, 0.3)]),
            objects=[building(-6.0, 20.0, seed=3), building(7.0, 33.0, seed=4), parked_car(1.0, 12.0, seed=5),
                     pedestrian(1.2, 15.0, seed=6), moving_car(-1.75, 25.0, speed=6.0, seed=7),
                     pole(3.0, 9.0, seed=8), pedestrian(-3.3, 6.0, seed=9),
                     SceneObject(kind="building", base=(0.0, 52.0), width=20.0, height=6.0, texture_seed=10)],
            texture_seed=2,
            max_ground_depth=60.0,
        )
        renderer = Renderer(CameraIntrinsics(focal=80.0, width=96, height=64))
        for weather, t in ((1.9, 0.0), (0.55, 1.6)):
            scene.weather_contrast = weather
            _, dirs, origin, placed = renderer._prepare(scene, t)
            if not _same_surfaces(self.render_surfaces(dirs, origin, scene, placed),
                                  _render_surfaces_reference(dirs, origin, scene, placed)):
                return f"render_surfaces (weather {weather}, t {t})"
        # The P-frame's transform tail on a 3 x 4 grid: coefficients on a
        # lattice of half steps (every rounding tie) and spread over decades,
        # two thirds of the blocks empty, one holding a single coefficient
        # and one only negative zeros; float64 and float32; QP maps that are
        # fractional, saturated at 0 / 51, and sixes (exact power-of-two steps).
        lattice = gen.integers(-9, 10, size=(6, 8, 8, 8)) * 0.3125
        wide = gen.normal(0.0, 1.0, size=(6, 8, 8, 8)) * np.exp(gen.normal(0.0, 2.5, size=(6, 8, 8, 8)))
        keep = gen.uniform(size=(6, 1, 8, 1)) < 0.35
        keep[0, 0, :2, 0] = True
        tail_cases = []
        for tag, coeffs in (("lattice", lattice), ("wide", wide)):
            coeffs = np.where(keep, coeffs, 0.0)
            coeffs[0, :, 0, :] = 0.0
            coeffs[0, 3, 0, 5] = 40.0
            coeffs[0, :, 1, :] = -0.0
            fractional = gen.uniform(0.0, 51.0, size=(3, 4))
            saturated = np.where(fractional < 17.0, 0.0, np.where(fractional > 34.0, 51.0, fractional))
            tail_cases += [
                (f"{tag} float64, sixes", coeffs, gen.integers(0, 4, size=(3, 4)) * 6.0),
                (f"{tag} float32, fractional", coeffs.astype(np.float32), fractional),
                (f"{tag} float64, saturated", coeffs, saturated),
            ]
        for where, coeffs, qp in tail_cases:
            want = _quantize_cost_reference(coeffs, qp)
            if not all(_same_bytes(g, w) for g, w in zip(self.quantize_cost(coeffs, qp), want)):
                return f"quantize_cost ({where})"
            # As rate control walks: down inside what the first compaction
            # covers, up, then far enough down to compact again.
            offsets = qp - 20.0
            probe = self.rate_counter(coeffs, offsets)
            for base in (30.0, 27.0, 25.5, 34.0, 51.0, 12.0, 8.0, 0.0, 19.0):
                want_levels = quantize(coeffs, np.clip(base + offsets, 0.0, 51.0))
                if probe(base) != float(transform_cost_bits(want_levels).sum()):
                    return f"rate_counter ({where}, QP {base:g})"
            # Predictions that clip at both ends and sit on the bounds, under
            # the coded levels, under none and under a level in every block.
            prediction = gen.uniform(-40.0, 295.0, size=(48, 64)).astype(np.float32)
            prediction[gen.uniform(size=(48, 64)) < 0.1] = 0.0
            prediction[gen.uniform(size=(48, 64)) < 0.1] = 255.0
            for levels in (want[0], np.zeros_like(want[0]), want[0] + 1.0):
                if not _same_bytes(self.reconstruct(prediction, levels, qp),
                                   _reconstruct_reference(prediction, levels, qp)):
                    return f"reconstruct ({where})"
        # I-frame wavefront, both directions: every border shape (one block,
        # one row, one column, ragged), content where all three SADs tie
        # (flat), where H or V wins (ramp), exact arithmetic (steps) and
        # noise, under fractional and 0/51-saturated QP maps.
        yy, xx = np.mgrid[0:48, 0:64]
        contents = {
            "flat": np.full((48, 64), 77.0),
            "ramp": (xx * 2.75 + (yy // 7) * 9.5) % 256.0,
            "steps": gen.integers(0, 8, size=(48, 64)) * 32.0,
            "noise": gen.uniform(0.0, 255.0, size=(48, 64)),
        }
        cases = ((16, (1, 1), "flat"), (16, (1, 4), "ramp"), (16, (3, 1), "steps"),
                 (16, (2, 3), "noise"), (8, (2, 2), "flat"), (8, (2, 3), "noise"))
        for block, (rows, cols), content in cases:
            where = f"(block {block}, {rows}x{cols} {content})"
            frame = contents[content][: rows * block, : cols * block]
            qp = gen.uniform(0.0, 51.0, size=(rows, cols))
            if content in ("flat", "steps"):
                qp = np.where(qp < 17.0, 0.0, np.where(qp > 34.0, 51.0, qp))
            want = _intra_encode_reference(frame, qp, block=block)
            got = self.intra_encode(frame, qp, block=block)
            if not all(_same_bytes(g, w) for g, w in zip(got, want)):
                return f"intra_encode {where}"
            levels, modes, recon, _ = want
            if not _same_bytes(self.intra_decode(levels, modes, qp, block=block), recon):
                return f"intra_decode {where}"
        return None


class CExtBackend(KernelBackend):
    """Compiled-C pattern search, motion compensation, value noise, the
    renderer's surfaces (``render_surfaces``), the I-frame wavefront
    (``intra_encode`` / ``intra_decode``) and the P-frame's transform tail
    (``quantize_cost`` / ``rate_counter`` / ``reconstruct``), self-probed."""

    name = "cext"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._checked = False
        self._reason: str | None = None

    def available(self) -> bool:
        # Build + probe exactly once however many threads ask first.
        with self._lock:
            if not self._checked:
                self._reason = self._check()
                self._checked = True
            return self._reason is None

    def why_unavailable(self) -> str | None:
        with self._lock:
            return self._reason

    def _check(self) -> str | None:
        """Build, load and probe; bind the hooks or return why not."""
        try:
            kernels = _CKernels(_build_library())
        except (_Unavailable, OSError) as exc:  # OSError: full disk, read-only cache
            return str(exc)
        # Pinned to the reference, the oracles compare against numpy alone
        # and a dispatching call inside one cannot re-enter this (locked)
        # check through the registry's default resolution.
        with use_backend("numpy"):
            failed = kernels.self_probe()
        if failed is not None:
            return f"self-probe: {failed} differs bitwise from the reference"
        # Hooks are bound only once the probe has passed.
        self.pattern_search = kernels.pattern_search
        self.motion_compensate = kernels.motion_compensate
        self.value_noise = kernels.value_noise
        self.render_surfaces = kernels.render_surfaces
        self.intra_encode = kernels.intra_encode
        self.intra_decode = kernels.intra_decode
        self.quantize_cost = kernels.quantize_cost
        self.rate_counter = kernels.rate_counter
        self.reconstruct = kernels.reconstruct
        return None
