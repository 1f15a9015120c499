"""Block-matching motion estimation.

Implements the five x264 motion-estimation methods the paper compares in
Fig 9 — diamond (DIA), hexagon (HEX), uneven multi-hexagon (UMH),
exhaustive (ESA) and transformed exhaustive (TESA) — over square
macroblocks, with sub-pixel refinement.

Motion-vector convention (see DESIGN.md): the MV ``(dx, dy)`` of a
macroblock is the displacement of its *content* from the reference frame to
the current frame; the prediction block is read from the reference at the
block position minus the MV.  Under forward ego motion, static-scene MVs
therefore point away from the focus of expansion.

Like a real encoder, the search minimises ``SAD + lambda * mv_bits`` where
``mv_bits`` is an exp-Golomb cost of the MV relative to the median
predictor of the left/top/top-right neighbours.  The pattern searches (DIA,
HEX, UMH) start near the predictor and inherit its spatial smoothness; the
exhaustive searches find global SAD minima, which — exactly as the paper
observes — makes their MV fields *noisier* on repetitive texture, not
better, because minimal residual is not the same thing as true object
matching.

Implementation note: the pattern searches are *block-parallel* — every
macroblock walks its pattern simultaneously, and each candidate offset is
evaluated for all blocks with one fancy-indexed gather.  Predictors
therefore come from a first zero-start pass rather than a causal raster
scan (a two-pass scheme, much like an encoder lookahead).  Sub-pixel
precision comes from a parabolic fit through the SAD of the +-1-pixel
neighbours of the integer winner, skipped for zero-MV blocks whose SAD is
already skip-level so that the non-zero-MV ratio stays a clean ego-motion
signal.  A kernel backend runs that same search — pass for pass, to the
byte — as one ``pattern_search`` call, block by block inside each pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import kernels
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.utils.integral import block_reduce_sum, shifted_window

__all__ = ["ME_METHODS", "MotionEstimate", "estimate_motion", "motion_compensate", "nonzero_mv_ratio"]

ME_METHODS = ("dia", "hex", "umh", "esa", "tesa")

_LARGE_HEX = ((-2, 0), (-1, -2), (1, -2), (2, 0), (1, 2), (-1, 2))
_SMALL_DIAMOND = ((0, -1), (-1, 0), (1, 0), (0, 1))
#: SAD per pixel below which a zero-MV block counts as "skip" (static).
_SKIP_SAD_PER_PIXEL = 1.5


@dataclass
class MotionEstimate:
    """Result of motion estimation for one frame.

    Attributes
    ----------
    mv:
        ``(rows, cols, 2)`` float array of per-macroblock ``(dx, dy)``
        (quarter-pel-scale precision from the parabolic refinement).
    sad:
        ``(rows, cols)`` SAD of each macroblock under its integer MV.
    method:
        Search method used.
    elapsed:
        Wall-clock seconds spent searching (the Fig 9/10 time-cost metric).
    """

    mv: np.ndarray
    sad: np.ndarray
    method: str
    elapsed: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.mv.shape[0], self.mv.shape[1]


def _mv_bits_vec(dx: np.ndarray, dy: np.ndarray, pred_x: np.ndarray, pred_y: np.ndarray) -> np.ndarray:
    """Vectorised exp-Golomb-style MV bit cost against per-block predictors.

    Per axis the cost is ``1 + 2*floor(log2(2|d - pred| + 1))`` bits; both
    axis terms are exact small integers in float64, so fusing them into one
    expression is bit-identical to accumulating them one axis at a time.
    """
    vx = np.abs(dx - pred_x)
    vy = np.abs(dy - pred_y)
    return 2.0 + 2.0 * (np.floor(np.log2(2.0 * vx + 1.0)) + np.floor(np.log2(2.0 * vy + 1.0)))


class _BlockSadEvaluator:
    """Per-block SAD at arbitrary per-block displacements, vectorised.

    One call evaluates a candidate displacement for *every* macroblock via
    a single flat-indexed gather from the padded reference frame.  Gather
    indices and the difference buffer are preallocated once and reused
    across calls — the pattern searches fire hundreds of small evaluations
    per frame, so per-call allocation dominates otherwise (lint rule S011).
    The arithmetic (gather, subtract, abs, per-block contiguous sum) is
    identical operation-for-operation to a per-block fancy-indexed version,
    so SAD values are bit-exact either way.  Pure NumPy under every kernel
    backend: the reference search and ESA / TESA (padding, gather, sub-pel
    fit) run on it.
    """

    def __init__(self, current: np.ndarray, reference: np.ndarray, search_range: int, block: int):
        self.block = block
        self.pad = search_range + 2  # +2 headroom for subpel neighbours
        self.search_range = search_range
        h, w = current.shape
        self.rows = h // block
        self.cols = w // block
        self.n = self.rows * self.cols
        self.ref_pad = np.pad(reference.astype(np.float64), self.pad, mode="edge")
        cur = current.astype(np.float64)
        self.cur_blocks = (
            cur.reshape(self.rows, block, self.cols, block).transpose(0, 2, 1, 3).reshape(self.n, block, block)
        )
        by = (np.arange(self.rows) * block).repeat(self.cols)
        bx = np.tile(np.arange(self.cols) * block, self.rows)
        self.by = by
        self.bx = bx
        # Gather machinery: every aligned block-sized window of the padded
        # reference as a zero-copy strided view.  The window at
        # ``(pad + by - dy, pad + bx - dx)`` holds exactly the pixels the
        # flat ``np.take`` gather used to copy, so one advanced index on the
        # view is the whole reference-block fetch.
        self._windows = sliding_window_view(self.ref_pad, (block, block))
        self._diff_buf3 = np.empty((self.n, block, block), dtype=np.float64)
        self._cur_buf3 = np.empty_like(self._diff_buf3)
        self._by_buf = np.empty(self.n, dtype=np.int64)
        self._bx_buf = np.empty(self.n, dtype=np.int64)
        #: Last subset whose current-frame blocks (and block origins) were
        #: gathered into the subset buffers.  The pattern searches evaluate
        #: many displacements against one unchanged active set, so keying
        #: the gather on array identity (the reference we hold keeps the id
        #: stable) skips the copy on every call but the first.  Callers must
        #: not mutate a subset index array in place between calls.
        self._subset_idx: np.ndarray | None = None

    def sad_int(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """SAD of every block at its own integer displacement."""
        ref = self._windows[self.pad + self.by - dy, self.pad + self.bx - dx]
        np.subtract(self.cur_blocks, ref, out=self._diff_buf3)
        np.abs(self._diff_buf3, out=self._diff_buf3)
        return self._diff_buf3.sum(axis=(1, 2))

    def sad_int_subset(self, idx: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """SAD for a subset of blocks (``idx`` flat indices)."""
        m = idx.shape[0]
        cur = self._cur_buf3[:m]
        if idx is not self._subset_idx:
            np.take(self.cur_blocks, idx, axis=0, out=cur)
            np.take(self.by, idx, out=self._by_buf[:m])
            np.take(self.bx, idx, out=self._bx_buf[:m])
            self._subset_idx = idx
        ref = self._windows[self.pad + self._by_buf[:m] - dy, self.pad + self._bx_buf[:m] - dx]
        diff = self._diff_buf3[:m]
        np.subtract(cur, ref, out=diff)
        np.abs(diff, out=diff)
        return diff.sum(axis=(1, 2))


def _median_predictors(mv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Median of left / top / top-right neighbour MVs for every block."""
    left = np.zeros_like(mv)
    left[:, 1:] = mv[:, :-1]
    top = np.zeros_like(mv)
    top[1:, :] = mv[:-1, :]
    topright = np.zeros_like(mv)
    topright[1:, :-1] = mv[:-1, 1:]
    stacked = np.stack([left, top, topright], axis=0).astype(np.float64)
    preds = np.median(stacked, axis=0)
    return np.round(preds[..., 0]).ravel(), np.round(preds[..., 1]).ravel()


def _descend(
    ev: _BlockSadEvaluator,
    pattern: tuple[tuple[int, int], ...],
    dx: np.ndarray,
    dy: np.ndarray,
    cost: np.ndarray,
    pred_x: np.ndarray,
    pred_y: np.ndarray,
    lambda_mv: float,
    *,
    max_iter: int = 16,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Move every block's pattern until no block improves.

    Keeps an *active set*: once a block fails to improve through a full
    pattern sweep it drops out, so later iterations only pay for the
    wavefront of still-moving blocks.
    """
    rng = ev.search_range
    active = np.arange(ev.n)
    for _ in range(max_iter):
        if active.size == 0:
            break
        improved_mask = np.zeros(active.size, dtype=bool)
        # Per-offset work below only depends on the active set through
        # these gathers, so they are hoisted out of the pattern loop (the
        # per-block values are unchanged across offsets — bit-identical).
        px = pred_x[active]
        py = pred_y[active]
        for ox, oy in pattern:
            cx = dx[active] + ox
            cy = dy[active] + oy
            valid = (np.abs(cx) <= rng) & (np.abs(cy) <= rng)
            # minimum(maximum(...)) is np.clip's own definition — same
            # values without the dispatch overhead of the clip wrapper.
            sad = ev.sad_int_subset(
                active,
                np.minimum(np.maximum(cx, -rng), rng),
                np.minimum(np.maximum(cy, -rng), rng),
            )
            cand = sad + lambda_mv * _mv_bits_vec(cx, cy, px, py)
            cand[~valid] = np.inf
            better = cand < cost[active] - 1e-9
            if better.any():
                sel = active[better]
                dx[sel] = cx[better]
                dy[sel] = cy[better]
                cost[sel] = cand[better]
                improved_mask |= better
        active = active[improved_mask]
    return dx, dy, cost


def _try_candidates(
    ev: _BlockSadEvaluator,
    cands: list[tuple[np.ndarray, np.ndarray]],
    dx: np.ndarray,
    dy: np.ndarray,
    cost: np.ndarray,
    pred_x: np.ndarray,
    pred_y: np.ndarray,
    lambda_mv: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = ev.search_range
    for cx, cy in cands:
        cx = np.clip(np.asarray(cx, dtype=np.int64), -rng, rng)
        cy = np.clip(np.asarray(cy, dtype=np.int64), -rng, rng)
        cand = ev.sad_int(cx, cy) + lambda_mv * _mv_bits_vec(cx, cy, pred_x, pred_y)
        better = cand < cost - 1e-9
        dx = np.where(better, cx, dx)
        dy = np.where(better, cy, dy)
        cost = np.where(better, cand, cost)
    return dx, dy, cost


@lru_cache(maxsize=None)
def _umh_offsets(search_range: int) -> tuple[tuple[int, int], ...]:
    """UMH's extra coverage: unsymmetrical cross + uneven multi-hexagon."""
    offsets: list[tuple[int, int]] = []
    for ox in range(-search_range, search_range + 1, 2):
        if ox:
            offsets.append((ox, 0))
    for oy in range(-search_range // 2, search_range // 2 + 1, 2):
        if oy:
            offsets.append((0, oy))
    for radius in range(1, max(search_range // 4, 1) + 1):
        for k in range(16):
            ang = 2 * np.pi * k / 16
            ox = int(round(radius * 2 * np.cos(ang)))
            oy = int(round(radius * 2 * np.sin(ang)))
            if (ox, oy) != (0, 0):
                offsets.append((ox, oy))
    return tuple(offsets)


def _parabolic_subpel(
    ev: _BlockSadEvaluator,
    dx: np.ndarray,
    dy: np.ndarray,
    sad0: np.ndarray,
    block: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sub-pixel offset per block from a parabola through the SAD surface.

    Fits 1-D parabolas through (SAD(-1), SAD(0), SAD(+1)) along x and y and
    takes each parabola's vertex, clamped to +-0.5 px.  Zero-MV blocks with
    skip-level SAD keep their exact zero so eta stays clean.
    """
    rng = ev.search_range
    # Skip blocks that need no refinement: static skip-level blocks (keeps
    # eta clean) and near-perfect integer matches (the true minimum *is*
    # the integer position).
    skip = ((dx == 0) & (dy == 0) & (sad0 <= _SKIP_SAD_PER_PIXEL * block * block)) | (
        sad0 <= 0.05 * block * block
    )
    off_x = np.zeros(dx.shape, dtype=np.float64)
    off_y = np.zeros(dx.shape, dtype=np.float64)
    live = np.flatnonzero(~skip)
    # The four +-1-pixel neighbour SADs are only needed for blocks being
    # refined; on a static scene every block is skip-level and the whole
    # refinement is four avoided frame-size evaluations.
    if live.size:
        dxl = dx[live]
        dyl = dy[live]
        sad0l = sad0[live]
        sxm = ev.sad_int_subset(live, np.clip(dxl - 1, -rng, rng), dyl)
        sxp = ev.sad_int_subset(live, np.clip(dxl + 1, -rng, rng), dyl)
        sym = ev.sad_int_subset(live, dxl, np.clip(dyl - 1, -rng, rng))
        syp = ev.sad_int_subset(live, dxl, np.clip(dyl + 1, -rng, rng))

        def vertex(sm: np.ndarray, sp: np.ndarray) -> np.ndarray:
            denom = sm - 2.0 * sad0l + sp
            with np.errstate(divide="ignore", invalid="ignore"):
                off = 0.5 * (sm - sp) / denom
            off = np.where((denom > 1e-9) & np.isfinite(off), off, 0.0)
            return np.clip(off, -0.5, 0.5)

        off_x[live] = vertex(sxm, sxp)
        off_y[live] = vertex(sym, syp)
    return np.clip(dx + off_x, -rng, rng), np.clip(dy + off_y, -rng, rng)


def _pattern_search(
    current: np.ndarray,
    reference: np.ndarray,
    *,
    method: str,
    search_range: int,
    block: int,
    lambda_mv: float,
    subpel: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The DIA / HEX / UMH search, ``(mv, sad)`` — the active kernel backend's
    whole-search hook when it has one and takes these arguments (it returns
    ``None`` for what it cannot prove), else the reference below."""
    params = dict(method=method, search_range=search_range, block=block, lambda_mv=lambda_mv, subpel=subpel)
    impl = kernels.override("pattern_search")
    out = None if impl is None else impl(current, reference, **params)
    return _pattern_search_reference(current, reference, **params) if out is None else out


def _pattern_search_reference(
    current: np.ndarray,
    reference: np.ndarray,
    *,
    method: str,
    search_range: int,
    block: int,
    lambda_mv: float,
    subpel: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference implementation of :func:`_pattern_search`: every block walks
    its pattern at once, one batched SAD evaluation per candidate offset."""
    ev = _BlockSadEvaluator(current, reference, search_range, block)
    n = ev.n
    zero = np.zeros(n, dtype=np.int64)
    pattern = _SMALL_DIAMOND if method == "dia" else _LARGE_HEX

    # Pass 1: zero start, zero predictor.  HEX/UMH additionally seed from a
    # coarse displacement grid so large coherent motion (frame bottom under
    # fast ego translation) is found even without causal predictors — the
    # role x264's sequential predictor chain plays.
    cost = ev.sad_int(zero, zero) + lambda_mv * _mv_bits_vec(zero, zero, zero, zero)
    dx, dy = zero.copy(), zero.copy()
    if method in ("hex", "umh"):
        # Seed only blocks whose zero-MV match is poor — the ones that
        # actually moved far (frame bottom under fast ego translation).
        need = np.flatnonzero(cost > 2.0 * block * block)
        if need.size:
            steps = [s for s in range(-search_range, search_range + 1, max(search_range // 2, 4))]
            grid = [(ox, oy) for ox in steps for oy in steps if (ox, oy) != (0, 0)]
            for ox, oy in grid:
                cdx = np.full(need.size, ox, dtype=np.int64)
                cdy = np.full(need.size, oy, dtype=np.int64)
                sad = ev.sad_int_subset(need, cdx, cdy)
                cand = sad + lambda_mv * _mv_bits_vec(cdx, cdy, zero[need], zero[need])
                better = cand < cost[need] - 1e-9
                sel = need[better]
                dx[sel] = ox
                dy[sel] = oy
                cost[sel] = cand[better]
    dx, dy, cost = _descend(ev, pattern, dx, dy, cost, zero, zero, lambda_mv)
    if method in ("hex", "umh"):
        dx, dy, cost = _descend(ev, _SMALL_DIAMOND, dx, dy, cost, zero, zero, lambda_mv)

    # Pass 2 (repeated): median predictors from the previous sweep act as
    # the encoder lookahead; good vectors propagate to their neighbours.
    for _ in range(2):
        mv1 = np.stack([dx, dy], axis=-1).reshape(ev.rows, ev.cols, 2)
        pred_x, pred_y = _median_predictors(mv1)
        pred_x = pred_x.astype(np.int64)
        pred_y = pred_y.astype(np.int64)
        cost = ev.sad_int(dx, dy) + lambda_mv * _mv_bits_vec(dx, dy, pred_x, pred_y)
        dx, dy, cost = _try_candidates(
            ev, [(zero, zero), (pred_x, pred_y)], dx, dy, cost, pred_x, pred_y, lambda_mv
        )
        if method == "umh":
            # The uneven cross + multi-hexagon sweep, applied to blocks the
            # cheaper stages left with a poor match.
            need = np.flatnonzero(cost > 1.5 * block * block)
            for ox, oy in _umh_offsets(search_range) if need.size else ():
                cx = np.clip(dx[need] + ox, -search_range, search_range)
                cy = np.clip(dy[need] + oy, -search_range, search_range)
                sad = ev.sad_int_subset(need, cx, cy)
                cand = sad + lambda_mv * _mv_bits_vec(cx, cy, pred_x[need], pred_y[need])
                better = cand < cost[need] - 1e-9
                sel = need[better]
                dx[sel] = cx[better]
                dy[sel] = cy[better]
                cost[sel] = cand[better]
        dx, dy, cost = _descend(ev, pattern, dx, dy, cost, pred_x, pred_y, lambda_mv)
        if method in ("hex", "umh"):
            dx, dy, cost = _descend(ev, _SMALL_DIAMOND, dx, dy, cost, pred_x, pred_y, lambda_mv)

    sad0 = ev.sad_int(dx, dy)
    if subpel:
        fx, fy = _parabolic_subpel(ev, dx, dy, sad0, block)
    else:
        fx, fy = dx.astype(np.float64), dy.astype(np.float64)
    mv = np.stack([fx, fy], axis=-1).reshape(ev.rows, ev.cols, 2).astype(np.float32)
    return mv, sad0.reshape(ev.rows, ev.cols)


@lru_cache(maxsize=None)
def _hadamard_matrix(n: int) -> np.ndarray:
    """Hadamard basis of order ``n`` (powers of two), memoised read-only."""
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def _exhaustive_search(
    current: np.ndarray,
    reference: np.ndarray,
    *,
    search_range: int,
    block: int,
    lambda_mv: float,
    transformed: bool,
    subpel: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Displacement-major full search (ESA), optionally with an SATD
    re-ranking of the top candidates (TESA).

    Both build the exact cost volume: one whole-frame SAD map per
    displacement (dy-major, dx-minor) plus the MV-bit penalty against the
    zero predictor (exhaustive search scans a fixed window, so no causal
    predictor exists while the costs are accumulated).  ESA takes the
    volume's ``argmin`` (first occurrence breaks ties); TESA re-ranks each
    block's five cheapest candidates by SATD, as x264 does.
    """
    ev = _BlockSadEvaluator(current, reference, search_range, block)
    cur64 = current.astype(np.float64)
    side = 2 * search_range + 1
    span = np.arange(-search_range, search_range + 1, dtype=np.int64)
    disp_arr = np.stack([np.tile(span, side), span.repeat(side)], axis=1)  # dx minor, dy major
    penalty = lambda_mv * _mv_bits_vec(disp_arr[:, 0], disp_arr[:, 1], 0, 0)
    sads = np.empty((side * side, ev.rows, ev.cols), dtype=np.float64)
    for i, (dx, dy) in enumerate(disp_arr):
        shifted = shifted_window(ev.ref_pad, dx, dy, ev.pad, cur64.shape)
        sads[i] = block_reduce_sum(np.abs(cur64 - shifted), block)
    costs = sads + penalty[:, None, None]

    if transformed:
        # With a zero search range the one displacement is the only candidate.
        cand = np.argpartition(costs, min(5, side * side - 1), axis=0)[:5].reshape(-1, ev.n)
        # One batched gather of every (candidate, block) reference block,
        # then one batched SATD: matmul and abs-sum per (candidate, block)
        # pair exactly as a scalar loop applies them per block.
        ref_blocks = ev._windows[ev.pad + ev.by - disp_arr[cand, 1], ev.pad + ev.bx - disp_arr[cand, 0]]
        had = _hadamard_matrix(block)
        satd = np.abs(had @ (ev.cur_blocks - ref_blocks) @ had.T).sum(axis=(2, 3)) / block
        # argmin takes the first occurrence along the partition order —
        # the same winner a sequential strict-< scan keeps.
        best = cand[np.argmin(satd + penalty[cand], axis=0), np.arange(ev.n)]
    else:
        best = np.argmin(costs, axis=0).ravel()
    sad = sads.reshape(len(sads), ev.n)[best, np.arange(ev.n)]
    dx, dy = disp_arr[best].T
    if subpel:
        dx, dy = _parabolic_subpel(ev, dx, dy, sad, block)
    mv = np.stack([dx, dy], axis=-1).reshape(ev.rows, ev.cols, 2).astype(np.float32)
    return mv, sad.reshape(ev.rows, ev.cols)


def estimate_motion(
    current: np.ndarray,
    reference: np.ndarray,
    *,
    method: str = "hex",
    search_range: int = 16,
    block: int = 16,
    lambda_mv: float = 4.0,
    subpel: bool = True,
    tracer: Tracer | NullTracer = NULL_TRACER,
) -> MotionEstimate:
    """Estimate the per-macroblock motion field of ``current`` w.r.t. ``reference``.

    Parameters
    ----------
    current, reference:
        Grayscale frames, dimensions multiples of ``block``.
    method:
        One of :data:`ME_METHODS`.
    search_range:
        Maximum MV magnitude per axis, pixels.
    block:
        Macroblock size (16, as in the paper).
    lambda_mv:
        Rate weight on MV bits (finite, >= 0); larger values give smoother
        MV fields.
    subpel:
        Refine each MV to sub-pixel precision (parabolic SAD fit), as real
        codecs do with quarter-pel search.  DiVE's geometry (normalised
        magnitudes, FOE consistency) needs the precision; disable only for
        speed studies.
    tracer:
        Observability hook: the search is timed as span ``"me"`` and, when
        tracing is enabled, the field's non-zero-MV ratio (the paper's eta)
        and mean SAD are recorded as gauges.
    """
    if method not in ME_METHODS:
        raise ValueError(f"unknown motion estimation method {method!r}; choose from {ME_METHODS}")
    if search_range < 0:
        raise ValueError(f"search_range must be >= 0, got {search_range}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    if not 0 <= lambda_mv < np.inf:
        # NaN / inf would silently turn the search off, a negative weight reward long vectors.
        raise ValueError(f"lambda_mv must be finite and >= 0, got {lambda_mv}")
    if method == "tesa" and block & (block - 1):
        raise ValueError(f"tesa needs a power-of-two block (Hadamard SATD), got block {block}")
    current = np.asarray(current, dtype=np.float32)
    reference = np.asarray(reference, dtype=np.float32)
    if current.shape != reference.shape:
        raise ValueError("current and reference frames must have the same shape")
    if current.shape[0] % block or current.shape[1] % block:
        raise ValueError(f"frame shape {current.shape} not a multiple of block {block}")
    start = time.perf_counter()
    with tracer.span("me"):
        if method in ("esa", "tesa"):
            mv, sad = _exhaustive_search(
                current,
                reference,
                search_range=search_range,
                block=block,
                lambda_mv=lambda_mv,
                transformed=(method == "tesa"),
                subpel=subpel,
            )
        else:
            mv, sad = _pattern_search(
                current,
                reference,
                method=method,
                search_range=search_range,
                block=block,
                lambda_mv=lambda_mv,
                subpel=subpel,
            )
    elapsed = time.perf_counter() - start
    if tracer.enabled:
        tracer.gauge("me_nonzero_ratio", nonzero_mv_ratio(mv))
        tracer.gauge("me_sad_mean", float(sad.mean()))
    return MotionEstimate(mv=mv, sad=sad, method=method, elapsed=elapsed)


def interpolated_block(
    ref_pad: np.ndarray, by: int, bx: int, dx: float, dy: float, rng_pad: int, block: int
) -> np.ndarray:
    """Reference block for a (possibly fractional) MV, bilinear-interpolated.

    ``ref_pad`` is the reference padded by ``rng_pad`` on every side; the
    returned block predicts the macroblock at ``(by, bx)`` under content
    displacement ``(dx, dy)``.
    """
    fdx, fdy = int(np.floor(dx)), int(np.floor(dy))
    ax, ay = dx - fdx, dy - fdy
    base_r = by - fdy + rng_pad
    base_c = bx - fdx + rng_pad
    p00 = ref_pad[base_r : base_r + block, base_c : base_c + block]
    if ax == 0.0 and ay == 0.0:
        return p00
    p01 = ref_pad[base_r : base_r + block, base_c - 1 : base_c - 1 + block]
    p10 = ref_pad[base_r - 1 : base_r - 1 + block, base_c : base_c + block]
    p11 = ref_pad[base_r - 1 : base_r - 1 + block, base_c - 1 : base_c - 1 + block]
    return (
        (1 - ay) * (1 - ax) * p00
        + (1 - ay) * ax * p01
        + ay * (1 - ax) * p10
        + ay * ax * p11
    )


def motion_compensate(reference: np.ndarray, mv: np.ndarray, *, block: int = 16) -> np.ndarray:
    """Build the motion-compensated prediction of a frame.

    Each macroblock is sampled from the reference at its position displaced
    by minus its MV (the content moved *by* the MV to get here); fractional
    MVs use bilinear interpolation, matching the sub-pixel search.
    """
    impl = kernels.override("motion_compensate")
    out = None if impl is None else impl(reference, mv, block=block)
    return _motion_compensate_reference(reference, mv, block=block) if out is None else out


def _motion_compensate_reference(
    reference: np.ndarray,
    mv: np.ndarray,
    *,
    block: int = 16,
) -> np.ndarray:
    """Reference implementation of :func:`motion_compensate`."""
    reference = np.asarray(reference, dtype=np.float32)
    rows, cols = mv.shape[0], mv.shape[1]
    rng = int(np.ceil(np.abs(mv).max())) + 2
    ref_pad = np.pad(reference.astype(np.float64), rng, mode="edge")
    w = reference.shape[1]
    n = rows * cols
    # One sliding-window gather per bilinear tap instead of a Python loop
    # over macroblocks; integer MVs need only the single p00 tap.  Tap
    # positions and blend weights replicate interpolated_block exactly, so
    # each output pixel is the same float64 value (and the same float32
    # after the final cast) the per-block loop produced.
    mvx = mv[..., 0].astype(np.float64).ravel()
    mvy = mv[..., 1].astype(np.float64).ravel()
    fdx = np.floor(mvx).astype(np.int64)
    fdy = np.floor(mvy).astype(np.int64)
    ax = mvx - fdx
    ay = mvy - fdy
    by = (np.arange(rows) * block).repeat(cols)
    bx = np.tile(np.arange(cols) * block, rows)
    win = sliding_window_view(ref_pad, (block, block))
    r00 = by - fdy + rng
    c00 = bx - fdx + rng
    blocks = win[r00, c00]
    frac = np.flatnonzero((ax != 0.0) | (ay != 0.0))
    if frac.size:
        rf = r00[frac]
        cf = c00[frac]
        p00 = blocks[frac]
        p01 = win[rf, cf - 1]
        p10 = win[rf - 1, cf]
        p11 = win[rf - 1, cf - 1]
        axf = ax[frac][:, None, None]
        ayf = ay[frac][:, None, None]
        blocks[frac] = (
            (1 - ayf) * (1 - axf) * p00
            + (1 - ayf) * axf * p01
            + ayf * (1 - axf) * p10
            + ayf * axf * p11
        )
    return (
        blocks.reshape(rows, cols, block, block)
        .transpose(0, 2, 1, 3)
        .reshape(rows * block, w)
        .astype(np.float32)
    )


def nonzero_mv_ratio(mv: np.ndarray) -> float:
    """Fraction of macroblocks with a non-zero motion vector.

    This is the paper's ego-motion statistic eta (Section III-B2, Fig 6).
    """
    nonzero = np.any(mv != 0, axis=-1)
    return float(nonzero.mean())
