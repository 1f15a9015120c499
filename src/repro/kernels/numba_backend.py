"""Optional numba-JIT backend for the pattern-search sweeps and MC.

Same per-block sequential algorithms as the ``cext`` backend, expressed as
``@njit`` functions: NumPy's pairwise summation for the SAD reductions,
integer bit-length for the MV bit costs, and the reference's exact IEEE
operation order for the bilinear motion-compensation taps (``fastmath``
stays off — it would license reassociation and FMA contraction, either of
which breaks bitwise agreement).

``numba`` is an optional dependency: when the import fails the backend
simply reports unavailable with the reason, and nothing else in the
package notices.  When it *is* present, activation JIT-warms every kernel
and runs the same bitwise self-probe as ``cext``; a mismatch (e.g. an LLVM
build that contracts anyway) marks the backend unavailable rather than
shipping wrong-but-fast results.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import KernelBackend

__all__ = ["NumbaBackend"]

try:  # optional dependency — never required
    from numba import njit

    _NUMBA_ERR: str | None = None
except Exception as exc:  # pragma: no cover - depends on host
    njit = None
    _NUMBA_ERR = f"numba not importable: {exc!r}"


def _build_kernels():
    """Compile the njit kernels; separate so import stays cheap sans numba."""

    @njit(cache=True)
    def _pairwise(a, start, n):
        # NumPy's scalar pairwise summation (see cext.py for the contract).
        if n < 8:
            res = 0.0
            for i in range(n):
                res += a[start + i]
            return res
        if n <= 128:
            r0 = a[start]
            r1 = a[start + 1]
            r2 = a[start + 2]
            r3 = a[start + 3]
            r4 = a[start + 4]
            r5 = a[start + 5]
            r6 = a[start + 6]
            r7 = a[start + 7]
            i = 8
            while i < n - (n % 8):
                r0 += a[start + i]
                r1 += a[start + i + 1]
                r2 += a[start + i + 2]
                r3 += a[start + i + 3]
                r4 += a[start + i + 4]
                r5 += a[start + i + 5]
                r6 += a[start + i + 6]
                r7 += a[start + i + 7]
                i += 8
            res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
            while i < n:
                res += a[start + i]
                i += 1
            return res
        n2 = n // 2
        n2 -= n2 % 8
        return _pairwise(a, start, n2) + _pairwise(a, start + n2, n - n2)

    @njit(cache=True)
    def _sad_block(cur_blocks, b, ref_pad, r0, c0, block, scratch):
        k = 0
        for i in range(block):
            for j in range(block):
                scratch[k] = abs(cur_blocks[b, i, j] - ref_pad[r0 + i, c0 + j])
                k += 1
        return _pairwise(scratch, 0, block * block)

    @njit(cache=True)
    def _mv_bits(dx, dy, px, py):
        tx = 2 * abs(dx - px) + 1
        ty = 2 * abs(dy - py) + 1
        ex = -1
        while tx:
            tx >>= 1
            ex += 1
        ey = -1
        while ty:
            ty >>= 1
            ey += 1
        return 2.0 + 2.0 * (float(ex) + float(ey))

    @njit(cache=True)
    def _descend(cur_blocks, ref_pad, by, bx, pad, block, pattern,
                 dx, dy, cost, pred_x, pred_y, lambda_mv, rng, max_iter, scratch):
        for b in range(cur_blocks.shape[0]):
            bdx = dx[b]
            bdy = dy[b]
            bcost = cost[b]
            for _ in range(max_iter):
                improved = False
                for p in range(pattern.shape[0]):
                    cx = bdx + pattern[p, 0]
                    cy = bdy + pattern[p, 1]
                    if cx < -rng or cx > rng or cy < -rng or cy > rng:
                        continue
                    sad = _sad_block(
                        cur_blocks, b, ref_pad, pad + by[b] - cy, pad + bx[b] - cx,
                        block, scratch,
                    )
                    cand = sad + lambda_mv * _mv_bits(cx, cy, pred_x[b], pred_y[b])
                    if cand < bcost - 1e-9:
                        bdx = cx
                        bdy = cy
                        bcost = cand
                        improved = True
                if not improved:
                    break
            dx[b] = bdx
            dy[b] = bdy
            cost[b] = bcost

    @njit(cache=True)
    def _sweep_abs(cur_blocks, ref_pad, by, bx, pad, idx, block, offs,
                   dx, dy, cost, lambda_mv, scratch):
        for k in range(idx.shape[0]):
            b = idx[k]
            bdx = dx[b]
            bdy = dy[b]
            bcost = cost[b]
            for p in range(offs.shape[0]):
                cx = offs[p, 0]
                cy = offs[p, 1]
                sad = _sad_block(
                    cur_blocks, b, ref_pad, pad + by[b] - cy, pad + bx[b] - cx,
                    block, scratch,
                )
                cand = sad + lambda_mv * _mv_bits(cx, cy, 0, 0)
                if cand < bcost - 1e-9:
                    bdx = cx
                    bdy = cy
                    bcost = cand
            dx[b] = bdx
            dy[b] = bdy
            cost[b] = bcost

    @njit(cache=True)
    def _sweep_rel_clip(cur_blocks, ref_pad, by, bx, pad, idx, block, offs,
                        dx, dy, cost, pred_x, pred_y, lambda_mv, rng, scratch):
        for k in range(idx.shape[0]):
            b = idx[k]
            bdx = dx[b]
            bdy = dy[b]
            bcost = cost[b]
            for p in range(offs.shape[0]):
                cx = bdx + offs[p, 0]
                cy = bdy + offs[p, 1]
                if cx < -rng:
                    cx = -rng
                if cx > rng:
                    cx = rng
                if cy < -rng:
                    cy = -rng
                if cy > rng:
                    cy = rng
                sad = _sad_block(
                    cur_blocks, b, ref_pad, pad + by[b] - cy, pad + bx[b] - cx,
                    block, scratch,
                )
                cand = sad + lambda_mv * _mv_bits(cx, cy, pred_x[b], pred_y[b])
                if cand < bcost - 1e-9:
                    bdx = cx
                    bdy = cy
                    bcost = cand
            dx[b] = bdx
            dy[b] = bdy
            cost[b] = bcost

    @njit(cache=True)
    def _motion_comp(ref_pad, mvx, mvy, rng, rows, cols, block, out):
        for r in range(rows):
            for c in range(cols):
                b = r * cols + c
                vx = mvx[b]
                vy = mvy[b]
                fdx = np.floor(vx)
                fdy = np.floor(vy)
                ax = vx - fdx
                ay = vy - fdy
                r0 = r * block - int(fdy) + rng
                c0 = c * block - int(fdx) + rng
                if ax == 0.0 and ay == 0.0:
                    for i in range(block):
                        for j in range(block):
                            out[r * block + i, c * block + j] = np.float32(
                                ref_pad[r0 + i, c0 + j]
                            )
                else:
                    w00 = (1.0 - ay) * (1.0 - ax)
                    w01 = (1.0 - ay) * ax
                    w10 = ay * (1.0 - ax)
                    w11 = ay * ax
                    for i in range(block):
                        for j in range(block):
                            v = (
                                (w00 * ref_pad[r0 + i, c0 + j]
                                 + w01 * ref_pad[r0 + i, c0 + j - 1])
                                + w10 * ref_pad[r0 + i - 1, c0 + j]
                            ) + w11 * ref_pad[r0 + i - 1, c0 + j - 1]
                            out[r * block + i, c * block + j] = np.float32(v)

    return _descend, _sweep_abs, _sweep_rel_clip, _motion_comp


class NumbaBackend(KernelBackend):
    """JIT sweeps + motion compensation; unavailable when numba is absent."""

    name = "numba"

    def __init__(self) -> None:
        self._checked = False
        self._reason: str | None = _NUMBA_ERR
        self._fns = None
        self._scratch = np.empty(64 * 64, dtype=np.float64)

    # -- availability -----------------------------------------------------

    def available(self) -> bool:
        if not self._checked:
            self._checked = True
            if njit is None:
                return False
            try:
                self._fns = _build_kernels()
            except Exception as exc:  # pragma: no cover - depends on host
                self._reason = f"numba compilation failed: {exc!r}"
                return False
            if not self._self_probe():
                self._fns = None
                self._reason = "self-probe found a bitwise mismatch vs the reference"
        if self._fns is not None:
            self.descend_sweep = self._descend_sweep
            self.seed_sweep = self._seed_sweep
            self.offset_sweep = self._offset_sweep
            self.motion_compensate = self._motion_compensate
        return self._fns is not None

    def why_unavailable(self) -> str | None:
        return self._reason

    def warm(self) -> None:
        # available() runs the self-probe, which exercises (and therefore
        # JIT-compiles) every kernel — first real call pays nothing.
        self.available()

    # -- kernels ----------------------------------------------------------

    def _ensure_scratch(self, block: int) -> np.ndarray:
        if self._scratch.size < block * block:
            self._scratch = np.empty(block * block, dtype=np.float64)
        return self._scratch

    def _descend_sweep(self, ev, pattern, dx, dy, cost, pred_x, pred_y,
                       lambda_mv, *, max_iter=16):
        descend = self._fns[0]
        pat = np.ascontiguousarray(np.asarray(pattern).reshape(-1, 2), dtype=np.int64)
        descend(
            ev.cur_blocks, ev.ref_pad, ev.by, ev.bx, ev.pad, ev.block, pat,
            dx, dy, cost, pred_x, pred_y, float(lambda_mv), ev.search_range,
            int(max_iter), self._ensure_scratch(ev.block),
        )
        return dx, dy, cost

    def _seed_sweep(self, ev, idx, offsets, dx, dy, cost, lambda_mv):
        sweep_abs = self._fns[1]
        offs = np.ascontiguousarray(np.asarray(offsets).reshape(-1, 2), dtype=np.int64)
        sweep_abs(
            ev.cur_blocks, ev.ref_pad, ev.by, ev.bx, ev.pad,
            np.ascontiguousarray(idx, dtype=np.int64), ev.block, offs,
            dx, dy, cost, float(lambda_mv), self._ensure_scratch(ev.block),
        )
        return dx, dy, cost

    def _offset_sweep(self, ev, idx, offsets, dx, dy, cost, pred_x, pred_y, lambda_mv):
        sweep_rel = self._fns[2]
        offs = np.ascontiguousarray(np.asarray(offsets).reshape(-1, 2), dtype=np.int64)
        sweep_rel(
            ev.cur_blocks, ev.ref_pad, ev.by, ev.bx, ev.pad,
            np.ascontiguousarray(idx, dtype=np.int64), ev.block, offs,
            dx, dy, cost, pred_x, pred_y, float(lambda_mv), ev.search_range,
            self._ensure_scratch(ev.block),
        )
        return dx, dy, cost

    def _motion_compensate(self, reference, mv, *, block=16):
        motion_comp = self._fns[3]
        reference = np.asarray(reference, dtype=np.float32)
        rows, cols = mv.shape[0], mv.shape[1]
        rng = int(np.ceil(np.abs(mv).max())) + 2
        ref_pad = np.pad(reference.astype(np.float64), rng, mode="edge")
        mvx = np.ascontiguousarray(mv[..., 0], dtype=np.float64).ravel()
        mvy = np.ascontiguousarray(mv[..., 1], dtype=np.float64).ravel()
        out = np.empty(reference.shape, dtype=np.float32)
        motion_comp(ref_pad, mvx, mvy, rng, rows, cols, block, out)
        return out

    # -- self-probe -------------------------------------------------------

    def _self_probe(self) -> bool:
        """Bitwise-compare every JIT kernel against the codec reference."""
        try:
            from repro.codec.motion import (
                _BlockSadEvaluator,
                _descend_reference,
                _motion_compensate_reference,
                _mv_bits_vec,
                _SMALL_DIAMOND,
            )
            from repro.kernels.cext import _probe_rel_reference, _probe_seed_reference
        except ImportError:
            return False
        gen = np.random.default_rng(0xBA)
        for block, shape in ((16, (96, 128)), (8, (48, 64))):
            ref = gen.uniform(0, 255, size=shape).astype(np.float32)
            cur = np.clip(ref + gen.normal(0, 9, size=shape), 0, 255).astype(np.float32)
            # reference_only: the oracle side must not dispatch to a backend.
            ev_a = _BlockSadEvaluator(cur, ref, 10, block, reference_only=True)
            ev_b = _BlockSadEvaluator(cur, ref, 10, block, reference_only=True)
            zero = np.zeros(ev_a.n, dtype=np.int64)
            cost0 = ev_a.sad_int(zero, zero) + 4.0 * _mv_bits_vec(zero, zero, zero, zero)
            pred = gen.integers(-3, 4, size=ev_a.n)
            args_a = (zero.copy(), zero.copy(), cost0.copy(), pred, -pred, 4.0)
            args_b = (zero.copy(), zero.copy(), cost0.copy(), pred, -pred, 4.0)
            ra = _descend_reference(ev_a, _SMALL_DIAMOND, *args_a)
            rb = self._descend_sweep(ev_b, _SMALL_DIAMOND, *args_b)
            if not all(np.array_equal(x, y) for x, y in zip(ra, rb)):
                return False
            offs = [(o, p) for o in (-8, -3, 5) for p in (-6, 2, 7)]
            idx = np.flatnonzero(gen.uniform(size=ev_a.n) < 0.7)
            sa = (ra[0].copy(), ra[1].copy(), ra[2].copy())
            sb = (ra[0].copy(), ra[1].copy(), ra[2].copy())
            _probe_seed_reference(ev_a, idx, offs, *sa, 4.0)
            self._seed_sweep(ev_b, idx, offs, *sb, 4.0)
            if not all(np.array_equal(x, y) for x, y in zip(sa, sb)):
                return False
            ua = (sa[0].copy(), sa[1].copy(), sa[2].copy())
            ub = (sa[0].copy(), sa[1].copy(), sa[2].copy())
            _probe_rel_reference(ev_a, idx, offs, *ua, pred, -pred, 4.0)
            self._offset_sweep(ev_b, idx, offs, *ub, pred, -pred, 4.0)
            if not all(np.array_equal(x, y) for x, y in zip(ua, ub)):
                return False
            mv = (gen.integers(-28, 29, size=(shape[0] // block, shape[1] // block, 2))
                  * 0.25).astype(np.float32)
            if not np.array_equal(
                self._motion_compensate(ref, mv, block=block),
                _motion_compensate_reference(ref, mv, block=block),
            ):
                return False
        return True
