"""Intra prediction for I-frames.

H.264 predicts each intra block from its already-reconstructed neighbours
(DC / horizontal / vertical modes and more); our encoder originally coded
I-frames against a flat mid-gray, which wastes bits on every smooth
gradient.  This module implements the three classic modes with per-block
mode selection, operating — exactly like a real codec — on *reconstructed*
neighbour pixels, so the decoder can reproduce the prediction without
access to the source frame.

The block scan is raster order; for each block the predictor is chosen by
SAD against the source, the residual is transform-coded, and the block is
reconstructed before its successors are visited.

Implementation note: the raster scan's true dependency structure is a
wavefront — block ``(r, c)`` needs only the reconstructions of ``(r, c-1)``
(its left column) and ``(r-1, c)`` (its top row), both of which lie on the
previous anti-diagonal ``r + c - 1``.  The encoder therefore processes one
anti-diagonal at a time: predictions and SAD mode selection are evaluated
per block (borders keep their H.264 fallbacks), while the DCT, quantiser,
bit model and inverse transform run once per diagonal on a concatenated
block plane.  Every per-block value is bit-identical to the sequential
scan: the batched DCT transforms each 8-point line independently, the
quantiser divides by the same per-block scalar step, and the bit totals are
sums of exact multiples of 0.25 (order-free in float64).

:func:`intra_encode` and :func:`intra_decode` dispatch through
:mod:`repro.kernels` (hooks of the same names); the ``_reference`` bodies
below are the oracle a backend's hook must equal bitwise, and the fallback.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.codec.transform import dct_blocks, idct_blocks, qstep, transform_cost_bits

__all__ = ["intra_decode", "intra_encode", "intra_predict_block"]

#: Mode ids (2 bits of syntax per block).
MODE_DC = 0
MODE_HORIZONTAL = 1
MODE_VERTICAL = 2
_MODE_BITS = 2.0
_DEFAULT_DC = 128.0


def intra_predict_block(
    recon: np.ndarray, r0: int, c0: int, size: int, mode: int
) -> np.ndarray:
    """Prediction of the ``size``x``size`` block at ``(r0, c0)`` from the
    reconstructed pixels above and to the left of it.

    Unavailable neighbours (frame border) fall back to the other edge or,
    for the top-left block, to mid-gray — the H.264 convention.
    """
    left = recon[r0 : r0 + size, c0 - 1] if c0 > 0 else None
    top = recon[r0 - 1, c0 : c0 + size] if r0 > 0 else None
    if mode == MODE_HORIZONTAL:
        if left is None:
            mode = MODE_VERTICAL if top is not None else MODE_DC
        else:
            return np.repeat(left[:, None], size, axis=1)
    if mode == MODE_VERTICAL:
        if top is None:
            mode = MODE_HORIZONTAL if left is not None else MODE_DC
        else:
            return np.repeat(top[None, :], size, axis=0)
        if left is not None:
            return np.repeat(left[:, None], size, axis=1)
    # DC
    parts = []
    if left is not None:
        parts.append(left)
    if top is not None:
        parts.append(top)
    dc = float(np.mean(np.concatenate(parts))) if parts else _DEFAULT_DC
    return np.full((size, size), dc)


def intra_encode(
    frame: np.ndarray,
    qp_map: np.ndarray,
    *,
    block: int = 16,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Intra-code a whole frame with per-block mode selection.

    Parameters
    ----------
    frame:
        Source frame, float, dimensions multiples of ``block``.
    qp_map:
        ``(rows, cols)`` effective QP per macroblock (base + offsets).

    Returns
    -------
    ``(levels, modes, reconstruction, bits_per_mb)`` — the quantised
    coefficient levels (block-major, as :func:`dct_blocks` lays them out),
    the chosen mode per macroblock, the decoder-identical reconstruction,
    and per-macroblock coefficient+mode bits.
    """
    impl = kernels.override("intra_encode")
    out = None if impl is None else impl(frame, qp_map, block=block)
    return _intra_encode_reference(frame, qp_map, block=block) if out is None else out


def _intra_encode_reference(
    frame: np.ndarray,
    qp_map: np.ndarray,
    *,
    block: int = 16,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reference implementation of :func:`intra_encode`: the oracle every
    backend's hook must equal bitwise, and the fallback."""
    frame = np.asarray(frame, dtype=np.float64)
    h, w = frame.shape
    rows, cols = h // block, w // block
    qp_map = np.asarray(qp_map, dtype=float)
    if qp_map.shape != (rows, cols):
        raise ValueError(f"qp_map shape {qp_map.shape} != macroblock grid {(rows, cols)}")
    recon = np.zeros_like(frame)
    modes = np.zeros((rows, cols), dtype=np.int8)
    bits_per_mb = np.zeros((rows, cols), dtype=np.float64)
    sub = block // 8
    levels_full = np.zeros((rows * sub, 8, cols * sub, 8), dtype=np.float64)
    preds = np.empty((3, block, block), dtype=np.float64)
    for rs, cs in _wavefront(rows, cols):
        m = rs.size
        best_preds = np.empty((m, block, block), dtype=np.float64)
        residual = np.empty((m, block, block), dtype=np.float64)
        for k in range(m):
            r, c = int(rs[k]), int(cs[k])
            r0, c0 = r * block, c * block
            src = frame[r0 : r0 + block, c0 : c0 + block]
            best_mode, best_sad = MODE_DC, np.inf
            for mode in (MODE_DC, MODE_HORIZONTAL, MODE_VERTICAL):
                preds[mode] = intra_predict_block(recon, r0, c0, block, mode)
                sad = float(np.abs(src - preds[mode]).sum())
                if sad < best_sad:
                    best_mode, best_sad = mode, sad
            modes[r, c] = best_mode
            best_preds[k] = preds[best_mode]
            np.subtract(src, best_preds[k], out=residual[k])
        # One DCT/quantise/bit-count/inverse pass for the whole diagonal:
        # blocks are laid side by side in a (block, m*block) plane, so each
        # 8-point transform line, scalar-step division and per-8x8 bit cost
        # is the same computation the per-block loop performed.
        plane = residual.transpose(1, 0, 2).reshape(block, m * block)
        coeffs = dct_blocks(plane)
        # One macroblock has a single QP, so the quantiser step is a
        # scalar per block: dividing by the broadcast column of that scalar
        # is IEEE-identical to quantize()'s expanded per-8x8 step map.
        q = qstep(qp_map[rs, cs])
        qcol = np.repeat(q, sub)
        levels = np.round(coeffs / qcol[None, None, :, None])
        diag_bits = transform_cost_bits(levels, mb_size=block)[0]
        rec_plane = idct_blocks(levels * qcol[None, None, :, None])
        bits_per_mb[rs, cs] = diag_bits + _MODE_BITS
        for k in range(m):
            r, c = int(rs[k]), int(cs[k])
            r0, c0 = r * block, c * block
            levels_full[r * sub : (r + 1) * sub, :, c * sub : (c + 1) * sub, :] = levels[
                :, :, k * sub : (k + 1) * sub, :
            ]
            recon[r0 : r0 + block, c0 : c0 + block] = np.clip(
                best_preds[k] + rec_plane[:, k * block : (k + 1) * block], 0.0, 255.0
            )
    return levels_full, modes, recon, bits_per_mb


def intra_decode(
    levels: np.ndarray,
    modes: np.ndarray,
    qp_map: np.ndarray,
    *,
    block: int = 16,
) -> np.ndarray:
    """Reconstruct an intra-coded frame from its levels and modes.

    Replays :func:`intra_encode`'s raster scan: each block's prediction
    comes from the already-reconstructed neighbours, then the dequantised
    residual is added — bit-exact with the encoder's reconstruction.
    """
    impl = kernels.override("intra_decode")
    out = None if impl is None else impl(levels, modes, qp_map, block=block)
    return _intra_decode_reference(levels, modes, qp_map, block=block) if out is None else out


def _intra_decode_reference(
    levels: np.ndarray,
    modes: np.ndarray,
    qp_map: np.ndarray,
    *,
    block: int = 16,
) -> np.ndarray:
    """Reference implementation of :func:`intra_decode` (oracle and fallback)."""
    rows, cols = modes.shape
    sub = block // 8
    qp_map = np.asarray(qp_map, dtype=float)
    recon = np.zeros((rows * block, cols * block), dtype=np.float64)
    for rs, cs in _wavefront(rows, cols):
        m = rs.size
        preds = np.empty((m, block, block), dtype=np.float64)
        diag_levels = np.empty((sub, 8, m * sub, 8), dtype=np.float64)
        for k in range(m):
            r, c = int(rs[k]), int(cs[k])
            preds[k] = intra_predict_block(recon, r * block, c * block, block, int(modes[r, c]))
            diag_levels[:, :, k * sub : (k + 1) * sub, :] = levels[
                r * sub : (r + 1) * sub, :, c * sub : (c + 1) * sub, :
            ]
        # Scalar dequantise per block — same step value quantize/dequantize
        # would broadcast (see intra_encode) — batched over the diagonal.
        qcol = np.repeat(qstep(qp_map[rs, cs]), sub)
        rec_plane = idct_blocks(diag_levels * qcol[None, None, :, None])
        for k in range(m):
            r, c = int(rs[k]), int(cs[k])
            r0, c0 = r * block, c * block
            recon[r0 : r0 + block, c0 : c0 + block] = np.clip(
                preds[k] + rec_plane[:, k * block : (k + 1) * block], 0.0, 255.0
            )
    return recon


def _wavefront(rows: int, cols: int):
    """Anti-diagonals of the macroblock grid, in raster-dependency order.

    Yields ``(rs, cs)`` index arrays; every block on a diagonal depends
    only on blocks of earlier diagonals (left and top neighbours), so the
    blocks of one diagonal can be transform-coded together.
    """
    for d in range(rows + cols - 1):
        rs = np.arange(max(0, d - cols + 1), min(rows, d + 1))
        yield rs, d - rs
