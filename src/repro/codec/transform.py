"""Transform coding: 8x8 DCT, quantisation and bit accounting.

The quantiser step follows H.264's exponential law — it doubles every six
QP values — anchored so that QP 0 is near-lossless on 8-bit video:

    Qstep(QP) = 0.625 * 2^(QP / 6)

Bit costs are an exp-Golomb-style model over the quantised coefficient
levels plus a small per-8x8-block overhead, which reproduces the two
properties rate control relies on: bits decrease monotonically with QP and
grow with residual energy.

The transform and everything after it dispatch through :mod:`repro.kernels`:
:func:`dct_blocks` / :func:`idct_blocks` (one ``transform`` hook; the
reference is scipy's pocketfft, whose 8-point DCT-II / DCT-III a compiled
backend replays operation for operation, to its bytes),
:func:`quantize_cost` (quantise + bit cost in one pass), :func:`reconstruct`
(dequantise + IDCT + clip, the one spelling encoder and decoder share) and
:class:`QuantBitCounter` (rate control's probe).  The step-by-step functions
(:func:`quantize`, :func:`transform_cost_bits`, :func:`dequantize`,
:func:`idct_blocks`) and the counter's sorted NumPy body are what the
``_reference`` bodies are made of: the oracle a backend's hook must equal
bitwise, and the fallback.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dctn, idctn

from repro import kernels

__all__ = [
    "QuantBitCounter",
    "dct_blocks",
    "dequantize",
    "idct_blocks",
    "qstep",
    "quantize",
    "quantize_cost",
    "reconstruct",
    "transform_cost_bits",
]

#: Per-8x8-block fixed overhead (coded-block pattern, EOB) for blocks that
#: carry coefficients, in bits.
_BLOCK_OVERHEAD_BITS = 4.0
#: Amortised cost of an all-zero (skipped) block — real codecs run-length
#: encode skip flags, so empty blocks are nearly free.
_SKIP_BLOCK_BITS = 0.25
_TRANSFORM = 8  # transform block size


def qstep(qp: np.ndarray | float) -> np.ndarray | float:
    """Quantiser step size for a QP value (H.264-style exponential law)."""
    return 0.625 * np.power(2.0, np.asarray(qp, dtype=float) / 6.0)


def dct_blocks(plane: np.ndarray) -> np.ndarray:
    """Orthonormal 8x8 block DCT of a plane (shape multiple of 8).

    Returns an array shaped ``(rows8, 8, cols8, 8)`` — block-major layout
    that quantisation and bit counting operate on directly.
    """
    h, w = plane.shape
    if h % _TRANSFORM or w % _TRANSFORM:
        raise ValueError(f"plane shape {plane.shape} not a multiple of {_TRANSFORM}")
    blocks = plane.reshape(h // _TRANSFORM, _TRANSFORM, w // _TRANSFORM, _TRANSFORM)
    return _transform(blocks, inverse=False)


def idct_blocks(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct_blocks`."""
    blocks = _transform(coeffs, inverse=True)
    r8, _, c8, _ = blocks.shape
    return blocks.reshape(r8 * _TRANSFORM, c8 * _TRANSFORM)


def _transform(blocks: np.ndarray, *, inverse: bool) -> np.ndarray:
    """The 8x8 DCT (or its inverse) of block-major ``blocks``: the backend's
    hook, or the reference wherever the hook declines (``None``)."""
    impl = kernels.override("transform")
    out = None if impl is None else impl(blocks, inverse=inverse)
    return _transform_reference(blocks, inverse=inverse) if out is None else out


def _transform_reference(blocks: np.ndarray, *, inverse: bool) -> np.ndarray:
    """Reference implementation of :func:`_transform` (oracle and fallback):
    scipy's pocketfft DCT-II / DCT-III along axes 1 and 3, in the input's
    own precision for float32 / float64."""
    return (idctn if inverse else dctn)(blocks, axes=(1, 3), norm="ortho")


def _expand_qstep(qp_per_mb: np.ndarray, mb_size: int, blocks: np.ndarray) -> np.ndarray:
    """Per-8x8-block quantiser steps from a per-macroblock QP map, checked
    against the block grid of the ``(rows8, 8, cols8, 8)`` array they scale."""
    qp_per_mb = np.asarray(qp_per_mb, dtype=float)
    reps = mb_size // _TRANSFORM
    q = np.repeat(np.repeat(qstep(qp_per_mb), reps, axis=0), reps, axis=1)
    if q.shape != (blocks.shape[0], blocks.shape[2]):
        raise ValueError(
            f"QP map {qp_per_mb.shape} inconsistent with coefficient blocks "
            f"{(blocks.shape[0], blocks.shape[2])} (mb_size={mb_size})"
        )
    return q


def quantize(coeffs: np.ndarray, qp_per_mb: np.ndarray, *, mb_size: int = 16) -> np.ndarray:
    """Quantise DCT coefficients with a per-macroblock QP map.

    Parameters
    ----------
    coeffs:
        Block-major coefficients from :func:`dct_blocks`.
    qp_per_mb:
        ``(mb_rows, mb_cols)`` QP values (floats allowed; typically base QP
        plus DiVE's offset map).
    """
    q = _expand_qstep(qp_per_mb, mb_size, coeffs)
    return np.round(coeffs / q[:, None, :, None])


def dequantize(levels: np.ndarray, qp_per_mb: np.ndarray, *, mb_size: int = 16) -> np.ndarray:
    """Rescale quantised levels back to coefficient magnitudes.

    A QP map that does not cover the level blocks raises the ``ValueError``
    :func:`quantize` raises — a malformed bitstream, not a broadcast.
    """
    q = _expand_qstep(qp_per_mb, mb_size, levels)
    return levels * q[:, None, :, None]


def transform_cost_bits(levels: np.ndarray, *, mb_size: int = 16) -> np.ndarray:
    """Bit cost of the quantised levels, per macroblock.

    Each non-zero level of magnitude ``m`` costs ``2*floor(log2(m)) + 3``
    bits (signed exp-Golomb), zero levels are free; each 8x8 block carrying
    any coefficient pays :data:`_BLOCK_OVERHEAD_BITS` of overhead while
    all-zero blocks cost only the amortised skip-flag
    :data:`_SKIP_BLOCK_BITS`.  Returns a ``(mb_rows, mb_cols)`` float array.
    """
    mag = np.abs(levels)
    bits = np.where(mag > 0, 2.0 * np.floor(np.log2(np.maximum(mag, 1.0))) + 3.0, 0.0)
    coeff_bits = bits.sum(axis=(1, 3))
    per_block = coeff_bits + np.where(coeff_bits > 0, _BLOCK_OVERHEAD_BITS, _SKIP_BLOCK_BITS)
    reps = mb_size // _TRANSFORM
    r8, c8 = per_block.shape
    return per_block.reshape(r8 // reps, reps, c8 // reps, reps).sum(axis=(1, 3))


def quantize_cost(
    coeffs: np.ndarray, qp_per_mb: np.ndarray, *, mb_size: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """Quantise and cost in one pass: ``(levels, bits_per_mb)``.

    Exactly ``levels = quantize(coeffs, qp_per_mb)`` and
    ``transform_cost_bits(levels)`` — what the encoder does to every frame
    once the base QP is chosen — as one dispatched kernel, so a backend can
    read each coefficient once instead of sweeping the volume per step.
    """
    impl = kernels.override("quantize_cost")
    out = None if impl is None else impl(coeffs, qp_per_mb, mb_size=mb_size)
    return _quantize_cost_reference(coeffs, qp_per_mb, mb_size=mb_size) if out is None else out


def _quantize_cost_reference(
    coeffs: np.ndarray, qp_per_mb: np.ndarray, *, mb_size: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """Reference implementation of :func:`quantize_cost` (oracle and fallback)."""
    levels = quantize(coeffs, qp_per_mb, mb_size=mb_size)
    return levels, transform_cost_bits(levels, mb_size=mb_size)


def reconstruct(
    prediction: np.ndarray, levels: np.ndarray, qp_per_mb: np.ndarray, *, mb_size: int = 16
) -> np.ndarray:
    """The decoded frame: prediction plus the dequantised, inverse-transformed
    levels, clipped to 8-bit range, as float32.

    Encoder and decoder both call this — their reconstructions are the same
    bytes by construction.  A backend may skip the 8x8 blocks whose levels
    are all zero (most of a P-frame at the operating QP): their residual is
    all ±0.0 and the pixel is the clipped prediction.
    """
    impl = kernels.override("reconstruct")
    out = None if impl is None else impl(prediction, levels, qp_per_mb, mb_size=mb_size)
    return _reconstruct_reference(prediction, levels, qp_per_mb, mb_size=mb_size) if out is None else out


def _reconstruct_reference(
    prediction: np.ndarray, levels: np.ndarray, qp_per_mb: np.ndarray, *, mb_size: int = 16
) -> np.ndarray:
    """Reference implementation of :func:`reconstruct` (oracle and fallback)."""
    residual = idct_blocks(dequantize(levels, qp_per_mb, mb_size=mb_size))
    return np.clip(prediction + residual, 0.0, 255.0).astype(np.float32)


class QuantBitCounter:
    """Cached total-bit curves for re-quantising one fixed coefficient set.

    CBR rate control binary-searches the base QP, re-quantising the same
    DCT coefficients at ~8 probe QPs per frame.  Re-running the full
    ``quantize`` + :func:`transform_cost_bits` pipeline per probe repeats
    the per-macroblock QP-map expansion and whole-volume bit model every
    time, even though a probe only changes one scalar per *distinct* QP
    offset value.  This counter groups the 8x8 transform blocks by their
    macroblock's offset value once, and answers each probe with one scalar
    division + bit count per group, memoising per ``(group, effective QP)``
    so repeated effective QPs (offset maps saturating at QP 51, re-probed
    QPs) are free.

    Bit-exactness: every total is a sum of per-8x8-block costs that are
    exact multiples of 0.25 in float64 (integer coefficient bits plus 4.0
    or 0.25 of overhead), so regrouping the summation cannot change the
    float result; quantised magnitudes use the same divide/round/``log2``
    expressions as :func:`quantize` and :func:`transform_cost_bits`, and a
    scalar divisor is IEEE-identical to a broadcast array of that scalar.
    :meth:`bits_at` therefore returns exactly
    ``float(transform_cost_bits(quantize(coeffs, clip(qp + offsets, 0, max_qp))).sum())``.

    The grouping, sorting and memo above are the NumPy body.  A backend's
    ``rate_counter`` hook may answer the probes instead (same totals, by
    the same argument); it is asked once, at construction, and whenever it
    declines — at construction, or at a probe it cannot prove (NaN, inf, a
    level too large to cost in integers) — the NumPy body takes over.
    """

    def __init__(
        self,
        coeffs: np.ndarray,
        offsets: np.ndarray,
        *,
        mb_size: int = 16,
        max_qp: float = 51.0,
    ):
        offs = np.asarray(offsets, dtype=np.float64)
        if offs.ndim != 2:
            raise ValueError(f"offsets must be 2-D, got shape {offs.shape}")
        reps = mb_size // _TRANSFORM
        r8, _, c8, _ = coeffs.shape
        if offs.shape != (r8 // reps, c8 // reps):
            raise ValueError(
                f"offset map {offs.shape} inconsistent with coefficient blocks "
                f"{(r8, c8)} (mb_size={mb_size})"
            )
        self.max_qp = float(max_qp)
        #: How many totals :meth:`bits_at` has answered.
        self.probes = 0
        impl = kernels.override("rate_counter")
        self._probe = None if impl is None else impl(coeffs, offs, mb_size=mb_size, max_qp=self.max_qp)
        if self._probe is None:
            self._group(coeffs, offs, reps)
        else:
            self._grouping = (coeffs, offs, reps)  # what the NumPy body needs, should the probe decline

    def _group(self, coeffs: np.ndarray, offs: np.ndarray, reps: int) -> None:
        """Set up the NumPy body: |coeffs| flattened to one row per 8x8
        block, grouped by the macroblock offset value the block inherits."""
        r8, _, c8, _ = coeffs.shape
        mag = np.abs(np.asarray(coeffs, dtype=np.float64)).transpose(0, 2, 1, 3).reshape(r8 * c8, _TRANSFORM * _TRANSFORM)
        block_offs = np.repeat(np.repeat(offs, reps, axis=0), reps, axis=1).ravel()
        self._offsets, inverse = np.unique(block_offs, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        counts = np.bincount(inverse, minlength=self._offsets.size)
        group_mags = np.split(mag[order], np.cumsum(counts)[:-1])
        # Probe-time accelerators: each group's magnitudes sorted ascending
        # (so a probe only divides the coefficients that can still quantise
        # to a non-zero level) and the per-8x8-block magnitude maxima (a
        # block carries coefficients iff its *largest* magnitude rounds to a
        # non-zero level — rounding is monotone).
        self._group_sorted = [np.sort(g, axis=None) for g in group_mags]
        self._group_block_max = [
            g.max(axis=1) if g.size else np.zeros(0, dtype=np.float64) for g in group_mags
        ]
        self._cache: dict[tuple[int, float], float] = {}

    def bits_at(self, qp: float) -> float:
        """Total coded bits at base QP ``qp`` (before clipping offsets)."""
        self.probes += 1
        if self._probe is not None:
            bits = self._probe(qp)
            if bits is not None:
                return bits
            self._probe = None
            self._group(*self._grouping)
        total = 0.0
        for gi, off in enumerate(self._offsets):
            eff = float(min(max(qp + off, 0.0), self.max_qp))
            key = (gi, eff)
            bits = self._cache.get(key)
            if bits is None:
                bits = self._group_bits(gi, eff)
                self._cache[key] = bits
            total += bits
        return total

    def _group_bits(self, gi: int, eff_qp: float) -> float:
        q = qstep(eff_qp)
        # Coefficient bits: only magnitudes with round(mag/q) >= 1 cost
        # anything, which requires mag/q >= 0.5 after the IEEE divide, so
        # mag >= 0.25*q is a safe superset cutoff (the divide perturbs the
        # real ratio by at most one ulp).  Division by a positive scalar is
        # monotone, so the sorted order survives and a binary search finds
        # the candidate suffix.
        sorted_mags = self._group_sorted[gi]
        lo = int(np.searchsorted(sorted_mags, 0.25 * float(q), side="left"))
        level_mag = np.round(np.divide(sorted_mags[lo:], q))
        # The quantised magnitudes are exact non-negative integers in
        # float64, so ``floor(log2(m))`` equals ``frexp(m).exponent - 1``
        # exactly — the frexp form costs bit tricks instead of a
        # whole-array transcendental.
        exponent = np.frexp(level_mag)[1]
        coeff_bits = float(np.where(level_mag > 0, 2.0 * (exponent - 1) + 3.0, 0.0).sum())
        # Block overhead: a block carries coefficients iff its largest
        # magnitude quantises to a non-zero level (division and round are
        # monotone), so one divide over the per-block maxima classifies
        # every block.
        block_max = self._group_block_max[gi]
        nz_blocks = int(np.count_nonzero(np.round(np.divide(block_max, q)) > 0))
        return (
            coeff_bits
            + _BLOCK_OVERHEAD_BITS * nz_blocks
            + _SKIP_BLOCK_BITS * (block_max.size - nz_blocks)
        )
