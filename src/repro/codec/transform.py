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
reference replays scipy's pocketfft 8-point DCT-II / DCT-III in numpy,
operation for operation, as a compiled backend does in C, so both give
``scipy.fft.dctn`` / ``idctn``'s bytes without importing scipy),
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


#: The input types pocketfft computes in, and so the replay's.
_REPLAY_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
#: pocketfft's constants for length 8, as ``cext.c``'s ``DCT_TW`` / ``DCT_WR``
#: / ``DCT_WI`` / ``DCT_SQRT2`` spell them: the pre- / post-rotation twiddles
#: cos(k pi / 16), k = 1 ... 7, the radix-2 rotation wr + i wi (one ulp apart
#: in double) and sqrt(2), as doubles; each line function rounds them to the
#: input's type, as pocketfft's float32 plan holds them.
_DCT_TW = tuple(
    float.fromhex(h)
    for h in (
        "0x1.f6297cff75cb0p-1", "0x1.d906bcf328d46p-1", "0x1.a9b66290ea1a3p-1", "0x1.6a09e667f3bccp-1",
        "0x1.1c73b39ae68c8p-1", "0x1.87de2a6aea963p-2", "0x1.8f8b83c69a60ap-3",
    )
)
_DCT_WR = float.fromhex("0x1.6a09e667f3bccp-1")
_DCT_WI = float.fromhex("0x1.6a09e667f3bcdp-1")
_DCT_SQRT2 = float.fromhex("0x1.6a09e667f3bcdp+0")


def _transform_reference(blocks: np.ndarray, *, inverse: bool) -> np.ndarray:
    """Reference implementation of :func:`_transform` (oracle and fallback):
    ``scipy.fft.dctn`` / ``idctn(blocks, axes=(1, 3), norm="ortho")``.

    For native float32 / float64 ``(r8, 8, c8, 8)`` blocks that is pocketfft's
    8-point DCT-II / DCT-III along axis 1, the 2-D scale 1/16 applied in that
    first pass, then along axis 3, every operation in the input's own type —
    which :func:`_dct2_lines` / :func:`_dct3_lines` replay, every line of
    every block at once, so no scipy module is loaded.  The replay's answer
    stands when all of it is finite; otherwise (a NaN's sign and payload
    depend on more than the operation order) and for any other input — a
    dtype, byte order or shape the replay does not take, or no blocks —
    scipy, imported here on first need, answers.
    """
    if (
        isinstance(blocks, np.ndarray)
        and blocks.dtype in _REPLAY_DTYPES
        and blocks.ndim == 4
        and blocks.shape[1] == blocks.shape[3] == _TRANSFORM
        and blocks.size
    ):
        lines = _dct3_lines if inverse else _dct2_lines
        # (i, j, r8, c8): axis 1's lines are the columns of x[0] ... x[7].
        x = np.ascontiguousarray(blocks.transpose(1, 3, 0, 2))
        y, out = np.empty_like(x), np.empty(blocks.shape, blocks.dtype)
        with np.errstate(all="ignore"):  # an overflow is scipy's to answer, below
            lines(x, y, scale=x.dtype.type(0.0625))
            # y is (k1, j, r8, c8); axis 3's lines run along j, and land in
            # ``out`` (r8, k1, c8, k3) seen as (k3, k1, r8, c8).
            lines(y.transpose(1, 0, 2, 3), out.transpose(3, 1, 0, 2))
            if np.isfinite(out).all():
                return out
    from scipy.fft import dctn, idctn

    return (idctn if inverse else dctn)(blocks, axes=(1, 3), norm="ortho")


def _dct2_lines(x: np.ndarray, y: np.ndarray, *, scale: np.generic | None = None) -> None:
    """pocketfft's 8-point DCT-II of every line ``x[0][...], ..., x[7][...]``
    into ``y[0] ... y[7]``, scaled by ``scale`` before the post-rotation:
    ``cext.c``'s ``dct2_lines``, statement for statement (its real FFT of
    length 8, radix 4 then 2, between the DCT's pre- and post-rotation), in
    ``x``'s type."""
    t = x.dtype.type
    tw = [t(v) for v in _DCT_TW]
    wr, wi, two, half = t(_DCT_WR), t(_DCT_WI), t(2), t(0.5)
    c0, c7 = x[0] * two, x[7] * two
    c1, c2 = x[2] + x[1], x[2] - x[1]
    c3, c4 = x[4] + x[3], x[4] - x[3]
    c5, c6 = x[6] + x[5], x[6] - x[5]
    # radix 2
    h0, h4, h3, h7, h1, r = c0 + c7, c0 - c7, two * c3, -(two * c4), c1 + c5, c1 - c5
    i, h2 = c2 + c6, c2 - c6
    h6, h5 = wr * i + wi * r, wr * r - wi * i
    # radix 4
    a, b, p, q = h0 + h3, h0 - h3, two * h1, two * h2
    o = [a + p, None, b - q, None, a - p, None, b + q, None]
    a, b, p, q = h4 + h7, h4 - h7, two * h5, two * h6
    o[1], o[5], o[7], o[3] = a + p, a - p, b + q, b - q
    if scale is not None:
        o = [v * scale for v in o]
    for k in (1, 2, 3):
        t1 = tw[k - 1] * o[8 - k] + tw[7 - k] * o[k]
        t2 = tw[k - 1] * o[k] - tw[7 - k] * o[8 - k]
        np.multiply(half, t1 + t2, out=y[k])
        np.multiply(half, t1 - t2, out=y[8 - k])
    np.multiply(o[4], tw[3], out=y[4])
    np.multiply(o[0], t(_DCT_SQRT2) * half, out=y[0])


def _dct3_lines(x: np.ndarray, y: np.ndarray, *, scale: np.generic | None = None) -> None:
    """pocketfft's 8-point DCT-III, as :func:`_dct2_lines` is its DCT-II
    (``cext.c``'s ``dct3_lines``): pre-rotation, radix 4 then 2, ``scale``."""
    t = x.dtype.type
    tw = [t(v) for v in _DCT_TW]
    wr, wi, two = t(_DCT_WR), t(_DCT_WI), t(2)
    c0, c4 = x[0] * t(_DCT_SQRT2), x[4] * (two * tw[3])
    t1, t2 = x[1] + x[7], x[1] - x[7]
    c1, c7 = tw[0] * t2 + tw[6] * t1, tw[0] * t1 - tw[6] * t2
    t1, t2 = x[2] + x[6], x[2] - x[6]
    c2, c6 = tw[1] * t2 + tw[5] * t1, tw[1] * t1 - tw[5] * t2
    t1, t2 = x[3] + x[5], x[3] - x[5]
    c3, c5 = tw[2] * t2 + tw[4] * t1, tw[2] * t1 - tw[4] * t2
    # radix 4
    r1, h2, r2, h1 = c6 + c2, c6 - c2, c0 + c4, c0 - c4
    h0, h3 = r2 + r1, r2 - r1
    r1, r2 = c7 + c3, c1 + c5
    h6, h5, h4, h7 = c7 - c3, c1 - c5, r2 + r1, r2 - r1
    # radix 2
    r, i = wr * h5 + wi * h6, wr * h6 - wi * h5
    o = [h0 + h4, h1 + r, i + h2, h3, -h7, h1 - r, i - h2, h0 - h4]
    if scale is not None:
        o = [v * scale for v in o]
    y[0], y[7] = o[0], o[7]
    for k in (1, 3, 5):
        np.subtract(o[k], o[k + 1], out=y[k])
        np.add(o[k], o[k + 1], out=y[k + 1])


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
