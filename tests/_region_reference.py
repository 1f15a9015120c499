"""DDS's region re-encode as it stood at 04affcf — the oracle.

``encode_region_update`` below is the parent commit's body, copied verbatim:
a full-frame residual masked with ``np.where``, one full-frame DCT, quantise
and cost every macroblock at one QP, keep the region's bits, then one
full-frame inverse transform.  ``tests/test_region_update.py`` compares
``RegionUpdate.bits`` / ``apply`` (and the one-shot wrapper) against it.
The transform steps come from ``repro`` — they are what both spellings share.
"""

from __future__ import annotations

import numpy as np

from repro.codec.transform import dct_blocks, dequantize, idct_blocks, quantize_cost


def encode_region_update(
    base: np.ndarray,
    target: np.ndarray,
    region_mask: np.ndarray,
    *,
    qp: float,
    block: int = 16,
) -> tuple[float, np.ndarray]:
    """Re-encode selected macroblocks of ``target`` at ``qp`` on top of ``base``.

    Models DDS's second pass: the server already holds the low-quality
    decode (``base``); the agent uploads only the feedback-region
    macroblocks, coded as a residual against that decode at high quality.

    Parameters
    ----------
    base:
        The image both sides already share.
    target:
        The (raw) frame the regions should be upgraded towards.
    region_mask:
        ``(mb_rows, mb_cols)`` boolean mask of macroblocks to upgrade.
    qp:
        QP of the upgrade.

    Returns
    -------
    ``(bits, updated_image)`` — the upload cost and the image after
    applying the upgrade.
    """
    base = np.asarray(base, dtype=np.float32)
    target = np.asarray(target, dtype=np.float32)
    mb_shape = (base.shape[0] // block, base.shape[1] // block)
    mask = np.asarray(region_mask, dtype=bool)
    if mask.shape != mb_shape:
        raise ValueError(f"region mask shape {mask.shape} != macroblock grid {mb_shape}")
    pixel_mask = np.kron(mask, np.ones((block, block), dtype=bool))
    residual = np.where(pixel_mask, target - base, 0.0)
    coeffs = dct_blocks(residual)
    qp_map = np.full(mb_shape, float(qp))
    levels, bits_per_mb = quantize_cost(coeffs, qp_map, mb_size=block)
    # Only region blocks are transmitted: coefficient bits plus 8 bits of
    # addressing per block, plus a message header.
    bits = float(bits_per_mb[mask].sum()) + 8.0 * int(mask.sum()) + 64.0
    recon_residual = idct_blocks(dequantize(levels, qp_map, mb_size=block))
    updated = np.clip(base + np.where(pixel_mask, recon_residual, 0.0), 0.0, 255.0).astype(np.float32)
    return bits, updated
