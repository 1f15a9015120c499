"""Image quality metrics: PSNR and SSIM.

Used by the analysis examples and tests to quantify codec distortion —
globally, or restricted to a region (the foreground/background split is
what differential encoding is all about).
"""

from __future__ import annotations

import numpy as np

__all__ = ["psnr", "region_psnr", "ssim"]

_MAX_LEVEL = 255.0


def psnr(reference: np.ndarray, test: np.ndarray, *, max_level: float = _MAX_LEVEL) -> float:
    """Peak signal-to-noise ratio in dB (``inf`` for identical images)."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
    mse = float(np.mean((reference - test) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(max_level**2 / mse)


def region_psnr(
    reference: np.ndarray,
    test: np.ndarray,
    mask: np.ndarray,
    *,
    max_level: float = _MAX_LEVEL,
) -> float:
    """PSNR over the pixels selected by a boolean mask.

    Returns ``nan`` for an empty mask (no pixels to compare).
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != reference.shape:
        raise ValueError(f"mask shape {mask.shape} != image shape {reference.shape}")
    if not mask.any():
        return float("nan")
    mse = float(np.mean((reference[mask] - test[mask]) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(max_level**2 / mse)


def ssim(
    reference: np.ndarray,
    test: np.ndarray,
    *,
    window: int = 7,
    max_level: float = _MAX_LEVEL,
) -> float:
    """Mean structural similarity (uniform-window SSIM).

    The standard formulation of Wang et al. with a ``window``-sized moving
    average; returns a value in ``[-1, 1]`` (1 for identical images).
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
    if window < 3 or window % 2 == 0:
        raise ValueError("window must be an odd integer >= 3")
    from scipy.ndimage import uniform_filter  # here, so that importing the codec loads no scipy module

    c1 = (0.01 * max_level) ** 2
    c2 = (0.03 * max_level) ** 2
    mu_r = uniform_filter(reference, window)
    mu_t = uniform_filter(test, window)
    var_r = uniform_filter(reference**2, window) - mu_r**2
    var_t = uniform_filter(test**2, window) - mu_t**2
    cov = uniform_filter(reference * test, window) - mu_r * mu_t
    num = (2 * mu_r * mu_t + c1) * (2 * cov + c2)
    den = (mu_r**2 + mu_t**2 + c1) * (var_r + var_t + c2)
    return float(np.mean(num / den))
