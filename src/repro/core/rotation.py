"""Rotational-component elimination (Section III-B3).

Under vehicle-like motion (translation along z, rotation about x and y),
each motion vector yields one linear equation in the two unknown rotation
increments — Eq. (7); translation cancels from ``y*vx - x*vy``.  DiVE
solves the over-determined system with RANSAC over a carefully chosen
sample:

**R-sampling** picks the ``k`` non-zero vectors *closest to the calibrated
FOE*.  Near the FOE the translational component of a vector is small (it
scales with the distance R to the FOE) while the rotational component does
not, so these vectors have the best rotation signal-to-noise — the reason
R-sampling with 30 samples beats random sampling with 500 (Fig 7).

Each equation is normalised by R so that its residual is in pixels (the
perpendicular component of the vector), giving RANSAC an interpretable
inlier threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.camera import CameraIntrinsics
from repro.geometry.flow import rotational_flow
from repro.core.grid import block_centers
from repro.utils.ransac import ransac_linear

__all__ = ["RotationEstimate", "estimate_rotation", "r_sample", "remove_rotation"]


@dataclass(frozen=True)
class RotationEstimate:
    """Estimated per-frame rotation increments.

    Attributes
    ----------
    dphi_x, dphi_y:
        Pitch and yaw increments (radians/frame), right-handed camera-frame
        convention of :mod:`repro.geometry.flow`.
    n_samples:
        Number of vectors in the solved system.
    n_inliers:
        RANSAC inliers.
    residual:
        RMS inlier residual, pixels.
    """

    dphi_x: float
    dphi_y: float
    n_samples: int
    n_inliers: int
    residual: float

    def rates(self, fps: float) -> tuple[float, float]:
        """Rotation *speeds* (rad/s) at a given frame rate — the quantity
        compared against the IMU gyro in Figs 7 and 10."""
        return self.dphi_x * fps, self.dphi_y * fps


def r_sample(
    mv: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    *,
    k: int,
    foe: tuple[float, float] = (0.0, 0.0),
    min_magnitude: float = 0.5,
) -> np.ndarray:
    """Indices (flat) of the ``k`` usable vectors nearest the FOE.

    Parameters
    ----------
    mv:
        ``(rows, cols, 2)`` motion field.
    x, y:
        Block-centre coordinates (centred), same grid shape.
    k:
        Sample size (paper default 70 after Fig 10; 30 already beats
        random-500).
    foe:
        Calibrated FOE in centred coordinates.
    min_magnitude:
        Vectors shorter than this are unusable (no direction information).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    mag = np.hypot(mv[..., 0], mv[..., 1]).ravel()
    r = np.hypot(x.ravel() - foe[0], y.ravel() - foe[1])
    usable = mag >= min_magnitude
    if not usable.any():
        return np.empty(0, dtype=np.int64)
    order = np.argsort(np.where(usable, r, np.inf))
    return order[: min(k, int(usable.sum()))]


def estimate_rotation(
    mv: np.ndarray,
    intrinsics: CameraIntrinsics,
    *,
    k: int = 70,
    sampling: str = "r",
    foe: tuple[float, float] = (0.0, 0.0),
    block: int = 16,
    ransac_threshold: float = 0.75,
    rng: np.random.Generator | None = None,
) -> RotationEstimate | None:
    """Estimate the pitch/yaw increments of the current frame.

    Parameters
    ----------
    mv:
        ``(rows, cols, 2)`` motion field from the codec.
    sampling:
        ``"r"`` for R-sampling (paper) or ``"random"`` for the uniform
        baseline it is compared against in Fig 7.
    ransac_threshold:
        Inlier threshold on the R-normalised residual, pixels.

    Returns
    -------
    The estimate, or ``None`` when fewer than three usable vectors exist
    (e.g. the agent is stopped).
    """
    if sampling not in ("r", "random"):
        raise ValueError(f"sampling must be 'r' or 'random', got {sampling!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if rng is None:
        rng = np.random.default_rng(0)
    x, y = block_centers(mv.shape[:2], intrinsics, block=block)
    if sampling == "r":
        idx = r_sample(mv, x, y, k=k, foe=foe)
    else:
        mag = np.hypot(mv[..., 0], mv[..., 1]).ravel()
        usable = np.flatnonzero(mag >= 0.5)
        if usable.size == 0:
            return None
        idx = rng.choice(usable, size=min(k, usable.size), replace=False)
    if idx.size < 3:
        return None

    xs = x.ravel()[idx]
    ys = y.ravel()[idx]
    vxs = mv[..., 0].ravel()[idx].astype(float)
    vys = mv[..., 1].ravel()[idx].astype(float)
    f = intrinsics.focal
    r = np.hypot(xs - foe[0], ys - foe[1])
    r = np.maximum(r, 1e-6)
    # Eq. (7), normalised by R: residuals are in pixels.
    a = np.stack([-f * xs / r, -f * ys / r], axis=1)
    b = (ys * vxs - xs * vys) / r
    result = ransac_linear(a, b, threshold=ransac_threshold, rng=rng)
    return RotationEstimate(
        dphi_x=float(result.params[0]),
        dphi_y=float(result.params[1]),
        n_samples=int(idx.size),
        n_inliers=int(result.inliers.sum()),
        residual=result.residual,
    )


def remove_rotation(
    mv: np.ndarray,
    intrinsics: CameraIntrinsics,
    estimate: RotationEstimate,
    *,
    block: int = 16,
) -> np.ndarray:
    """Subtract the estimated rotational field from a motion field.

    Returns a float array of the same shape; the remainder is (up to noise)
    the pure translational field that the foreground-extraction geometry
    assumes.
    """
    x, y = block_centers(mv.shape[:2], intrinsics, block=block)
    rvx, rvy = rotational_flow(x, y, (estimate.dphi_x, estimate.dphi_y, 0.0), intrinsics.focal)
    out = mv.astype(float).copy()
    out[..., 0] -= rvx
    out[..., 1] -= rvy
    return out
