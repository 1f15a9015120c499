"""Ground estimation (Section III-C1).

With rotation removed, Observation 2 applies: the normalised magnitude
``|v| / (R * y)`` of a static point depends only on its camera-frame height,
and the ground — the lowest surface in the scene — has the *smallest*
positive value.  The estimator therefore:

1. filters out vectors whose line does not pass near the calibrated FOE
   (noise and independently moving objects — Observation 1),
2. computes normalised magnitudes for the remaining below-horizon vectors,
3. thresholds them with the Triangle method (the ground forms the dominant
   low-end peak of the histogram),
4. wraps the accepted ground macroblocks in a convex hull, and
5. reports every non-ground macroblock whose centre falls inside that hull
   as a *foreground seed* — something standing on the ground.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grid import block_centers
from repro.geometry.camera import CameraIntrinsics
from repro.geometry.flow import normalized_magnitude
from repro.geometry.foe import radial_deviation
from repro.utils.convexhull import fill_convex_hull, monotone_chain
from repro.utils.thresholding import triangle_threshold

__all__ = ["GroundEstimate", "estimate_ground"]


@dataclass
class GroundEstimate:
    """Result of ground estimation on one frame.

    Attributes
    ----------
    ground_mask:
        ``(rows, cols)`` macroblocks classified as ground.
    hull:
        Convex hull of the ground region, ``(m, 2)`` in (col, row) block
        coordinates (empty when no ground was found).
    region_mask:
        Rasterised hull — every macroblock inside the ground region.
    seed_mask:
        Foreground seeds: inside the hull, not ground, and carrying a
        usable motion vector.
    normalized:
        Normalised magnitudes (NaN where unusable).
    threshold:
        The Triangle threshold actually used.
    """

    ground_mask: np.ndarray
    hull: np.ndarray
    region_mask: np.ndarray
    seed_mask: np.ndarray
    normalized: np.ndarray
    threshold: float

    @property
    def found(self) -> bool:
        return bool(self.ground_mask.any())


def field_geometry(mv: np.ndarray, intrinsics: CameraIntrinsics, foe: tuple[float, float], block: int) -> tuple:
    """``(x, y, vx, vy, magnitude, deviation)`` of one field — block centres, float MV
    components, their length, each vector's perpendicular deviation from its FOE radial:
    what ground estimation and the horizon constraint both read, computed once per frame."""
    x, y = block_centers(mv.shape[:2], intrinsics, block=block)
    vx, vy = mv[..., 0].astype(float), mv[..., 1].astype(float)
    return x, y, vx, vy, np.hypot(vx, vy), radial_deviation(x, y, vx, vy, foe)


def estimate_ground(
    mv: np.ndarray, intrinsics: CameraIntrinsics, *, foe: tuple[float, float] = (0.0, 0.0), block: int = 16,
    min_magnitude: float = 0.3, foe_tolerance: float = 0.45,
    min_y: float = 2.0, min_ground_blocks: int = 4, threshold_slack: float = 1.15,
) -> GroundEstimate:
    """Estimate the ground region of one (rotation-corrected) motion field.

    Parameters
    ----------
    mv:
        ``(rows, cols, 2)`` corrected motion field (float).
    foe:
        Calibrated FOE, centred coordinates.
    min_magnitude:
        Vectors shorter than this carry no geometry and are ignored.
    foe_tolerance:
        Maximum perpendicular MV component (pixels) w.r.t. the FOE radial
        for a vector to count as static-scene evidence; quarter-pel noise
        sits around 0.25 px.
    min_y:
        Blocks closer than this to the horizon line are skipped (the
        normalisation blows up at y -> 0).
    min_ground_blocks:
        Below this count the frame has no usable ground (returns an empty
        estimate; the caller falls back to the cached foreground).
    threshold_slack:
        Multiplier applied to the Triangle threshold before classifying.
        The Triangle corner lands near the upper edge of the ground peak;
        the slack admits the peak's full width (measurement noise) while
        objects — at >= 1.7x the ground's normalised magnitude — stay out.
    """
    geometry = field_geometry(mv, intrinsics, foe, block)
    return ground_from_geometry(geometry, foe, min_magnitude, foe_tolerance, min_y, min_ground_blocks, threshold_slack)


def ground_from_geometry(
    geometry: tuple, foe: tuple[float, float], min_magnitude: float, foe_tolerance: float,
    min_y: float = 2.0, min_ground_blocks: int = 4, threshold_slack: float = 1.15,
) -> GroundEstimate:
    """:func:`estimate_ground` on a :func:`field_geometry` the caller holds."""
    x, y, vx, vy, mag, deviation = geometry
    usable = mag >= min_magnitude
    candidates = usable & (deviation <= foe_tolerance) & ((y - foe[1]) >= min_y)

    norm = np.full(mag.shape, np.nan)
    norm[candidates] = normalized_magnitude(vx[candidates], vy[candidates], x[candidates], y[candidates], foe)
    # Ground values are positive; negatives can only arise from numerical corner cases right at the horizon.
    positive = candidates & (norm > 0)

    blank = np.zeros(mag.shape, dtype=bool)
    empty = GroundEstimate(
        ground_mask=blank, hull=np.empty((0, 2)), region_mask=blank.copy(), seed_mask=blank.copy(),
        normalized=norm, threshold=np.nan,
    )
    if int(positive.sum()) < min_ground_blocks:
        return empty

    threshold = float(triangle_threshold(norm[positive])) * threshold_slack
    ground = positive & (norm <= threshold)
    if int(ground.sum()) < min_ground_blocks:
        return empty

    # Only a column's topmost and bottommost ground blocks can be hull vertices; by column they are in chain order.
    columns = np.flatnonzero(ground.any(axis=0)).tolist()
    top = ground.argmax(axis=0).tolist()
    bottom = (len(ground) - 1 - ground[::-1].argmax(axis=0)).tolist()
    hull = monotone_chain([(c, r) for c in columns for r in sorted({top[c], bottom[c]})])
    if len(hull) < 3:
        return empty
    region = blank.copy()
    fill_convex_hull(region, hull)
    return GroundEstimate(
        ground_mask=ground, hull=np.array(hull, dtype=float), region_mask=region,
        seed_mask=region & ~ground & usable, normalized=norm, threshold=threshold,
    )
