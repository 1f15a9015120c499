"""The complete foreground-extraction pipeline (Section III-C, Fig 8).

Per frame: rotation-corrected motion field -> ground estimation ->
region-growing clustering from the ground seeds -> cluster merging ->
convex foreground contours.  When the agent is stopped (no usable motion
vectors), the latest extracted foreground is reused, exactly as the paper
specifies; before anything has been extracted, the extractor falls back to
marking everything foreground (safe: full quality everywhere).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clustering import Cluster, foreground_clusters
from repro.core.ground import GroundEstimate, field_geometry, ground_from_geometry
from repro.geometry.camera import CameraIntrinsics

__all__ = ["ForegroundConfig", "ForegroundExtractor", "ForegroundResult"]


@dataclass(frozen=True)
class ForegroundConfig:
    """Tunables of foreground extraction.

    Attributes
    ----------
    min_magnitude:
        Minimum usable MV length, pixels.
    foe_tolerance:
        Maximum perpendicular MV component (pixels, w.r.t. the FOE radial)
        for a vector to count as static scene.
    similarity:
        Region-growing MV similarity threshold, pixels.
    merge_max_angle:
        Maximum mean-MV angle between merged clusters, radians.
    merge_max_distance:
        Maximum block distance between merged clusters.
    min_cluster_size:
        Clusters smaller than this are noise and dropped.
    dilate:
        Safety margin, in macroblocks, grown around the final foreground
        (objects' edges often straddle block boundaries).
    temporal_window:
        The published mask is the union of the last ``temporal_window``
        per-frame extractions.  MV evidence flickers (an object pacing the
        ego has near-zero relative motion on some frames), but objects
        move at most a block or two per frame, so a short union recovers
        the flickered frames at a small foreground-size cost.  1 disables.
    horizon_margin:
        Static-scene blocks more than this many pixels *above* the horizon
        (the FOE row) can never join a foreground cluster.  Objects stand
        on the ground, and nothing shorter than the camera height projects
        above the horizon — what does is buildings and sky, the main
        false-positive mass of the mask.  Laterally moving blocks
        (FOE-inconsistent) stay eligible: a close pedestrian's head can
        cross the line.  Negative disables the constraint.
    enable_merging:
        Ablation switch for the cluster-merging stage.
    enable_foe_filter:
        Ablation switch for the FOE-consistency noise filter.
    """

    min_magnitude: float = 0.3
    foe_tolerance: float = 0.45
    similarity: float = 1.5
    merge_max_angle: float = float(np.pi / 8)
    merge_max_distance: int = 2
    min_cluster_size: int = 2
    dilate: int = 1
    temporal_window: int = 3
    horizon_margin: float = 8.0
    enable_merging: bool = True
    enable_foe_filter: bool = True

    def __post_init__(self) -> None:
        # Written so that NaN fails each check: each value would switch a
        # stage off without a word (no growth, no ground, every near pair
        # merged, no horizon constraint).
        checks = (
            ("similarity", self.similarity >= 0, ">= 0"),
            ("min_magnitude", self.min_magnitude >= 0, ">= 0"),
            ("foe_tolerance", self.foe_tolerance >= 0, ">= 0"),
            ("merge_max_angle", self.merge_max_angle >= 0, ">= 0"),
            ("merge_max_distance", 0 <= self.merge_max_distance < float("inf"), "finite and >= 0"),
            ("horizon_margin", self.horizon_margin == self.horizon_margin, "a number (negative disables it)"),
        )
        for name, ok, rule in checks:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class ForegroundResult:
    """Foreground extraction output for one frame.

    Attributes
    ----------
    mask:
        ``(rows, cols)`` foreground macroblock mask.
    clusters:
        Merged clusters (empty when cached or fallback).
    ground:
        The ground estimate (``None`` when cached or fallback).
    cached:
        True when the stopped-agent path reused the previous foreground.
    fallback:
        True when nothing could be extracted and the mask defaulted to
        all-foreground.
    """

    mask: np.ndarray
    clusters: list[Cluster]
    ground: GroundEstimate | None
    cached: bool = False
    fallback: bool = False

    @property
    def foreground_fraction(self) -> float:
        return float(self.mask.mean())


class ForegroundExtractor:
    """Stateful per-clip foreground extractor."""

    def __init__(self, intrinsics: CameraIntrinsics, config: ForegroundConfig | None = None, *, block: int = 16):
        self.intrinsics = intrinsics
        self.config = config or ForegroundConfig()
        self.block = block
        self._last_mask: np.ndarray | None = None
        self._recent_masks: list[np.ndarray] = []

    def reset(self) -> None:
        self._last_mask = None
        self._recent_masks = []

    def extract(self, mv: np.ndarray, *, moving: bool, foe: tuple[float, float] = (0.0, 0.0)) -> ForegroundResult:
        """Extract the foreground of one frame.

        Parameters
        ----------
        mv:
            Rotation-corrected motion field, ``(rows, cols, 2)`` float.
        moving:
            Ego-motion judgement for this frame; when False the cached
            foreground is reused (Section III-A, FE component).
        foe:
            Calibrated FOE in centred image coordinates.
        """
        grid_shape = mv.shape[:2]
        cfg = self.config
        if self._last_mask is not None and self._last_mask.shape != grid_shape:
            raise ValueError(f"grid changed from {self._last_mask.shape} to {grid_shape}; call reset()")
        ground = None
        if moving:
            # One geometry per frame: ground estimation and the horizon constraint below both read it.
            geometry = field_geometry(mv, self.intrinsics, foe, self.block)
            foe_tolerance = cfg.foe_tolerance if cfg.enable_foe_filter else float("inf")
            ground = ground_from_geometry(geometry, foe, cfg.min_magnitude, foe_tolerance)
        if ground is None or not ground.found:
            if self._last_mask is not None:
                return ForegroundResult(mask=self._last_mask.copy(), clusters=[], ground=ground, cached=True)
            return ForegroundResult(mask=np.ones(grid_shape, dtype=bool), clusters=[], ground=ground, fallback=True)

        # Static-scene blocks above the horizon line (building/sky mass).
        above_horizon = np.zeros(grid_shape, dtype=bool)
        if cfg.horizon_margin >= 0:
            _, y, _, _, _, deviation = geometry
            above_horizon = (deviation <= cfg.foe_tolerance) & ((y - foe[1]) < -cfg.horizon_margin)
        blocked = ground.ground_mask | above_horizon
        clusters, mask = foreground_clusters(
            mv, ground.seed_mask & ~blocked, blocked_mask=blocked, similarity=cfg.similarity,
            min_cluster_size=cfg.min_cluster_size, min_magnitude=cfg.min_magnitude, merge=cfg.enable_merging,
            max_angle=cfg.merge_max_angle, max_distance=cfg.merge_max_distance,
        )
        if cfg.dilate > 0 and mask.any():
            mask = _dilate(mask, cfg.dilate)
        # The convex contours may re-cover blocked territory; strike it out again before publishing.
        mask &= ~above_horizon
        # Temporal union over the last few raw extractions (flicker repair).
        if cfg.temporal_window > 1:
            self._recent_masks = [*self._recent_masks, mask.copy()][-cfg.temporal_window :]
            for old in self._recent_masks[:-1]:
                mask |= old
        # The ground itself is never foreground, however the hulls landed.
        mask &= ~ground.ground_mask
        self._last_mask = mask.copy()
        return ForegroundResult(mask=mask, clusters=clusters, ground=ground)


def _dilate(mask: np.ndarray, steps: int) -> np.ndarray:
    for _ in range(steps):
        grown = mask.copy()
        grown[1:, :] |= mask[:-1, :]
        grown[:-1, :] |= mask[1:, :]
        grown[:, 1:] |= mask[:, :-1]
        grown[:, :-1] |= mask[:, 1:]
        mask = grown
    return mask
