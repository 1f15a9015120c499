"""The foreground stage as it stood at e3fcff0 — the oracle.

Every body below is the parent commit's, copied verbatim (``core/grid.py``,
``utils/convexhull.py``, ``core/clustering.py``, ``core/ground.py``,
``core/foreground.py``; the one edit is that ``_static_above_horizon`` lost its
two function-level imports, so that it binds this module's ``block_centers``
and not the memoised one): per-neighbour ``np.hypot`` on two-element arrays,
``Cluster.add`` per block, ``np.unique`` + a NumPy-scalar monotone chain, an
even-odd test over the whole grid per hull, geometry rebuilt per consumer.
``tests/test_foreground_oracle.py`` compares everything the rewritten stage
publishes against it.  Only the containers that carry results
(``GroundEstimate``, ``ForegroundConfig``, ``ForegroundResult``) and the
helpers the rewrite did not touch (``radial_deviation``,
``normalized_magnitude``, ``triangle_threshold``) come from ``repro``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.foreground import ForegroundConfig, ForegroundResult
from repro.core.ground import GroundEstimate
from repro.geometry.camera import CameraIntrinsics
from repro.geometry.flow import normalized_magnitude
from repro.geometry.foe import radial_deviation
from repro.utils.thresholding import triangle_threshold


# -------------------------------------------------------------- core/grid.py

def block_centers(
    grid_shape: tuple[int, int],
    intrinsics: CameraIntrinsics,
    *,
    block: int = 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Centred image coordinates of every macroblock centre.

    Parameters
    ----------
    grid_shape:
        ``(mb_rows, mb_cols)``.
    intrinsics:
        Camera intrinsics (for the principal point).
    block:
        Macroblock size in pixels.

    Returns
    -------
    ``(x, y)`` arrays of shape ``grid_shape``, in principal-point-centred
    coordinates — the coordinates the paper's flow equations use.
    """
    rows, cols = grid_shape
    px = (np.arange(cols) + 0.5) * block - 0.5
    py = (np.arange(rows) + 0.5) * block - 0.5
    xs, ys = intrinsics.centered_from_pixels(px, py)
    x_grid, y_grid = np.meshgrid(xs, ys)
    return x_grid, y_grid

# ------------------------------------------------------- utils/convexhull.py

def _cross(o: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """2-D cross product of vectors ``oa`` and ``ob``.

    Positive when ``o``->``a``->``b`` makes a counter-clockwise turn in a
    y-up frame (clockwise in the image's y-down frame; hull code only relies
    on the sign being consistent).
    """
    return float((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]))


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Return the convex hull of a point set as an ``(m, 2)`` array.

    Vertices are returned in counter-clockwise order (y-up convention)
    starting from the lexicographically smallest point.  Degenerate inputs
    (fewer than three distinct points, or all collinear) return the distinct
    extreme points.

    Parameters
    ----------
    points:
        ``(n, 2)`` array of ``(x, y)`` coordinates.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    uniq = np.unique(pts, axis=0)
    order = np.lexsort((uniq[:, 1], uniq[:, 0]))
    uniq = uniq[order]
    n = len(uniq)
    if n <= 2:
        return uniq.copy()

    lower: list[np.ndarray] = []
    for p in uniq:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in uniq[::-1]:
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:  # collinear input collapses to its two extremes
        return np.array([lower[0], lower[-1]])
    return hull


def points_in_polygon(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Vectorised even-odd point-in-polygon test.

    Boundary points are reported inside (within a small tolerance), which is
    what the foreground-seed selection needs: macroblocks on the hull edge of
    the ground region still count as standing inside it.

    Parameters
    ----------
    points:
        ``(n, 2)`` query points.
    polygon:
        ``(m, 2)`` polygon vertices in order.

    Returns
    -------
    ``(n,)`` boolean array.
    """
    pts = np.asarray(points, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    n = len(pts)
    if poly.ndim != 2 or len(poly) < 3:
        if len(poly) == 2:  # segment: inside means on the segment
            return _on_segment(pts, poly[0], poly[1])
        if len(poly) == 1:
            return np.all(np.isclose(pts, poly[0]), axis=1)
        return np.zeros(n, dtype=bool)

    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(n, dtype=bool)
    on_edge = np.zeros(n, dtype=bool)
    x1s, y1s = poly[:, 0], poly[:, 1]
    x2s, y2s = np.roll(x1s, -1), np.roll(y1s, -1)
    for x1, y1, x2, y2 in zip(x1s, y1s, x2s, y2s):
        on_edge |= _on_segment(pts, np.array([x1, y1]), np.array([x2, y2]))
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at_y = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < x_at_y)
    return inside | on_edge


def _on_segment(pts: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    ab = b - a
    ap = pts - a
    cross = ap[:, 0] * ab[1] - ap[:, 1] * ab[0]
    dot = ap[:, 0] * ab[0] + ap[:, 1] * ab[1]
    norm2 = float(ab @ ab)
    if norm2 == 0.0:
        return np.all(np.isclose(pts, a, atol=tol), axis=1)
    return (np.abs(cross) <= tol * max(1.0, np.sqrt(norm2))) & (dot >= -tol) & (dot <= norm2 + tol)


def rasterize_polygon(polygon: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Rasterise a polygon onto a grid of the given ``(rows, cols)`` shape.

    Grid cell ``(r, c)`` is marked when its centre ``(c, r)`` (x = column,
    y = row) lies inside the polygon.  DiVE uses this to turn the ground
    convex hull back into a macroblock mask.
    """
    rows, cols = shape
    cc, rr = np.meshgrid(np.arange(cols, dtype=float), np.arange(rows, dtype=float))
    pts = np.stack([cc.ravel(), rr.ravel()], axis=1)
    return points_in_polygon(pts, polygon).reshape(rows, cols)

# -------------------------------------------------------- core/clustering.py

@dataclass
class Cluster:
    """A cluster of macroblocks with its running mean motion vector."""

    blocks: list[tuple[int, int]] = field(default_factory=list)
    mean_mv: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def add(self, block: tuple[int, int], mv: np.ndarray) -> None:
        n = len(self.blocks)
        self.mean_mv = (self.mean_mv * n + mv) / (n + 1)
        self.blocks.append(block)

    @property
    def size(self) -> int:
        return len(self.blocks)

    def bounding_box(self) -> tuple[int, int, int, int]:
        """``(r0, c0, r1, c1)`` inclusive-exclusive block bounds."""
        rows = [b[0] for b in self.blocks]
        cols = [b[1] for b in self.blocks]
        return min(rows), min(cols), max(rows) + 1, max(cols) + 1


def region_grow(
    mv: np.ndarray,
    seed_mask: np.ndarray,
    *,
    blocked_mask: np.ndarray | None = None,
    similarity: float = 1.5,
    min_cluster_size: int = 1,
    min_magnitude: float = 0.3,
) -> list[Cluster]:
    """Grow clusters from seeds by BFS over similar motion vectors.

    Parameters
    ----------
    mv:
        ``(rows, cols, 2)`` motion field (float).
    seed_mask:
        Boolean mask of seed macroblocks.
    blocked_mask:
        Macroblocks clusters may never grow into (the classified ground).
    similarity:
        Maximum Euclidean MV difference (pixels) for a neighbour to join,
        applied against both the neighbouring block and the cluster mean.
    min_cluster_size:
        Clusters smaller than this are discarded.
    min_magnitude:
        Blocks whose MV is shorter than this carry no motion evidence and
        can never be grown into.  Without this, clusters creep across the
        zero-MV sky/haze blocks (whose vectors trivially resemble any small
        mean) and eventually swallow the whole frame.
    """
    rows, cols = mv.shape[:2]
    if seed_mask.shape != (rows, cols):
        raise ValueError(f"seed mask shape {seed_mask.shape} != grid {(rows, cols)}")
    blocked = np.zeros((rows, cols), dtype=bool) if blocked_mask is None else blocked_mask
    magnitude = np.hypot(mv[..., 0], mv[..., 1])
    visited = blocked | (magnitude < min_magnitude)
    visited &= ~seed_mask.astype(bool)  # seeds always start their cluster
    clusters: list[Cluster] = []
    mvf = mv.astype(float)

    seeds = list(zip(*np.nonzero(seed_mask)))
    for seed in seeds:
        r0, c0 = int(seed[0]), int(seed[1])
        if visited[r0, c0]:
            continue
        cluster = Cluster()
        cluster.add((r0, c0), mvf[r0, c0])
        visited[r0, c0] = True
        queue: deque[tuple[int, int]] = deque([(r0, c0)])
        while queue:
            r, c = queue.popleft()
            v_here = mvf[r, c]
            for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                nr, nc = r + dr, c + dc
                if not (0 <= nr < rows and 0 <= nc < cols) or visited[nr, nc]:
                    continue
                v_n = mvf[nr, nc]
                if (
                    np.hypot(*(v_n - v_here)) <= similarity
                    and np.hypot(*(v_n - cluster.mean_mv)) <= similarity
                ):
                    visited[nr, nc] = True
                    cluster.add((nr, nc), v_n)
                    queue.append((nr, nc))
        if cluster.size >= min_cluster_size:
            clusters.append(cluster)
    return clusters


def _direction_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle (radians) between two mean MVs; pi when either is ~zero."""
    na, nb = np.hypot(*a), np.hypot(*b)
    if na < 1e-9 or nb < 1e-9:
        return np.pi
    cos = float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))
    return float(np.arccos(cos))


def _block_distance(a: Cluster, b: Cluster) -> int:
    """Minimum Chebyshev distance between the clusters' blocks."""
    ab = np.array(a.blocks)
    bb = np.array(b.blocks)
    d = np.abs(ab[:, None, :] - bb[None, :, :]).max(axis=2)
    return int(d.min())


def merge_clusters(
    clusters: list[Cluster],
    *,
    max_angle: float = np.pi / 8,
    max_magnitude_ratio: float = 2.5,
    max_distance: int = 2,
) -> list[Cluster]:
    """Iteratively merge nearby clusters with similar mean-MV directions.

    Two clusters merge when their mean vectors point within ``max_angle``
    of each other, their magnitudes differ by at most a factor of
    ``max_magnitude_ratio``, and they lie within ``max_distance`` blocks.
    Repeats until a fixpoint, as in the paper.
    """
    merged = [Cluster(blocks=list(c.blocks), mean_mv=c.mean_mv.copy()) for c in clusters]
    changed = True
    while changed:
        changed = False
        for i in range(len(merged)):
            if merged[i] is None:
                continue
            for j in range(i + 1, len(merged)):
                if merged[j] is None:
                    continue
                a, b = merged[i], merged[j]
                if _direction_angle(a.mean_mv, b.mean_mv) > max_angle:
                    continue
                ma, mb = np.hypot(*a.mean_mv), np.hypot(*b.mean_mv)
                lo, hi = min(ma, mb), max(ma, mb)
                if lo > 1e-9 and hi / lo > max_magnitude_ratio:
                    continue
                if _block_distance(a, b) > max_distance:
                    continue
                total = a.size + b.size
                a.mean_mv = (a.mean_mv * a.size + b.mean_mv * b.size) / total
                a.blocks.extend(b.blocks)
                merged[j] = None
                changed = True
    return [c for c in merged if c is not None]


def clusters_to_mask(clusters: list[Cluster], grid_shape: tuple[int, int]) -> np.ndarray:
    """Foreground mask: the convex contour of each cluster, rasterised.

    This is the final step of Fig 8 — filling the holes that sparse motion
    vectors leave inside objects.
    """
    mask = np.zeros(grid_shape, dtype=bool)
    for cluster in clusters:
        pts = np.array([(c, r) for r, c in cluster.blocks], dtype=float)
        if len(pts) == 0:
            continue
        if len(pts) < 3:
            for r, c in cluster.blocks:
                mask[r, c] = True
            continue
        hull = convex_hull(pts)
        if len(hull) < 3:
            for r, c in cluster.blocks:
                mask[r, c] = True
            continue
        mask |= rasterize_polygon(hull, grid_shape)
    return mask

# ------------------------------------------------------------ core/ground.py

def estimate_ground(
    mv: np.ndarray,
    intrinsics: CameraIntrinsics,
    *,
    foe: tuple[float, float] = (0.0, 0.0),
    block: int = 16,
    min_magnitude: float = 0.3,
    foe_tolerance: float = 0.45,
    min_y: float = 2.0,
    min_ground_blocks: int = 4,
    threshold_slack: float = 1.15,
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
    rows, cols = mv.shape[:2]
    x, y = block_centers((rows, cols), intrinsics, block=block)
    vx, vy = mv[..., 0].astype(float), mv[..., 1].astype(float)
    mag = np.hypot(vx, vy)

    usable = mag >= min_magnitude
    static = radial_deviation(x, y, vx, vy, foe) <= foe_tolerance
    below_horizon = (y - foe[1]) >= min_y
    candidates = usable & static & below_horizon

    norm = np.full((rows, cols), np.nan)
    norm[candidates] = normalized_magnitude(
        vx[candidates], vy[candidates], x[candidates], y[candidates], foe
    )
    # Ground values are positive; negatives can only arise from numerical
    # corner cases right at the horizon.
    positive = candidates & (norm > 0)

    empty = GroundEstimate(
        ground_mask=np.zeros((rows, cols), dtype=bool),
        hull=np.empty((0, 2)),
        region_mask=np.zeros((rows, cols), dtype=bool),
        seed_mask=np.zeros((rows, cols), dtype=bool),
        normalized=norm,
        threshold=np.nan,
    )
    if int(positive.sum()) < min_ground_blocks:
        return empty

    threshold = float(triangle_threshold(norm[positive])) * threshold_slack
    ground = positive & (norm <= threshold)
    if int(ground.sum()) < min_ground_blocks:
        return empty

    gr, gc = np.nonzero(ground)
    hull = convex_hull(np.stack([gc.astype(float), gr.astype(float)], axis=1))
    if len(hull) < 3:
        return empty
    region = rasterize_polygon(hull, (rows, cols))
    seeds = region & ~ground & usable
    return GroundEstimate(
        ground_mask=ground,
        hull=hull,
        region_mask=region,
        seed_mask=seeds,
        normalized=norm,
        threshold=float(threshold),
    )

# -------------------------------------------------------- core/foreground.py

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

    def extract(
        self,
        mv: np.ndarray,
        *,
        moving: bool,
        foe: tuple[float, float] = (0.0, 0.0),
    ) -> ForegroundResult:
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
        if not moving:
            if self._last_mask is not None:
                return ForegroundResult(
                    mask=self._last_mask.copy(), clusters=[], ground=None, cached=True
                )
            return ForegroundResult(
                mask=np.ones(grid_shape, dtype=bool), clusters=[], ground=None, fallback=True
            )

        ground = estimate_ground(
            mv,
            self.intrinsics,
            foe=foe,
            block=self.block,
            min_magnitude=cfg.min_magnitude,
            foe_tolerance=cfg.foe_tolerance if cfg.enable_foe_filter else float("inf"),
        )
        if not ground.found:
            if self._last_mask is not None:
                return ForegroundResult(mask=self._last_mask.copy(), clusters=[], ground=ground, cached=True)
            return ForegroundResult(
                mask=np.ones(grid_shape, dtype=bool), clusters=[], ground=ground, fallback=True
            )

        blocked = ground.ground_mask
        if cfg.horizon_margin >= 0:
            blocked = blocked | self._static_above_horizon(mv, foe, cfg)
        clusters = region_grow(
            mv,
            ground.seed_mask & ~blocked,
            blocked_mask=blocked,
            similarity=cfg.similarity,
            min_cluster_size=cfg.min_cluster_size,
            min_magnitude=cfg.min_magnitude,
        )
        if cfg.enable_merging:
            clusters = merge_clusters(
                clusters,
                max_angle=cfg.merge_max_angle,
                max_distance=cfg.merge_max_distance,
            )
        mask = clusters_to_mask(clusters, grid_shape)
        if cfg.dilate > 0 and mask.any():
            mask = _dilate(mask, cfg.dilate)
        # The convex contours may re-cover blocked territory; strike it out
        # again before publishing.
        if cfg.horizon_margin >= 0:
            mask &= ~self._static_above_horizon(mv, foe, cfg)
        # Temporal union over the last few raw extractions (flicker repair).
        if cfg.temporal_window > 1:
            self._recent_masks.append(mask.copy())
            self._recent_masks = self._recent_masks[-cfg.temporal_window :]
            for old in self._recent_masks[:-1]:
                mask |= old
        # The ground itself is never foreground, however the hulls landed.
        mask &= ~ground.ground_mask
        self._last_mask = mask.copy()
        return ForegroundResult(mask=mask, clusters=clusters, ground=ground)


    def _static_above_horizon(
        self, mv: np.ndarray, foe: tuple[float, float], cfg: ForegroundConfig
    ) -> np.ndarray:
        """Static-scene blocks above the horizon line (building/sky mass)."""
        x, y = block_centers(mv.shape[:2], self.intrinsics, block=self.block)
        vx, vy = mv[..., 0].astype(float), mv[..., 1].astype(float)
        static = radial_deviation(x, y, vx, vy, foe) <= cfg.foe_tolerance
        above = (y - foe[1]) < -cfg.horizon_margin
        return static & above


def _dilate(mask: np.ndarray, steps: int) -> np.ndarray:
    out = mask.copy()
    for _ in range(steps):
        grown = out.copy()
        grown[1:, :] |= out[:-1, :]
        grown[:-1, :] |= out[1:, :]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        out = grown
    return out
