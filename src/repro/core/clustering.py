"""Region-growing foreground clustering and cluster merging (Section III-C2).

Starting from the foreground seeds (non-ground macroblocks standing inside
the ground region), a breadth-first search grows each cluster across
4-connected neighbours whose motion vector is similar both to the current
block *and* to the cluster's running mean — the second condition is the
paper's guard against over-growing into the background.

Because codec motion vectors are sparse and coarse, a single object often
fragments into several clusters with holes; clusters whose mean vectors
point in similar directions are therefore merged iteratively, and the final
foreground regions are the convex contours of the merged clusters.

:func:`foreground_clusters` runs the three steps as one kernel hook
(``foreground_clusters``): the compiled backend answers a frame in one call,
and :func:`region_grow` -> :func:`merge_clusters` -> :func:`clusters_to_mask`
is its reference, which answers whatever the hook declines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.utils.convexhull import fill_convex_hull, monotone_chain

__all__ = ["Cluster", "clusters_to_mask", "foreground_clusters", "merge_clusters", "region_grow"]

#: ``math.hypot`` decides a block's distance from the running mean only when it
#: lands further than this (relative) from ``similarity``; closer, ``np.hypot`` —
#: what this module used to evaluate per neighbour per block — decides, so no
#: outcome rests on CPython's hypot and libm's agreeing to the last bit.
_GUARD = 1e-9


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
        rows, cols = zip(*self.blocks)
        return min(rows), min(cols), max(rows) + 1, max(cols) + 1


def region_grow(
    mv: np.ndarray, seed_mask: np.ndarray, *, blocked_mask: np.ndarray | None = None,
    similarity: float = 1.5, min_cluster_size: int = 1, min_magnitude: float = 0.3,
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
    _check_growth(similarity, min_magnitude)
    rows, cols = mv.shape[:2]
    if seed_mask.shape != (rows, cols):
        raise ValueError(f"seed mask shape {seed_mask.shape} != grid {(rows, cols)}")
    blocked = np.zeros((rows, cols), dtype=bool) if blocked_mask is None else blocked_mask
    visited = blocked | (np.hypot(mv[..., 0], mv[..., 1]) < min_magnitude)
    visited &= ~seed_mask.astype(bool)  # seeds always start their cluster
    mvf = mv.astype(float)
    # The block-to-neighbour test for every edge of the grid at once (hypot is sign-symmetric,
    # so one difference serves both ends of an edge), then the grid flattened into Python lists:
    # block i = r * cols + c has neighbours i + 1, i - 1, i + cols, i - cols, linked or not.
    steps = (mvf[:, 1:] - mvf[:, :-1], mvf[1:] - mvf[:-1])
    across, down = (np.hypot(step[..., 0], step[..., 1]) <= similarity for step in steps)
    link = np.zeros((4, rows, cols), dtype=bool)
    link[0, :, :-1], link[1, :, 1:], link[2, :-1], link[3, 1:] = across, across, down, down
    right, left, below, above = link.reshape(4, rows * cols).tolist()
    seen, vx, vy = visited.ravel().tolist(), mvf[..., 0].ravel().tolist(), mvf[..., 1].ravel().tolist()
    band = _GUARD * max(1.0, abs(similarity))

    clusters: list[Cluster] = []
    for seed in np.flatnonzero(seed_mask).tolist():
        if seen[seed]:
            continue
        seen[seed] = True
        # The running mean as two Python floats, by Cluster.add's expression (the seed too: -0.0 becomes 0.0).
        mean_x, mean_y = (0.0 * 0 + vx[seed]) / 1, (0.0 * 0 + vy[seed]) / 1
        members = [seed]
        for i in members:  # breadth first: the list is its own queue
            for j, linked in ((i + 1, right[i]), (i - 1, left[i]), (i + cols, below[i]), (i - cols, above[i])):
                if not linked or seen[j]:
                    continue
                dx, dy = vx[j] - mean_x, vy[j] - mean_y
                gap = math.hypot(dx, dy)
                if abs(gap - similarity) <= band:
                    gap = _reference_gap(dx, dy)
                if gap <= similarity:
                    seen[j] = True
                    n = len(members)
                    mean_x, mean_y = (mean_x * n + vx[j]) / (n + 1), (mean_y * n + vy[j]) / (n + 1)
                    members.append(j)
        if len(members) >= min_cluster_size:
            clusters.append(Cluster([divmod(i, cols) for i in members], np.array([mean_x, mean_y])))
    return clusters


def _check_growth(similarity: float, min_magnitude: float) -> None:
    """Region growing's thresholds, written so that NaN fails each check: a NaN
    or negative ``similarity`` grows nothing, a NaN ``min_magnitude`` silently
    admits the zero-MV blocks it exists to keep out."""
    if not similarity >= 0:
        raise ValueError(f"similarity must be >= 0, got {similarity!r}")
    if not min_magnitude >= 0:
        raise ValueError(f"min_magnitude must be >= 0, got {min_magnitude!r}")


def _check_merge(max_angle: float, max_magnitude_ratio: float, max_distance: float) -> None:
    """Merging's thresholds, written so that NaN fails each check: a NaN angle
    or ratio would merge every near pair, a negative distance none."""
    if not max_angle >= 0:
        raise ValueError(f"max_angle must be >= 0, got {max_angle!r}")
    if not max_magnitude_ratio >= 1:
        raise ValueError(f"max_magnitude_ratio must be >= 1, got {max_magnitude_ratio!r}")
    if not 0 <= max_distance < float("inf"):
        raise ValueError(f"max_distance must be finite and >= 0, got {max_distance!r}")


def _reference_gap(dx: float, dy: float) -> float:
    """``np.hypot``, the spelling that decides a near-tie with ``similarity``."""
    return float(np.hypot(dx, dy))


def _direction_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle (radians) between two mean MVs; pi when either is ~zero."""
    na, nb = np.hypot(*a), np.hypot(*b)
    if na < 1e-9 or nb < 1e-9:
        return np.pi
    cos = float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))
    return float(np.arccos(cos))


def _pair_view(cluster: Cluster) -> tuple:
    """``(norm, cells, box)``: what the cheap pair tests of :func:`merge_clusters`
    read of a cluster — the length of its mean, its blocks as a set, their bounds."""
    box = cluster.bounding_box() if cluster.blocks else (0, 0, 0, 0)
    return float(np.hypot(*cluster.mean_mv)), set(cluster.blocks), box


def _near(blocks: list, box: tuple, cells: set, other_box: tuple, reach: int) -> bool:
    """Is some block of ``blocks`` (bounded by ``box``) within Chebyshev distance
    ``reach`` of a block in ``cells`` (bounded by ``other_box``)?"""
    r0, c0, r1, c1 = other_box
    if max(r0 - box[2], box[0] - r1, c0 - box[3], box[1] - c1) >= reach:
        return False  # the boxes alone are further apart (upper bounds are exclusive)
    span = range(-reach, reach + 1)
    return any(
        (r + dr, c + dc) in cells
        for r, c in blocks if r0 - reach <= r < r1 + reach and c0 - reach <= c < c1 + reach
        for dr in span for dc in span
    )


def merge_clusters(
    clusters: list[Cluster], *, max_angle: float = np.pi / 8, max_magnitude_ratio: float = 2.5, max_distance: int = 2
) -> list[Cluster]:
    """Iteratively merge nearby clusters with similar mean-MV directions.

    Two clusters merge when their mean vectors point within ``max_angle``
    of each other, their magnitudes differ by at most a factor of
    ``max_magnitude_ratio``, and they lie within ``max_distance`` blocks.
    Repeats until a fixpoint, as in the paper.
    """
    _check_merge(max_angle, max_magnitude_ratio, max_distance)
    merged = [Cluster(blocks=list(c.blocks), mean_mv=c.mean_mv.copy()) for c in clusters]
    views = [_pair_view(c) for c in merged]
    reach = math.floor(max_distance)  # block distances are whole numbers
    changed = True
    while changed:
        changed = False
        for i in range(len(merged)):
            if merged[i] is None:
                continue
            for j in range(i + 1, len(merged)):
                if merged[j] is None:
                    continue
                # Cheapest first: distance on tuples, magnitudes on cached floats, the angle last.
                a, b = merged[i], merged[j]
                (na, _, a_box), (nb, b_cells, b_box) = views[i], views[j]
                if not _near(a.blocks, a_box, b_cells, b_box, reach):
                    continue
                if min(na, nb) > 1e-9 and max(na, nb) / min(na, nb) > max_magnitude_ratio:
                    continue
                if _direction_angle(a.mean_mv, b.mean_mv) > max_angle:
                    continue
                total = a.size + b.size
                a.mean_mv = (a.mean_mv * a.size + b.mean_mv * b.size) / total
                a.blocks.extend(b.blocks)
                merged[j], views[i] = None, _pair_view(a)
                changed = True
    return [c for c in merged if c is not None]


def clusters_to_mask(clusters: list[Cluster], grid_shape: tuple[int, int]) -> np.ndarray:
    """Foreground mask: the convex contour of each cluster, rasterised.

    This is the final step of Fig 8 — filling the holes that sparse motion
    vectors leave inside objects.  A block outside the grid is an error.
    """
    mask = np.zeros(grid_shape, dtype=bool)
    for cluster in clusters:
        if not cluster.blocks:
            continue
        r0, c0, r1, c1 = cluster.bounding_box()
        if r0 < 0 or c0 < 0 or r1 > grid_shape[0] or c1 > grid_shape[1]:
            raise ValueError(f"cluster blocks (rows {r0}..{r1 - 1}, cols {c0}..{c1 - 1}) outside grid {grid_shape}")
        mask[tuple(zip(*cluster.blocks))] = True
        hull = monotone_chain(sorted({(c, r) for r, c in cluster.blocks}))
        if len(hull) >= 3:  # more than a straight line of blocks: fill their convex contour
            fill_convex_hull(mask, hull)
    return mask


def foreground_clusters(
    mv: np.ndarray, seed_mask: np.ndarray, *, blocked_mask: np.ndarray | None = None, similarity: float = 1.5,
    min_cluster_size: int = 1, min_magnitude: float = 0.3, merge: bool = True, max_angle: float = np.pi / 8,
    max_magnitude_ratio: float = 2.5, max_distance: int = 2,
) -> tuple[list[Cluster], np.ndarray]:
    """The clusters and foreground mask of one field: :func:`region_grow`, then
    :func:`merge_clusters` when ``merge``, then :func:`clusters_to_mask` —
    what those three calls return, to the bit, in one kernel call where the
    backend has one.  The arguments are theirs."""
    _check_growth(similarity, min_magnitude)
    if merge:
        _check_merge(max_angle, max_magnitude_ratio, max_distance)
    args = (mv, seed_mask, blocked_mask)
    kwargs = dict(similarity=similarity, min_cluster_size=min_cluster_size, min_magnitude=min_magnitude, merge=merge,
                  max_angle=max_angle, max_magnitude_ratio=max_magnitude_ratio, max_distance=max_distance)
    impl = kernels.override("foreground_clusters")
    out = None if impl is None else impl(*args, **kwargs)
    if out is None:
        return _foreground_clusters_reference(*args, **kwargs)
    means, members, starts, mask = out
    cols = mv.shape[1]
    blocks = [divmod(i, cols) for i in members.tolist()]
    bounds = starts.tolist()
    return [Cluster(blocks[s:e], mean) for s, e, mean in zip(bounds, bounds[1:], means)], mask


def _foreground_clusters_reference(
    mv, seed_mask, blocked_mask, *, similarity, min_cluster_size, min_magnitude, merge, max_angle,
    max_magnitude_ratio, max_distance,
) -> tuple[list[Cluster], np.ndarray]:
    """:func:`foreground_clusters` as the three public calls it stands for."""
    clusters = region_grow(mv, seed_mask, blocked_mask=blocked_mask, similarity=similarity,
                           min_cluster_size=min_cluster_size, min_magnitude=min_magnitude)
    if merge:
        clusters = merge_clusters(clusters, max_angle=max_angle, max_magnitude_ratio=max_magnitude_ratio,
                                  max_distance=max_distance)
    return clusters, clusters_to_mask(clusters, mv.shape[:2])


def _packed_reference(mv, seed_mask, blocked_mask, **kwargs) -> tuple[np.ndarray, ...]:
    """:func:`_foreground_clusters_reference`'s answer packed as the
    ``foreground_clusters`` hook answers: ``(means, members, starts, mask)`` —
    each cluster's mean as a row, every block ``r * cols + c`` in order,
    cluster after cluster, the offset in ``members`` where each cluster starts
    (and one past the last), the mask."""
    clusters, mask = _foreground_clusters_reference(mv, seed_mask, blocked_mask, **kwargs)
    cols = mv.shape[1]
    means = np.array([c.mean_mv for c in clusters], dtype=np.float64).reshape(-1, 2)
    members = np.array([r * cols + c for cluster in clusters for r, c in cluster.blocks], dtype=np.int64)
    return means, members, np.cumsum([0] + [c.size for c in clusters], dtype=np.int64), mask
