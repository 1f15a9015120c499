"""Convex hulls and polygon utilities on the macroblock grid.

The paper uses Sklansky's algorithm to build the convex contour of the
estimated ground region and of each foreground cluster (Section III-C).
Sklansky's algorithm requires a simple polygon as input; since DiVE actually
applies it to an unordered set of macroblock centres, we implement the
equivalent Andrew monotone-chain construction, which computes the same hull
for a point set in ``O(n log n)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "convex_hull",
    "point_in_polygon",
    "points_in_polygon",
    "polygon_area",
    "rasterize_polygon",
]


def monotone_chain(points: list[tuple]) -> list[tuple]:
    """Andrew's monotone chain over distinct ``(x, y)`` pairs in lexicographic
    order: the strictly convex vertices, counter-clockwise (y-up) from the
    smallest point; collinear input collapses to its two extremes.  On integers
    (macroblock indices) every turn test is exact; on Python floats it rounds
    exactly as it would on NumPy's float64 scalars.
    """
    if len(points) <= 2:
        return list(points)

    def half(ordered: list[tuple]) -> list[tuple]:
        chain: list[tuple] = []
        for x, y in ordered:
            while len(chain) >= 2:  # pop while the last two vertices and (x, y) do not turn left
                (ox, oy), (ax, ay) = chain[-2:]
                if not (ax - ox) * (y - oy) - (ay - oy) * (x - ox) <= 0:
                    break
                chain.pop()
            chain.append((x, y))
        return chain

    lower, upper = half(points), half(points[::-1])
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 3 else [lower[0], lower[-1]]


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
    uniq = np.unique(pts, axis=0)  # distinct rows, in lexicographic order
    return uniq if len(uniq) <= 2 else np.array(monotone_chain(uniq.tolist()))


def fill_convex_hull(mask: np.ndarray, hull: list[tuple[int, int]]) -> None:
    """Set every cell of ``mask`` whose centre ``(col, row)`` lies in the closed
    convex polygon ``hull`` (three or more integer vertices inside the grid, in
    :func:`monotone_chain` order): row by row, the span of columns that every
    edge's half-plane admits, in exact integer arithmetic.  For integer vertices
    this is exactly the set :func:`rasterize_polygon` marks — off the boundary its
    even-odd crossing test is exact (a lattice point misses an edge by at least
    ``1 / |dy|``), and the boundary is what its on-segment test adds.
    """
    (x_min, x_max), (y_min, y_max) = ((min(values), max(values)) for values in zip(*hull))
    edges = [(x0, y0, x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1])]
    for y in range(y_min, y_max + 1):
        lo, hi = x_min, x_max
        for vx, vy, ex, ey in edges:  # left of (or on) this edge: ey * x <= ex * (y - vy) + ey * vx
            bound = ex * (y - vy) + ey * vx
            if ey > 0:
                hi = min(hi, bound // ey)
            elif ey < 0:
                lo = max(lo, -(bound // -ey))
        mask[y, lo : hi + 1] = True


def polygon_area(polygon: np.ndarray) -> float:
    """Unsigned area of a simple polygon via the shoelace formula."""
    poly = np.asarray(polygon, dtype=float)
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)


def point_in_polygon(point: np.ndarray, polygon: np.ndarray) -> bool:
    """Point-in-polygon test (boundary counts as inside)."""
    return bool(points_in_polygon(np.asarray(point, dtype=float)[None, :], polygon)[0])


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
