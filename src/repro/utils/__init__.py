"""Generic algorithmic utilities shared by the DiVE reproduction.

This subpackage deliberately contains only paper-agnostic building blocks:
convex hulls, histogram thresholding, RANSAC, procedural noise and tiled
block reductions.  Everything DiVE-specific lives in :mod:`repro.core`.
"""

from repro.utils.convexhull import (
    convex_hull,
    point_in_polygon,
    points_in_polygon,
    polygon_area,
    rasterize_polygon,
)
from repro.utils.integral import block_reduce_sum, shift_with_edge_pad, shifted_window
from repro.utils.noise import value_noise_1d, value_noise_2d
from repro.utils.ransac import RansacResult, ransac_linear
from repro.utils.thresholding import triangle_threshold

__all__ = [
    "RansacResult",
    "block_reduce_sum",
    "convex_hull",
    "point_in_polygon",
    "points_in_polygon",
    "polygon_area",
    "ransac_linear",
    "rasterize_polygon",
    "shift_with_edge_pad",
    "shifted_window",
    "triangle_threshold",
    "value_noise_1d",
    "value_noise_2d",
]
