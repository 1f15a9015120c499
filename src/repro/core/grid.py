"""Macroblock-grid geometry helpers shared by the core modules."""

from __future__ import annotations

import functools

import numpy as np

from repro.geometry.camera import CameraIntrinsics

__all__ = ["block_centers"]


def block_centers(
    grid_shape: tuple[int, int], intrinsics: CameraIntrinsics, *, block: int = 16
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
    coordinates — the coordinates the paper's flow equations use.  Computed once
    per ``(grid_shape, intrinsics, block)`` and shared, hence read-only.
    """
    return _block_centers(*map(int, grid_shape), intrinsics, block)


@functools.lru_cache(maxsize=64)
def _block_centers(rows: int, cols: int, intrinsics: CameraIntrinsics, block: int):
    px = (np.arange(cols) + 0.5) * block - 0.5
    py = (np.arange(rows) + 0.5) * block - 0.5
    grids = np.meshgrid(*intrinsics.centered_from_pixels(px, py))
    for grid in grids:
        grid.setflags(write=False)
    return tuple(grids)
