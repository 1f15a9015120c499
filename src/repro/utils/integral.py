"""Block reductions and edge-padded shifts for displacement-major SAD maps.

Exhaustive block-matching (the x264 ESA/TESA methods) evaluates every
candidate displacement for every macroblock.  Doing that block-by-block in
Python is hopeless; instead we loop over *displacements* and, for each one,
compute the sum of absolute differences for **all** macroblocks at once by
shifting the reference (:func:`shifted_window`), taking
``|current - shifted|`` and reducing it over non-overlapping tiles
(:func:`block_reduce_sum`).  One displacement costs a handful of
whole-frame numpy operations.  :func:`shift_with_edge_pad` is the
allocating form of the shift, which the tests' reference volumes use.
"""

from __future__ import annotations

import numpy as np

__all__ = ["block_reduce_sum", "shift_with_edge_pad", "shifted_window"]


def block_reduce_sum(img: np.ndarray, block: int) -> np.ndarray:
    """Sum over non-overlapping ``block``×``block`` tiles.

    Image dimensions must be multiples of ``block``.  Returns an array of
    shape ``(H/block, W/block)``.
    """
    h, w = img.shape
    if h % block or w % block:
        raise ValueError(f"image shape {img.shape} not a multiple of block size {block}")
    return img.reshape(h // block, block, w // block, block).sum(axis=(1, 3))


def shift_with_edge_pad(img: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Shift an image by integer ``(dx, dy)``, replicating edge pixels.

    The result at pixel ``(r, c)`` is ``img[clip(r - dy), clip(c - dx)]`` —
    i.e. the image content moves *by* ``(dx, dy)``, matching the motion-vector
    convention that a block's MV points from its reference-frame position to
    its current-frame position.
    """
    h, w = img.shape
    if -h < dy < h and -w < dx < w:
        # Fast path: slice the surviving core and edge-pad it back to size.
        # Pure slicing plus ``np.pad(mode="edge")`` copies the exact same
        # source pixels as the clip-index gather below, without ever
        # materialising index arrays.
        top, bottom = max(dy, 0), max(-dy, 0)
        left, right = max(dx, 0), max(-dx, 0)
        core = img[bottom : h - top, right : w - left]
        if not (top or bottom or left or right):
            return core.copy()
        return np.pad(core, ((top, bottom), (left, right)), mode="edge")
    rows = np.clip(np.arange(h) - dy, 0, h - 1)
    cols = np.clip(np.arange(w) - dx, 0, w - 1)
    return img[np.ix_(rows, cols)]


def shifted_window(padded: np.ndarray, dx: int, dy: int, pad: int, shape: tuple[int, int]) -> np.ndarray:
    """View of an edge-padded image equal to :func:`shift_with_edge_pad`.

    ``padded`` must be ``np.pad(img, pad, mode="edge")``; for any
    ``|dx|, |dy| <= pad`` the returned slice is element-for-element the
    array :func:`shift_with_edge_pad` would build, but as a zero-copy view —
    the displacement-major searches pad the reference once and slice per
    displacement.
    """
    h, w = shape
    return padded[pad - dy : pad - dy + h, pad - dx : pad - dx + w]

