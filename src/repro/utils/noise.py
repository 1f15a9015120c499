"""Deterministic value-noise generators.

The synthetic world needs textures that are (a) anchored in *world*
coordinates so that surfaces move coherently between frames and block
matching recovers the true motion, and (b) deterministic functions of
position and a seed so that rendering a frame twice yields identical pixels
without storing texture maps.

Value noise built on an integer-lattice hash satisfies both: the hash makes
every lattice point's value a pure function of ``(ix, iy, seed)`` and
bilinear interpolation in between gives smooth texture.
"""

from __future__ import annotations

import numpy as np

from repro import kernels

__all__ = ["hash_lattice", "value_noise_1d", "value_noise_2d"]

_PRIME_X = np.uint64(0x9E3779B97F4A7C15)
_PRIME_Y = np.uint64(0xC2B2AE3D27D4EB4F)
_PRIME_S = np.uint64(0x165667B19E3779F9)


def hash_lattice(ix: np.ndarray, iy: np.ndarray, seed: int) -> np.ndarray:
    """Hash integer lattice coordinates to uniform floats in ``[0, 1)``.

    A splitmix64-style avalanche over the packed coordinates; vectorised and
    platform-independent.
    """
    with np.errstate(over="ignore"):
        h = (
            ix.astype(np.int64).view(np.uint64) * _PRIME_X
            + iy.astype(np.int64).view(np.uint64) * _PRIME_Y
            + np.uint64(seed & 0xFFFFFFFFFFFFFFFF) * _PRIME_S
        )
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def value_noise_2d(
    x: np.ndarray,
    y: np.ndarray,
    *,
    seed: int,
    scale: float = 1.0,
    octaves: int = 1,
) -> np.ndarray:
    """Evaluate 2-D value noise at world coordinates ``(x, y)``.

    Parameters
    ----------
    x, y:
        Coordinate arrays (broadcastable to a common shape).
    seed:
        Texture identity; different seeds give independent textures.
    scale:
        Feature size in coordinate units — larger scale, larger blobs.
    octaves:
        Number of fractal octaves (each halves the feature size and the
        amplitude), for richer texture.

    Returns
    -------
    Noise values in ``[0, 1]`` with the broadcast shape of ``x`` and ``y``.
    """
    impl = kernels.override("value_noise")
    if impl is not None:
        return impl(x, y, seed=seed, scale=scale, octaves=octaves)
    return _value_noise_2d_reference(x, y, seed=seed, scale=scale, octaves=octaves)


def _value_noise_2d_reference(
    x: np.ndarray,
    y: np.ndarray,
    *,
    seed: int,
    scale: float = 1.0,
    octaves: int = 1,
) -> np.ndarray:
    """Reference implementation of :func:`value_noise_2d` (the oracle every
    backend's ``value_noise`` kernel must match bit for bit)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    if octaves < 1:
        raise ValueError("octaves must be >= 1")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    total = np.zeros(x.shape, dtype=float)
    amp_sum = 0.0
    amp = 1.0
    freq = 1.0 / scale
    for octave in range(octaves):
        total += amp * _value_noise_single(x * freq, y * freq, seed + octave * 7919)
        amp_sum += amp
        amp *= 0.5
        freq *= 2.0
    return total / amp_sum


def _value_noise_single(u: np.ndarray, v: np.ndarray, seed: int) -> np.ndarray:
    iu = np.floor(u).astype(np.int64)
    iv = np.floor(v).astype(np.int64)
    fu = u - iu
    fv = v - iv
    # Smoothstep fade for C1-continuous interpolation.
    su = fu * fu * (3.0 - 2.0 * fu)
    sv = fv * fv * (3.0 - 2.0 * fv)
    v00 = hash_lattice(iu, iv, seed)
    v10 = hash_lattice(iu + 1, iv, seed)
    v01 = hash_lattice(iu, iv + 1, seed)
    v11 = hash_lattice(iu + 1, iv + 1, seed)
    top = v00 + su * (v10 - v00)
    bot = v01 + su * (v11 - v01)
    return top + sv * (bot - top)


def _noise_terms(seed: int, scale: float, octaves: int) -> tuple[list[float], list[int]]:
    """:func:`value_noise_2d`'s per-octave frequency and seed term (times
    ``_PRIME_S``, mod 2^64), formed as the reference forms them — whatever
    numeric type ``scale`` is, any int seed.  The compiled kernels take
    these in place of ``seed`` / ``scale``."""
    freq = 1.0 / scale
    freqs, sterm = [], []
    for octave in range(octaves):
        freqs.append(freq)
        sterm.append(((seed + octave * 7919) * int(_PRIME_S)) & 0xFFFFFFFFFFFFFFFF)
        freq *= 2.0
    return freqs, sterm


def value_noise_1d(x: np.ndarray, *, seed: int, scale: float = 1.0, octaves: int = 1) -> np.ndarray:
    """1-D value noise; used for bandwidth-trace shaping."""
    x = np.asarray(x, dtype=float)
    return value_noise_2d(x, np.zeros_like(x), seed=seed, scale=scale, octaves=octaves)
