"""World-anchored procedural textures.

All textures are pure functions of world/object-local coordinates and a
seed, so the renderer never stores texture maps and every surface moves
rigidly between frames — exactly what block-matching motion estimation
needs to recover the true motion field.

Gray levels are floats in ``[0, 255]``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.noise import value_noise_2d

__all__ = [
    "ground_texture",
    "object_texture",
    "sky_texture",
]

# Base gray levels per surface kind, chosen to give moderate inter-surface
# contrast (objects separate visually from ground and sky, as in dashcam
# footage).
_OBJECT_BASE = {
    "car": 110.0,
    "pedestrian": 95.0,
    "building": 150.0,
    "pole": 70.0,
}
_OBJECT_CONTRAST = {
    "car": 70.0,
    "pedestrian": 60.0,
    "building": 80.0,
    "pole": 40.0,
}


#: The bands ``object_texture`` draws over a kind's noise, numbered as the
#: compiled renderer numbers them (any other kind, poles included, is noise
#: alone: 0).
_OBJECT_BANDS = {"building": 1, "car": 2, "pedestrian": 3}


def _object_tone(kind: str) -> tuple[float, float]:
    """Base gray level and noise contrast of an object kind's texture."""
    return _OBJECT_BASE.get(kind, 120.0), _OBJECT_CONTRAST.get(kind, 60.0)


def ground_texture(x: np.ndarray, z: np.ndarray, *, seed: int, weather_contrast: float = 1.0) -> np.ndarray:
    """Asphalt with dashed lane markings, anchored at world ``(x, z)``.

    Parameters
    ----------
    x, z:
        World ground-plane coordinates (metres).
    seed:
        Scene texture seed.
    weather_contrast:
        Scales the texture contrast; overcast RobotCar-style clips use < 1,
        sunny clips 1.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    base = 80.0 + 45.0 * value_noise_2d(x, z, seed=seed, scale=1.5, octaves=2)
    fine = 12.0 * (value_noise_2d(x, z, seed=seed + 101, scale=0.35) - 0.5)
    gray = base + fine

    # Dashed lane markings at x = -1.75 and x = +1.75 (3.5 m lanes), dashes
    # 3 m long with 3 m gaps; solid edge lines at +/- 5.25 m.
    marking = np.zeros_like(gray)
    for lane_x in (-1.75, 1.75):
        near = np.abs(x - lane_x) < 0.12
        dash = np.mod(z, 6.0) < 3.0
        marking = np.where(near & dash, 1.0, marking)
    for edge_x in (-5.25, 5.25):
        near = np.abs(x - edge_x) < 0.12
        marking = np.where(near, 1.0, marking)
    gray = np.where(marking > 0, 225.0, gray)
    mean = 105.0
    return np.clip(mean + (gray - mean) * weather_contrast, 0.0, 255.0)


def sky_texture(azimuth: np.ndarray, elevation: np.ndarray, *, seed: int) -> np.ndarray:
    """Sky as a function of view direction (infinitely far away).

    Because it depends only on direction, the sky is static under camera
    translation and only moves under rotation — matching real footage where
    sky motion vectors are near zero and noisy (plain texture).
    """
    azimuth = np.asarray(azimuth, dtype=float)
    elevation = np.asarray(elevation, dtype=float)
    gradient = 190.0 + 50.0 * np.clip(elevation / 0.6, 0.0, 1.0)
    clouds = 18.0 * (value_noise_2d(azimuth * 8.0, elevation * 8.0, seed=seed + 500, scale=1.0) - 0.5)
    return np.clip(gradient + clouds, 0.0, 255.0)


def object_texture(
    u: np.ndarray,
    h: np.ndarray,
    *,
    kind: str,
    seed: int,
    weather_contrast: float = 1.0,
) -> np.ndarray:
    """Texture of a vertical object surface in its local frame.

    Parameters
    ----------
    u:
        Horizontal local coordinate across the object face (metres, 0 at
        the left edge).
    h:
        Height above the ground (metres, >= 0).
    kind:
        One of ``car``, ``pedestrian``, ``building``, ``pole``.
    seed:
        Object texture seed (object identity).
    """
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=float)
    base, contrast = _object_tone(kind)
    gray = base + contrast * (value_noise_2d(u, h, seed=seed, scale=0.6, octaves=3) - 0.5)

    if kind == "building":
        # Window grid: dark rectangles every ~2 m horizontally, ~2.5 m
        # vertically -- strong edges that block matching locks onto.
        win_u = np.mod(u, 2.0)
        win_h = np.mod(h, 2.5)
        windows = (win_u > 0.5) & (win_u < 1.7) & (win_h > 0.8) & (win_h < 2.1)
        gray = np.where(windows, gray - 65.0, gray)
    elif kind == "car":
        # Dark wheel/shadow band at the bottom, brighter window band on top.
        gray = np.where(h < 0.35, gray - 55.0, gray)
        gray = np.where(h > 1.1, gray + 40.0, gray)
    elif kind == "pedestrian":
        # Head/torso/legs bands.
        gray = np.where(h > 1.45, gray + 35.0, gray)
        gray = np.where(h < 0.75, gray - 30.0, gray)
    mean = base
    return np.clip(mean + (gray - mean) * weather_contrast, 0.0, 255.0)
