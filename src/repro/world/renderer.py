"""Painter's-algorithm renderer.

Renders a :class:`~repro.world.scene.Scene` at a given time into a grayscale
frame plus a per-pixel object id-buffer.  Surfaces are drawn far-to-near so
nearer objects overwrite farther ones; ground/object occlusion falls out of
the height-range check on the object-plane intersection.  The id-buffer
yields occlusion-aware ground-truth boxes: an object's annotation covers
exactly the pixels where it remained visible.

A render is four steps: shared preparation (world ray directions, the
objects' painter's order, culling and frame-clipped windows), the ground and
the objects — the ``render_surfaces`` kernel hook when the active backend
binds it, :func:`_render_surfaces_reference` otherwise — then the sky on the
pixels no surface covered, and the annotations.
"""

from __future__ import annotations

import math

import numpy as np

from repro import kernels
from repro.geometry.camera import CameraIntrinsics, CameraPose
from repro.world.annotations import EgoState, FrameRecord, MotionState, ObjectAnnotation
from repro.world.objects import SceneObject
from repro.world.scene import GROUND_ID, SKY_ID, Scene
from repro.world.texture import ground_texture, object_texture, sky_texture

__all__ = ["Renderer"]

#: One object to paint: the object, its frame-clipped ``(rows, cols)`` slice
#: pair and its plane ``(point, normal, u_dir)`` at the render time.
Placed = tuple[SceneObject, tuple[slice, slice], tuple[np.ndarray, np.ndarray, np.ndarray]]


class Renderer:
    """Renders frames of a scene through a pinhole camera."""

    def __init__(self, intrinsics: CameraIntrinsics, *, min_annotation_pixels: int = 8):
        """
        Parameters
        ----------
        intrinsics:
            Camera intrinsics (shared by every frame).
        min_annotation_pixels:
            Objects with fewer visible pixels produce no annotation — they
            are too small for any detector, ours included.
        """
        self.intrinsics = intrinsics
        self.min_annotation_pixels = int(min_annotation_pixels)
        w, h = intrinsics.width, intrinsics.height
        px, py = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        x, y = intrinsics.centered_from_pixels(px, py)
        # Camera-frame ray directions with unit z: the plane-intersection
        # parameter t then equals camera depth directly.
        self._dirs_cam = np.stack([x / intrinsics.focal, y / intrinsics.focal, np.ones_like(x)], axis=-1)

    def render(self, scene: Scene, t: float, *, frame_index: int = 0) -> FrameRecord:
        """Render the scene at time ``t``.

        Returns a :class:`FrameRecord` with image, id-buffer, annotations
        for visible detectable objects, and the ego motion state.
        """
        pose, dirs, origin, placed = self._prepare(scene, t)
        image, id_buffer, counts = _render_surfaces(dirs, origin, scene, placed)
        # Sky only where no surface landed — roughly half the frame.
        sky_mask = id_buffer == SKY_ID
        # One gather per direction component: masking the (H, W, 3) array
        # itself is ~20x slower than masking its three strided planes.
        image[sky_mask] = self._render_sky(*(dirs[..., k][sky_mask] for k in range(3)), scene)
        drawn = {
            obj.object_id: (count, window) for (obj, window, _), count in zip(placed, counts) if count
        }
        annotations = self._make_annotations(id_buffer, drawn, scene, pose, t)

        ego = EgoState(
            speed=scene.trajectory.speed_at(t),
            yaw_rate=scene.trajectory.yaw_rate_at(t),
            pitch_rate=scene.trajectory.pitch_rate_at(t),
            motion_state=MotionState(scene.trajectory.motion_state_at(t)),
        )
        return FrameRecord(
            index=frame_index,
            time=t,
            image=image.astype(np.float32),
            id_buffer=id_buffer,
            annotations=annotations,
            ego=ego,
        )

    def _prepare(self, scene: Scene, t: float) -> tuple[CameraPose, np.ndarray, np.ndarray, list[Placed]]:
        """The shared preparation of a render: the pose, the world ray
        directions ``(H, W, 3)``, the camera centre and the placed objects."""
        pose = scene.trajectory.pose_at(t)
        rot = pose.rotation()
        dirs = self._dirs_cam @ rot.T  # world-frame directions, (H, W, 3)
        origin = np.asarray(pose.position, dtype=float)
        return pose, dirs, origin, self._place_objects(scene, rot, origin, t)

    def _render_sky(self, dx: np.ndarray, dy: np.ndarray, dz: np.ndarray, scene: Scene) -> np.ndarray:
        """Sky gray values for ray directions given by component."""
        norm = np.sqrt(dx**2 + dy**2 + dz**2)
        azimuth = np.arctan2(dx, dz)
        elevation = -dy / norm  # positive above the horizon
        return sky_texture(azimuth, elevation, seed=scene.texture_seed)

    def _place_objects(self, scene: Scene, rot: np.ndarray, origin: np.ndarray, t: float) -> list[Placed]:
        """The objects to paint, far to near by camera depth of the
        footprint, each with the frame-clipped window its projected face
        covers — objects too near, too far, partially behind the camera or
        off-frame left out.  Depths and projections are the operations of
        ``CameraPose.world_to_camera`` / ``PinholeCamera.project_to_pixels``
        on the frame's one rotation."""
        intr = self.intrinsics
        h, w = intr.height, intr.width

        def depth_of(obj: SceneObject) -> float:
            cx, cz = obj.position_at(t)
            return float(((np.array([cx, 0.0, cz]) - origin) @ rot)[2])

        by_depth = sorted(
            ((depth_of(obj), obj) for obj in scene.objects), key=lambda pair: pair[0], reverse=True
        )
        placed: list[Placed] = []
        for depth, obj in by_depth:
            if depth < 0.5 or depth > scene.max_ground_depth * 1.3:
                continue
            cam = (obj.corners_at(t) - origin) @ rot
            z = cam[..., 2]
            if (z <= 0.1).any():
                continue  # partially behind the camera: skip (conservative)
            px = intr.focal * cam[..., 0] / z + intr.cx
            py = intr.focal * cam[..., 1] / z + intr.cy
            x0 = min(max(math.floor(px.min()), 0), w)
            x1 = min(max(math.ceil(px.max()) + 1, 0), w)
            y0 = min(max(math.floor(py.min()), 0), h)
            y1 = min(max(math.ceil(py.max()) + 1, 0), h)
            if x0 >= x1 or y0 >= y1:
                continue
            placed.append((obj, (slice(y0, y1), slice(x0, x1)), obj.plane_at(t)))
        return placed

    def _make_annotations(
        self,
        id_buffer: np.ndarray,
        drawn: dict[int, tuple[int, tuple[slice, slice]]],
        scene: Scene,
        pose,
        t: float,
    ) -> list[ObjectAnnotation]:
        annotations: list[ObjectAnnotation] = []
        for obj in scene.objects:
            if not obj.detectable or obj.object_id not in drawn:
                continue
            # What nearer objects left of it, scanned where it was drawn.
            drawn_count, window = drawn[obj.object_id]
            ys, xs = np.nonzero(id_buffer[window] == obj.object_id)
            visible = ys.size
            if visible < max(self.min_annotation_pixels, 1):
                continue  # fully occluded, or too small to annotate
            y0, x0 = window[0].start, window[1].start
            bbox = (
                float(x0 + xs.min()),
                float(y0 + ys.min()),
                float(x0 + xs.max() + 1),
                float(y0 + ys.max() + 1),
            )
            cx, cz = obj.position_at(t)
            center = np.array([cx, -obj.height / 2.0, cz])
            depth = float(pose.world_to_camera(center)[2])
            annotations.append(
                ObjectAnnotation(
                    object_id=obj.object_id,
                    kind=obj.kind,
                    bbox=bbox,
                    depth=depth,
                    visibility=float(min(visible / drawn_count, 1.0)),
                    pixel_count=visible,
                )
            )
        return annotations


def _render_surfaces(
    dirs: np.ndarray, origin: np.ndarray, scene: Scene, placed: list[Placed]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The ground and the placed objects — the active kernel backend's
    ``render_surfaces`` hook when it has one and takes these arguments (it
    returns ``None`` for what it cannot prove), else the reference below."""
    impl = kernels.override("render_surfaces")
    found = impl(dirs, origin, scene, placed) if impl is not None else None
    return found if found is not None else _render_surfaces_reference(dirs, origin, scene, placed)


def _render_surfaces_reference(
    dirs: np.ndarray, origin: np.ndarray, scene: Scene, placed: list[Placed]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The ground, then the placed objects in order, painted over each other.

    Reference implementation of the ``render_surfaces`` hook (the oracle
    every backend's kernel must match bit for bit).  Returns the float64
    image — sky pixels left unset —, the int32 id-buffer (``SKY_ID``
    wherever no surface landed) and, per placed object, how many pixels it
    painted (nearer objects may paint over them later).
    """
    h, w = dirs.shape[:2]
    image = np.empty((h, w), dtype=np.float64)
    id_buffer = np.full((h, w), SKY_ID, dtype=np.int32)

    dy = dirs[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        tg = -origin[1] / dy  # ground plane Y = 0; origin[1] = -height
    hit = (dy > 1e-9) & (tg > 0)
    max_depth = scene.max_ground_depth
    # Everything below the horizon is ground in the id-buffer; pixels
    # beyond max_depth just fade into haze rather than showing texture.
    # Only the near pixels are textured, so they are gathered once (per
    # component, as for the sky) and everything below works on the
    # compact arrays.
    near = hit & (tg <= max_depth)
    t_near = tg[near]
    tex = ground_texture(
        origin[0] + t_near * dirs[..., 0][near],
        origin[2] + t_near * dirs[..., 2][near],
        seed=scene.texture_seed,
        weather_contrast=scene.weather_contrast,
    )
    haze = 165.0
    fade_start = 0.7 * max_depth
    weight = np.clip((max_depth - t_near) / (max_depth - fade_start), 0.0, 1.0)
    image[near] = weight * tex + (1.0 - weight) * haze
    far = hit & (tg > max_depth)
    image[far] = haze
    id_buffer[hit] = GROUND_ID

    counts = []
    for obj, window, (point, normal, u_dir) in placed:
        sub_dirs = dirs[window]
        denom = sub_dirs @ normal
        num = float((point - origin) @ normal)
        with np.errstate(divide="ignore", invalid="ignore"):
            tt = num / denom
        pts = origin[None, None, :] + sub_dirs * tt[..., None]
        u = (pts - point) @ u_dir
        height_above = -pts[..., 1]
        mask = (
            np.isfinite(tt)
            & (tt > 0.1)
            & (np.abs(u) <= obj.width / 2.0)
            & (height_above >= 0.0)
            & (height_above <= obj.height)
        )
        count = int(mask.sum())
        counts.append(count)
        if count == 0:
            continue
        tex = object_texture(
            u[mask] + obj.width / 2.0,
            height_above[mask],
            kind=obj.kind,
            seed=obj.texture_seed,
            weather_contrast=scene.weather_contrast,
        )
        image[window][mask] = tex
        id_buffer[window][mask] = obj.object_id
    return image, id_buffer, counts
