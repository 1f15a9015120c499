"""Painter's-algorithm renderer.

Renders a :class:`~repro.world.scene.Scene` at a given time into a grayscale
frame plus a per-pixel object id-buffer.  Surfaces are drawn far-to-near so
nearer objects overwrite farther ones; ground/object occlusion falls out of
the height-range check on the object-plane intersection.  The id-buffer
yields occlusion-aware ground-truth boxes: an object's annotation covers
exactly the pixels where it remained visible.

A render is three steps: shared preparation (world ray directions, then
every object's depth, painter's order, culling and frame-clipped window in
one pass over the scene), the surfaces — the ground, the objects, the sky on
the pixels no surface covered, and each placed object's kept pixels and
their bounding box — through the ``render_surfaces`` kernel hook when the
active backend binds it, :func:`_render_surfaces_reference` otherwise, then
the annotations.
"""

from __future__ import annotations

import math
import operator
import threading
import weakref
from typing import NamedTuple, Sequence

import numpy as np

from repro import kernels
from repro.geometry.camera import CameraIntrinsics, CameraPose
from repro.utils.noise import _noise_terms
from repro.world.annotations import EgoState, FrameRecord, MotionState, ObjectAnnotation
from repro.world.objects import SceneObject
from repro.world.scene import GROUND_ID, SKY_ID, Scene
from repro.world.texture import _OBJECT_BANDS, _object_tone, ground_texture, object_texture, sky_texture

__all__ = ["Renderer"]

#: Columns of the per-placed-object statistics a surfaces pass returns: the
#: pixels its mask painted (nearer objects may paint over them later), the
#: pixels it kept, and their bounding box ``[x0, x1) x [y0, y1)`` (zeros
#: when it kept none).
STAT_PAINTED, STAT_VISIBLE, STAT_X0, STAT_Y0, STAT_X1, STAT_Y1 = range(6)

#: One read-only camera-frame ray table per intrinsics, shared by every
#: renderer of that camera and freed with the last of them.
_RAY_TABLES: weakref.WeakValueDictionary[CameraIntrinsics, np.ndarray] = weakref.WeakValueDictionary()
_RAY_TABLES_LOCK = threading.Lock()


def _ray_table(intrinsics: CameraIntrinsics) -> np.ndarray:
    """Camera-frame ray directions ``(H, W, 3)`` with unit z — the
    plane-intersection parameter t then equals camera depth directly —
    built on the first request for ``intrinsics`` and read-only."""
    with _RAY_TABLES_LOCK:
        table = _RAY_TABLES.get(intrinsics)
        if table is None:
            w, h = intrinsics.width, intrinsics.height
            x, y = intrinsics.centered_from_pixels(np.arange(w, dtype=float), np.arange(h, dtype=float))
            table = np.empty((h, w, 3))
            table[..., 0] = x / intrinsics.focal
            table[..., 1] = (y / intrinsics.focal)[:, None]
            table[..., 2] = 1.0
            table.setflags(write=False)
            _RAY_TABLES[intrinsics] = table
        return table


class ObjectTable(NamedTuple):
    """Per-object fields no render time changes, row for row with
    ``objects``: built once per scene."""

    objects: tuple[SceneObject, ...]
    #: int64 ids (``-1`` for one int64 cannot hold).
    ids: np.ndarray
    #: int64: the bands ``object_texture`` draws (``_OBJECT_BANDS``).
    bands: np.ndarray
    #: ``(n, 3)`` face normals and u axes, as ``SceneObject.plane_at`` forms them.
    normals: np.ndarray
    u_dirs: np.ndarray
    half_widths: np.ndarray
    heights: np.ndarray
    #: ``(n, 2)``: the texture's base gray and noise contrast.
    tones: np.ndarray
    #: uint64 ``(n, 3)``: ``object_texture``'s three noise seed terms.
    sterms: np.ndarray
    #: Whether the normal and the u axis each have one non-zero component.
    on_axes: np.ndarray

    @classmethod
    def of(cls, objects: Sequence[SceneObject]) -> ObjectTable:
        n = len(objects)
        facing = np.array([obj.facing for obj in objects], dtype=np.float64).reshape(n, 2)
        ux, uz = facing.T
        return cls(
            tuple(objects),
            np.array([obj.object_id if -(2**63) <= obj.object_id < 2**63 else -1 for obj in objects], dtype=np.int64),
            np.array([_OBJECT_BANDS.get(obj.kind, 0) for obj in objects], dtype=np.int64),
            np.stack([-uz, np.zeros(n), ux], axis=1),
            np.stack([ux, np.zeros(n), uz], axis=1),
            np.array([obj.width / 2.0 for obj in objects], dtype=np.float64),
            np.array([obj.height for obj in objects], dtype=np.float64),
            np.array([_object_tone(obj.kind) for obj in objects], dtype=np.float64).reshape(n, 2),
            np.array([_noise_terms(obj.texture_seed, 0.6, 3)[1] for obj in objects], dtype=np.uint64).reshape(n, 3),
            (ux == 0.0) != (uz == 0.0),
        )


class Placed(NamedTuple):
    """The objects one render paints, far to near: each one's row of the
    scene's :class:`ObjectTable`, its frame-clipped window ``(y0, y1, x0,
    x1)`` and its plane's point ``(cx, 0, cz)`` at the render time."""

    table: ObjectTable
    rows: np.ndarray
    windows: np.ndarray
    points: np.ndarray

    @property
    def objects(self) -> list[SceneObject]:
        return [self.table.objects[row] for row in self.rows.tolist()]

    @classmethod
    def by_hand(cls, objects: Sequence[SceneObject], windows, t: float) -> Placed:
        """``objects`` painted in the order given, each over its window
        ``(y0, y1, x0, x1)``, past the renderer's culling."""
        n = len(objects)
        points = np.zeros((n, 3))
        points[:, ::2] = np.array([obj.position_at(t) for obj in objects], dtype=np.float64).reshape(n, 2)
        return cls(ObjectTable.of(objects), np.arange(n), np.array(windows, dtype=np.int64).reshape(n, 4), points)


class Renderer:
    """Renders frames of a scene through a pinhole camera.

    Renderers of equal intrinsics share one read-only ray table, so a
    clip's renderer costs its object table, not a frame of rays.
    """

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
        self._dirs_cam = _ray_table(intrinsics)
        self._table: ObjectTable | None = None

    def render(self, scene: Scene, t: float, *, frame_index: int = 0) -> FrameRecord:
        """Render the scene at time ``t``.

        Returns a :class:`FrameRecord` with image, id-buffer, annotations
        for visible detectable objects, and the ego motion state.
        """
        if not math.isfinite(t):
            raise ValueError(f"render time t must be finite, got {t!r}")
        pose, dirs, origin, placed = self._prepare(scene, t)
        image, id_buffer, stats = _render_surfaces(dirs, origin, scene, placed)
        annotations = self._make_annotations(pose, placed, stats)

        ego = EgoState(
            speed=scene.trajectory.speed_at(t),
            yaw_rate=scene.trajectory.yaw_rate_at(t),
            pitch_rate=scene.trajectory.pitch_rate_at(t),
            motion_state=MotionState(scene.trajectory.motion_state_at(t)),
        )
        return FrameRecord(
            index=frame_index,
            time=t,
            image=image,
            id_buffer=id_buffer,
            annotations=annotations,
            ego=ego,
        )

    def _prepare(self, scene: Scene, t: float) -> tuple[CameraPose, np.ndarray, np.ndarray, Placed]:
        """The shared preparation of a render: the pose, the world ray
        directions ``(H, W, 3)``, the camera centre and the placed objects."""
        pose = scene.trajectory.pose_at(t)
        rot = pose.rotation()
        dirs = self._dirs_cam @ rot.T  # world-frame directions, (H, W, 3)
        origin = np.asarray(pose.position, dtype=float)
        return pose, dirs, origin, self._place_objects(scene, rot, origin, t)

    def _object_table(self, scene: Scene) -> ObjectTable:
        """The scene's :class:`ObjectTable`, rebuilt only when its objects are
        not the last table's (objects are frozen, so the same objects are the
        same fields)."""
        table = self._table
        objects = scene.objects
        if table is None or len(table.objects) != len(objects) or not all(map(operator.is_, table.objects, objects)):
            table = self._table = ObjectTable.of(objects)
        return table

    def _place_objects(self, scene: Scene, rot: np.ndarray, origin: np.ndarray, t: float) -> Placed:
        """The objects to paint, far to near by camera depth of the
        footprint, each with the frame-clipped window its projected face
        covers — objects too near, too far, partially behind the camera or
        off-frame left out.  Depths and projections are the operations of
        ``CameraPose.world_to_camera`` / ``PinholeCamera.project_to_pixels``
        on the frame's one rotation, each product in its per-object shape: a
        stack of ``(1, 3) @ (3, 3)`` for the depths and of ``(4, 3) @ (3, 3)``
        for the corners."""
        intr = self.intrinsics
        h, w = intr.height, intr.width
        table = self._object_table(scene)
        n = len(table.objects)
        centres = np.zeros((n, 1, 3))
        centres[:, 0, ::2] = np.array([obj.position_at(t) for obj in table.objects], dtype=np.float64).reshape(n, 2)
        depth = ((centres - origin) @ rot)[:, 0, 2]
        order = np.array(sorted(range(n), key=depth.tolist().__getitem__, reverse=True), dtype=np.int64)
        far = scene.max_ground_depth * 1.3
        rows = order[~((depth[order] < 0.5) | (depth[order] > far))]

        points = centres[rows, 0]
        cx, cz = points[:, 0], points[:, 2]
        half, u_dirs = table.half_widths[rows], table.u_dirs[rows]
        dx, dz = half * u_dirs[:, 0], half * u_dirs[:, 2]
        left, right, near, back = cx - dx, cx + dx, cz - dz, cz + dz
        corners = np.empty((rows.size, 4, 3))  # as SceneObject.corners_at orders them
        corners[:, :, 0] = np.stack([left, right, right, left], axis=1)
        corners[:, :2, 1] = 0.0
        corners[:, 2:, 1] = -table.heights[rows, None]
        corners[:, :, 2] = np.stack([near, back, back, near], axis=1)
        cam = (corners - origin) @ rot
        z = cam[..., 2]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            px = intr.focal * cam[..., 0] / z + intr.cx
            py = intr.focal * cam[..., 1] / z + intr.cy
            x0 = np.clip(np.floor(px.min(axis=1)), 0, w)
            x1 = np.clip(np.ceil(px.max(axis=1)) + 1, 0, w)
            y0 = np.clip(np.floor(py.min(axis=1)), 0, h)
            y1 = np.clip(np.ceil(py.max(axis=1)) + 1, 0, h)
        # Partially behind the camera: skipped (conservative).
        keep = ~(z <= 0.1).any(axis=1) & (x0 < x1) & (y0 < y1)
        windows = np.stack([y0, y1, x0, x1], axis=1)[keep].astype(np.int64)
        return Placed(table, rows[keep], windows, points[keep])

    def _make_annotations(self, pose: CameraPose, placed: Placed, stats: np.ndarray) -> list[ObjectAnnotation]:
        """One annotation per detectable placed object that kept at least
        ``min_annotation_pixels`` pixels (and at least one), in scene order:
        its kept pixels' bounding box, their share of the pixels it painted,
        and the camera depth of its centre."""
        least = max(self.min_annotation_pixels, 1)
        objects = placed.table.objects
        rows = placed.rows.tolist()
        stats = stats.tolist()
        picked = [
            k
            for k in sorted(range(len(rows)), key=rows.__getitem__)
            if objects[rows[k]].detectable and stats[k][STAT_VISIBLE] >= least
        ]
        if not picked:
            return []
        centres = placed.points[picked, None, :]
        centres[:, 0, 1] = [-objects[rows[k]].height / 2.0 for k in picked]
        depths = pose.world_to_camera(centres)[:, 0, 2].tolist()
        annotations = []
        for k, depth in zip(picked, depths):
            obj = objects[rows[k]]
            painted, visible, x0, y0, x1, y1 = stats[k]
            annotations.append(
                ObjectAnnotation(
                    object_id=obj.object_id,
                    kind=obj.kind,
                    bbox=(float(x0), float(y0), float(x1), float(y1)),
                    depth=depth,
                    visibility=float(min(visible / painted, 1.0)),
                    pixel_count=visible,
                )
            )
        return annotations


def _render_surfaces(
    dirs: np.ndarray, origin: np.ndarray, scene: Scene, placed: Placed
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ground, the placed objects and the sky — the active kernel
    backend's ``render_surfaces`` hook when it has one and takes these
    arguments (it returns ``None`` for what it cannot prove), else the
    reference below."""
    impl = kernels.override("render_surfaces")
    out = None if impl is None else impl(dirs, origin, scene, placed)
    return _render_surfaces_reference(dirs, origin, scene, placed) if out is None else out


def _sky_gray(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray, seed: int) -> np.ndarray:
    """Sky gray values for ray directions given by component."""
    norm = np.sqrt(dx**2 + dy**2 + dz**2)
    azimuth = np.arctan2(dx, dz)
    elevation = -dy / norm  # positive above the horizon
    return sky_texture(azimuth, elevation, seed=seed)


def _render_surfaces_reference(
    dirs: np.ndarray, origin: np.ndarray, scene: Scene, placed: Placed
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ground, then the placed objects in order, painted over each other,
    then the sky wherever no surface landed.

    Reference implementation of the ``render_surfaces`` hook (the oracle
    every backend's kernel must match bit for bit).  Returns the float32
    image, the int32 id-buffer and the int64 ``(len(placed.rows), 6)``
    statistics of each placed object (columns ``STAT_*``).
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
    # component: masking the (H, W, 3) array itself is ~20x slower than
    # masking its three strided planes) and everything below works on the
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

    objects = placed.objects
    windows = [(slice(y0, y1), slice(x0, x1)) for y0, y1, x0, x1 in placed.windows.tolist()]
    stats = np.zeros((len(objects), 6), dtype=np.int64)
    for k, (obj, window, point) in enumerate(zip(objects, windows, placed.points)):
        ux, uz = obj.facing
        normal, u_dir = np.array([-uz, 0.0, ux]), np.array([ux, 0.0, uz])
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
        stats[k, STAT_PAINTED] = count
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

    sky = id_buffer == SKY_ID
    image[sky] = _sky_gray(*(dirs[..., k][sky] for k in range(3)), scene.texture_seed)

    # What nearer objects left of each object, scanned where it was drawn.
    for k, (obj, (rows, cols)) in enumerate(zip(objects, windows)):
        if stats[k, STAT_PAINTED]:
            ys, xs = np.nonzero(id_buffer[rows, cols] == obj.object_id)
            if ys.size:
                stats[k, STAT_VISIBLE:] = (
                    ys.size, cols.start + xs.min(), rows.start + ys.min(), cols.start + xs.max() + 1,
                    rows.start + ys.max() + 1,
                )
    return image.astype(np.float32), id_buffer, stats
