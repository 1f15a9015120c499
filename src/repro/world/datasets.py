"""Dataset presets: synthetic stand-ins for nuScenes, RobotCar and KITTI.

Each preset builds seeded random driving clips whose frame rate, aspect
ratio, traffic mix and ego behaviour mirror the corresponding real dataset
as summarised in the paper (Section II-E and Table I):

- ``nuscenes_like`` — 12 FPS urban driving (Boston/Singapore style): dense
  buildings, frequent red-light stops, car-heavy traffic.
- ``robotcar_like`` — 16 FPS Oxford city-centre driving: pedestrian-heavy,
  variable weather (texture contrast), fewer cars.
- ``kitti_like`` — 10 FPS rural/highway driving with a 100 Hz gyro ground
  truth, used only for the rotation-estimation experiments.

Resolutions default to a ~1/2.5-per-axis scale-down of the real datasets
(nuScenes 1600x900 -> 640x384 etc.) so the full evaluation runs on a
laptop; pass ``resolution=`` to rescale.  The bandwidth labels of the
experiments are scaled by pixel count accordingly (see
``repro.experiments.config``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.camera import CameraIntrinsics
from repro.world.annotations import FrameRecord
from repro.world.objects import SceneObject, building, moving_car, parked_car, pedestrian, pole
from repro.world.renderer import Renderer
from repro.world.scene import Scene
from repro.world.trajectory import EgoTrajectory, Segment, StopSegment, StraightSegment, TurnSegment

__all__ = ["Clip", "ScoredClip", "kitti_like", "nuscenes_like", "robotcar_like", "summarize_clips"]


@dataclass
class Clip:
    """A renderable video clip with ground truth.

    Frames are rendered lazily and a small LRU cache keeps the most recent
    ones.  No scheme re-reads a frame (each fetches every index once and
    keeps its own previous frame); the cache serves repeat passes over
    short clips (Fig 9's per-method ME timing, Fig 12) and :meth:`preload`.
    """

    name: str
    dataset: str
    scene: Scene
    fps: float
    n_frames: int
    intrinsics: CameraIntrinsics
    _cache: "OrderedDict[int, FrameRecord]" = field(default_factory=OrderedDict, repr=False)
    _cache_size: int = 6

    def __post_init__(self) -> None:
        self._renderer = Renderer(self.intrinsics)

    @property
    def duration(self) -> float:
        return self.n_frames / self.fps

    def time_of(self, index: int) -> float:
        return index / self.fps

    def frame(self, index: int) -> FrameRecord:
        """Render (or fetch from cache) frame ``index``."""
        if not 0 <= index < self.n_frames:
            raise IndexError(f"frame {index} outside clip of {self.n_frames} frames")
        if index in self._cache:
            self._cache.move_to_end(index)
            return self._cache[index]
        record = self._renderer.render(self.scene, self.time_of(index), frame_index=index)
        self._cache[index] = record
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return record

    def render_at(self, index: int) -> FrameRecord:
        """Render frame ``index`` without touching the shared LRU cache.

        The renderer itself is pure (scene geometry is immutable after
        construction), so this is safe to call from several threads at
        once; :meth:`frame` is not, because it mutates the cache.
        """
        if not 0 <= index < self.n_frames:
            raise IndexError(f"frame {index} outside clip of {self.n_frames} frames")
        return self._renderer.render(self.scene, self.time_of(index), frame_index=index)

    def frames(self):
        """Iterate over all frames in order."""
        for i in range(self.n_frames):
            yield self.frame(i)

    def preload(self) -> "Clip":
        """Render and pin every frame (the cache grows to the clip length).

        Use when a workload iterates the clip repeatedly — benchmark
        repeats, multi-scheme comparisons on the same clip — and lazy
        re-rendering would dominate the measured time.  Costs roughly one
        frame of memory per clip frame.  Returns the clip for chaining.
        """
        self._cache_size = max(self._cache_size, self.n_frames)
        for _ in self.frames():
            pass
        return self

    def motion_state(self, index: int) -> str:
        return self.scene.trajectory.motion_state_at(self.time_of(index))


class ScoredClip:
    """Clip facade that scores every frame it hands out, once per index.

    ``score(record)`` — e.g. ``QualityAwareDetector.ground_truth`` — runs
    on whichever thread fetched the frame (the scheme's, in every
    driver), on the record that fetch produced anyway, so scoring a clip
    never costs a second render.  Only the per-index result is kept,
    never the record: a retained record pins the frame's image and id
    buffer.  ``score`` must be a pure function of the record;
    everything but the fetch methods and :meth:`scores` is the wrapped
    clip's.
    """

    def __init__(self, clip: Clip, score: Callable[[FrameRecord], object]):
        self._clip = clip
        self._score = score
        self._lock = threading.Lock()
        self._scores: dict[int, object] = {}

    def _scored(self, record: FrameRecord) -> FrameRecord:
        with self._lock:
            known = record.index in self._scores
        if not known:
            # Outside the lock: concurrent fetchers score different frames
            # in parallel, and a racing duplicate is equal by purity.
            value = self._score(record)
            with self._lock:
                self._scores.setdefault(record.index, value)
        return record

    def frame(self, index: int) -> FrameRecord:
        return self._scored(self._clip.frame(index))

    def render_at(self, index: int) -> FrameRecord:
        return self._scored(self._clip.render_at(index))

    def frames(self):
        for i in range(self._clip.n_frames):
            yield self.frame(i)

    def scores(self) -> list:
        """The score of every frame, in index order.

        Frames nothing has fetched yet are fetched (and scored) now, so
        the list is complete whatever the run skipped.
        """
        indices = range(self._clip.n_frames)
        with self._lock:
            missing = [i for i in indices if i not in self._scores]
        for i in missing:
            self.frame(i)
        with self._lock:
            return [self._scores[i] for i in indices]

    def __getattr__(self, name):
        return getattr(self._clip, name)


def _default_intrinsics(resolution: tuple[int, int]) -> CameraIntrinsics:
    w, h = resolution
    if w % 16 or h % 16:
        raise ValueError(f"resolution {resolution} must be a multiple of 16")
    # ~60 degree horizontal field of view.
    return CameraIntrinsics(focal=0.87 * w, width=w, height=h)


def _corridor(traj: EgoTrajectory, spacing: float) -> list[tuple[float, float, float]]:
    """Sample (x, z, yaw) along the ego path at roughly uniform arc length."""
    samples = []
    dist = 0.0
    t = 0.0
    dt = 0.05
    next_at = 0.0
    while t <= traj.duration:
        if dist >= next_at:
            pose = traj.pose_at(t)
            samples.append((pose.position[0], pose.position[2], pose.yaw))
            next_at += spacing
        dist += traj.speed_at(t) * dt
        t += dt
    # Extend the corridor past the end of the drive so the horizon stays
    # populated in the final frames.
    if samples:
        x, z, yaw = samples[-1]
        for k in range(1, int(80.0 / spacing) + 1):
            samples.append((x + np.sin(yaw) * spacing * k, z + np.cos(yaw) * spacing * k, yaw))
    return samples


def _lateral(x: float, z: float, yaw: float, offset: float) -> tuple[float, float]:
    """Point at signed lateral ``offset`` (right positive) from a path point."""
    return (x + np.cos(yaw) * offset, z - np.sin(yaw) * offset)


def _populate(
    traj: EgoTrajectory,
    rng: np.random.Generator,
    *,
    building_every: float,
    parked_car_prob: float,
    moving_cars: int,
    oncoming_cars: int,
    pedestrians_side: int,
    pedestrians_crossing: int,
    lead_speed: float,
) -> list[SceneObject]:
    objects: list[SceneObject] = []
    corridor = _corridor(traj, spacing=building_every)

    for x, z, yaw in corridor:
        for side in (-1.0, 1.0):
            if rng.random() < 0.85:
                off = side * rng.uniform(9.0, 15.0)
                bx, bz = _lateral(x, z, yaw, off)
                objects.append(
                    building(
                        bx,
                        bz,
                        width=rng.uniform(8.0, 14.0),
                        height=rng.uniform(6.0, 12.0),
                        seed=int(rng.integers(1 << 31)),
                    )
                )
        if rng.random() < 0.4:
            side = rng.choice([-1.0, 1.0])
            px_, pz_ = _lateral(x, z, yaw, side * 7.0)
            objects.append(pole(px_, pz_, height=rng.uniform(4.0, 6.0), seed=int(rng.integers(1 << 31))))

    park_corridor = _corridor(traj, spacing=14.0)
    for x, z, yaw in park_corridor:
        if rng.random() < parked_car_prob:
            side = rng.choice([-1.0, 1.0])
            cx, cz = _lateral(x, z, yaw, side * rng.uniform(4.5, 5.5))
            objects.append(parked_car(cx, cz, seed=int(rng.integers(1 << 31))))

    start = traj.pose_at(0.0)
    sx, sz, syaw = start.position[0], start.position[2], start.yaw
    for i in range(moving_cars):
        # Leading cars ahead in the ego lane, drifting slightly slower/faster.
        ahead = rng.uniform(12.0, 45.0) + i * 18.0
        cx, cz = _lateral(sx + np.sin(syaw) * ahead, sz + np.cos(syaw) * ahead, syaw, rng.uniform(-0.8, 0.8))
        speed = max(0.0, lead_speed + rng.uniform(-1.5, 1.5))
        objects.append(moving_car(cx, cz, speed=speed, direction=1.0, seed=int(rng.integers(1 << 31))))
    for i in range(oncoming_cars):
        ahead = rng.uniform(25.0, 70.0) + i * 25.0
        cx, cz = _lateral(sx + np.sin(syaw) * ahead, sz + np.cos(syaw) * ahead, syaw, -3.5)
        objects.append(
            moving_car(cx, cz, speed=rng.uniform(6.0, 10.0), direction=-1.0, seed=int(rng.integers(1 << 31)))
        )

    ped_corridor = _corridor(traj, spacing=11.0)
    placed = 0
    for x, z, yaw in ped_corridor:
        if placed >= pedestrians_side:
            break
        if rng.random() < 0.6:
            side = rng.choice([-1.0, 1.0])
            px_, pz_ = _lateral(x, z, yaw, side * rng.uniform(6.0, 8.0))
            along = rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.5)
            vel = (np.sin(yaw) * along, np.cos(yaw) * along)
            objects.append(pedestrian(px_, pz_, velocity=(float(vel[0]), float(vel[1])), seed=int(rng.integers(1 << 31))))
            placed += 1
    for i in range(pedestrians_crossing):
        ahead = rng.uniform(15.0, 50.0) + i * 12.0
        px_, pz_ = _lateral(sx + np.sin(syaw) * ahead, sz + np.cos(syaw) * ahead, syaw, rng.choice([-1.0, 1.0]) * 6.0)
        cross = rng.choice([-1.0, 1.0]) * rng.uniform(0.9, 1.5)
        vel = (np.cos(syaw) * cross, -np.sin(syaw) * cross)
        objects.append(pedestrian(px_, pz_, velocity=(float(vel[0]), float(vel[1])), seed=int(rng.integers(1 << 31))))
    return objects


def _urban_trajectory(rng: np.random.Generator, duration: float, *, with_stop: bool, speed: float) -> EgoTrajectory:
    """Stop-and-go urban driving with an occasional turn."""
    segments: list[Segment] = []
    remaining = duration
    # Keep the first leg short enough that stop/turn events land inside
    # short clips too.
    first_leg = min(rng.uniform(3.0, 5.0), max(remaining * 0.3, 1.0))
    segments.append(StraightSegment(first_leg, speed))
    remaining -= first_leg
    if with_stop and remaining > 2.0:
        decel = min(1.2, remaining * 0.2)
        stop = max(min(rng.uniform(1.5, 3.0), remaining - 2 * decel - 0.3), 0.5)
        segments.append(Segment(duration=decel, speed_start=speed, speed_end=0.0))
        segments.append(StopSegment(stop))
        segments.append(Segment(duration=decel, speed_start=0.0, speed_end=speed))
        remaining -= 2 * decel + stop
    if remaining > 3.0:
        turn = min(rng.uniform(1.5, 2.5), remaining - 1.0)
        segments.append(TurnSegment(turn, speed * 0.8, yaw_rate=rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.3)))
        remaining -= turn
    if remaining > 0.05:
        segments.append(StraightSegment(remaining, speed))
    return EgoTrajectory(segments, camera_height=1.5, pitch_amplitude=0.0025, pitch_frequency=1.1)


def nuscenes_like(
    seed: int,
    *,
    n_frames: int = 96,
    resolution: tuple[int, int] = (640, 384),
    with_stop: bool | None = None,
) -> Clip:
    """A nuScenes-style urban clip: 12 FPS, car-heavy, stop-and-go.

    Parameters
    ----------
    seed:
        Clip identity; every random choice derives from it.
    n_frames:
        Clip length in frames (paper clips are 20 s = 240 frames; the
        default is shorter to keep experiments fast).
    resolution:
        ``(width, height)``, multiples of 16.
    with_stop:
        Force (or forbid) a red-light stop; random when ``None``.
    """
    rng = np.random.default_rng(seed)
    fps = 12.0
    duration = n_frames / fps + 0.5
    if with_stop is None:
        with_stop = bool(rng.random() < 0.6)
    speed = rng.uniform(7.0, 10.0)
    traj = _urban_trajectory(rng, duration, with_stop=with_stop, speed=speed)
    objects = _populate(
        traj,
        rng,
        building_every=13.0,
        parked_car_prob=0.55,
        moving_cars=3,
        oncoming_cars=2,
        pedestrians_side=3,
        pedestrians_crossing=1,
        lead_speed=speed,
    )
    scene = Scene(trajectory=traj, objects=objects, texture_seed=seed * 31 + 7)
    return Clip(
        name=f"nuscenes-{seed:04d}",
        dataset="nuscenes",
        scene=scene,
        fps=fps,
        n_frames=n_frames,
        intrinsics=_default_intrinsics(resolution),
    )


def robotcar_like(
    seed: int,
    *,
    n_frames: int = 96,
    resolution: tuple[int, int] = (576, 432),
    weather: str | None = None,
) -> Clip:
    """A RobotCar-style Oxford clip: 16 FPS, pedestrian-heavy, weather-tagged."""
    rng = np.random.default_rng(seed + 90001)
    fps = 16.0
    duration = n_frames / fps + 0.5
    weathers = {"sunny": 1.0, "overcast": 0.75, "rain": 0.6}
    if weather is None:
        weather = str(rng.choice(list(weathers)))
    if weather not in weathers:
        raise ValueError(f"unknown weather {weather!r}; choose from {sorted(weathers)}")
    speed = rng.uniform(6.0, 9.0)
    traj = _urban_trajectory(rng, duration, with_stop=bool(rng.random() < 0.4), speed=speed)
    objects = _populate(
        traj,
        rng,
        building_every=12.0,
        parked_car_prob=0.35,
        moving_cars=2,
        oncoming_cars=1,
        pedestrians_side=8,
        pedestrians_crossing=2,
        lead_speed=speed,
    )
    scene = Scene(
        trajectory=traj,
        objects=objects,
        texture_seed=seed * 17 + 3,
        weather_contrast=weathers[weather],
    )
    return Clip(
        name=f"robotcar-{seed:04d}-{weather}",
        dataset="robotcar",
        scene=scene,
        fps=fps,
        n_frames=n_frames,
        intrinsics=_default_intrinsics(resolution),
    )


def kitti_like(
    seed: int,
    *,
    n_frames: int = 80,
    resolution: tuple[int, int] = (640, 192),
    turning: bool = True,
) -> Clip:
    """A KITTI-style rural clip: 10 FPS, fast, sparse traffic, IMU ground truth.

    The trajectory carries a pitch oscillation and (optionally) sweeping
    turns so the rotational-component-elimination experiments have real
    rotation to estimate; ground truth comes from
    ``clip.scene.trajectory.imu_samples()``.
    """
    rng = np.random.default_rng(seed + 777)
    fps = 10.0
    duration = n_frames / fps + 0.5
    speed = rng.uniform(10.0, 14.0)
    segments: list[Segment] = [StraightSegment(duration * 0.3, speed)]
    if turning:
        segments.append(TurnSegment(duration * 0.25, speed * 0.9, yaw_rate=rng.uniform(0.1, 0.25)))
        segments.append(StraightSegment(duration * 0.2, speed))
        segments.append(TurnSegment(duration * 0.25, speed * 0.9, yaw_rate=-rng.uniform(0.1, 0.25)))
    else:
        segments.append(StraightSegment(duration * 0.7, speed))
    traj = EgoTrajectory(segments, camera_height=1.65, pitch_amplitude=0.004, pitch_frequency=1.4)
    objects = _populate(
        traj,
        rng,
        building_every=22.0,
        parked_car_prob=0.15,
        moving_cars=2,
        oncoming_cars=1,
        pedestrians_side=1,
        pedestrians_crossing=0,
        lead_speed=speed,
    )
    scene = Scene(trajectory=traj, objects=objects, texture_seed=seed * 13 + 29)
    return Clip(
        name=f"kitti-{seed:04d}",
        dataset="kitti",
        scene=scene,
        fps=fps,
        n_frames=n_frames,
        intrinsics=_default_intrinsics(resolution),
    )


def summarize_clips(clips: list[Clip]) -> dict:
    """Table-I-style summary: FPS, #videos, #frames, #car and #pedestrian
    annotations (counted over every rendered frame)."""
    n_frames = 0
    n_cars = 0
    n_peds = 0
    fps = sorted({c.fps for c in clips})
    for clip in clips:
        for record in clip.frames():
            n_frames += 1
            for ann in record.annotations:
                if ann.kind == "car":
                    n_cars += 1
                elif ann.kind == "pedestrian":
                    n_peds += 1
    return {
        "fps": fps[0] if len(fps) == 1 else fps,
        "videos": len(clips),
        "frames": n_frames,
        "cars": n_cars,
        "pedestrians": n_peds,
    }
