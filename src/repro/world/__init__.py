"""Synthetic 3-D driving world.

Stands in for the nuScenes / RobotCar / KITTI footage the paper evaluates
on.  Frames are rendered with a true pinhole projection of a 3-D scene —
textured ground plane, buildings, cars, pedestrians — from an ego camera on
a parameterised trajectory, so every geometric property DiVE exploits
(focus of expansion, normalised MV magnitude vs. height, rotational flow)
holds in the rendered pixels by construction.
"""

from repro.world.annotations import EgoState, FrameRecord, MotionState, ObjectAnnotation
from repro.world.datasets import Clip, ScoredClip, kitti_like, nuscenes_like, robotcar_like, summarize_clips
from repro.world.objects import SceneObject, building, moving_car, parked_car, pedestrian
from repro.world.renderer import Renderer
from repro.world.scene import Scene
from repro.world.trajectory import EgoTrajectory, Segment, StraightSegment, StopSegment, TurnSegment

__all__ = [
    "Clip",
    "EgoState",
    "EgoTrajectory",
    "FrameRecord",
    "MotionState",
    "ObjectAnnotation",
    "Renderer",
    "Scene",
    "SceneObject",
    "ScoredClip",
    "Segment",
    "StopSegment",
    "StraightSegment",
    "TurnSegment",
    "building",
    "kitti_like",
    "moving_car",
    "nuscenes_like",
    "parked_car",
    "pedestrian",
    "robotcar_like",
    "summarize_clips",
]
