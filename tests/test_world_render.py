"""Tests for scene objects, the renderer and dataset presets."""

import numpy as np
import pytest

from repro.geometry import CameraIntrinsics
from repro.world import (
    Renderer,
    Scene,
    SceneObject,
    StraightSegment,
    EgoTrajectory,
    building,
    kitti_like,
    moving_car,
    nuscenes_like,
    parked_car,
    pedestrian,
    robotcar_like,
    summarize_clips,
)
from repro.world.scene import GROUND_ID, SKY_ID

INTR = CameraIntrinsics(focal=278.0, width=320, height=192)


def simple_scene(objects=None, speed=8.0, duration=3.0):
    traj = EgoTrajectory([StraightSegment(duration, speed)])
    return Scene(trajectory=traj, objects=objects or [], texture_seed=5)


class TestSceneObject:
    def test_validation(self):
        with pytest.raises(ValueError):
            SceneObject(kind="car", base=(0, 0), width=0, height=1)
        with pytest.raises(ValueError):
            SceneObject(kind="car", base=(0, 0), width=1, height=1, facing=(0, 0))

    def test_position_at(self):
        car = moving_car(0.0, 10.0, speed=5.0, direction=1.0, oscillation=(0.0, 0.0, 0.0))
        assert car.position_at(2.0) == (0.0, 20.0)
        assert car.is_moving

    def test_speed_oscillation_bounded(self):
        """The oscillation perturbs position but never by more than
        amplitude/omega, and averages out over full periods."""
        car = moving_car(0.0, 10.0, speed=5.0, direction=1.0, oscillation=(1.0, 0.5, 0.0))
        x, z = car.position_at(2.0)  # one full period
        assert x == 0.0
        assert z == pytest.approx(20.0, abs=1.0 / (2 * np.pi * 0.5) * 2)

    def test_default_oscillation_enabled(self):
        car = moving_car(0.0, 10.0, speed=5.0, seed=17)
        assert car.speed_oscillation[0] > 0

    def test_corners_stand_on_ground(self):
        ped = pedestrian(2.0, 15.0)
        corners = ped.corners_at(0.0)
        assert corners[0, 1] == 0.0 and corners[1, 1] == 0.0  # bottom at Y=0
        assert corners[2, 1] == -1.75  # top above ground (Y down)

    def test_facing_normalised(self):
        obj = SceneObject(kind="car", base=(0, 0), width=1, height=1, facing=(3.0, 4.0))
        assert np.hypot(*obj.facing) == pytest.approx(1.0)

    def test_detectable_kinds(self):
        assert parked_car(0, 10).detectable
        assert pedestrian(0, 10).detectable
        assert not building(0, 10).detectable

    def test_scene_assigns_ids(self):
        scene = simple_scene([parked_car(3, 10), pedestrian(-3, 12)])
        ids = [o.object_id for o in scene.objects]
        assert ids == [2, 3]
        assert scene.object_by_id(3).kind == "pedestrian"


class TestRenderer:
    def test_empty_scene_sky_and_ground(self):
        rec = Renderer(INTR).render(simple_scene(), 0.0)
        assert rec.image.shape == (192, 320)
        assert set(np.unique(rec.id_buffer)) == {SKY_ID, GROUND_ID}
        # Sky above the horizon, ground below.
        assert rec.id_buffer[0, :].max() == SKY_ID
        assert rec.id_buffer[-1, :].min() == GROUND_ID

    def test_object_appears_in_id_buffer(self):
        scene = simple_scene([parked_car(0.0, 20.0)])
        rec = Renderer(INTR).render(scene, 0.0)
        obj_id = scene.objects[0].object_id
        assert (rec.id_buffer == obj_id).sum() > 50
        assert len(rec.annotations) == 1
        ann = rec.annotations[0]
        assert ann.kind == "car"
        assert ann.visibility == pytest.approx(1.0)

    def test_bbox_matches_projection(self):
        scene = simple_scene([parked_car(0.0, 20.0)])
        rec = Renderer(INTR).render(scene, 0.0)
        x0, y0, x1, y1 = rec.annotations[0].bbox
        # Car is 1.9 m wide at 20 m: ~26 px wide; 1.5 m tall: ~21 px.
        assert 20 < (x1 - x0) < 35
        assert 15 < (y1 - y0) < 27
        # Centred horizontally.
        assert abs((x0 + x1) / 2 - INTR.cx) < 4

    def test_occlusion_reduces_visibility(self):
        # A pedestrian directly behind a car: heavily occluded.
        scene = simple_scene([pedestrian(0.0, 25.0), parked_car(0.0, 15.0)])
        rec = Renderer(INTR).render(scene, 0.0)
        anns = {a.kind: a for a in rec.annotations}
        assert "car" in anns
        if "pedestrian" in anns:  # may be fully hidden
            assert anns["pedestrian"].visibility < 0.9

    def test_nearer_object_wins(self):
        scene = simple_scene([parked_car(0.0, 30.0), parked_car(0.0, 12.0)])
        rec = Renderer(INTR).render(scene, 0.0)
        near_id = scene.objects[1].object_id
        far_id = scene.objects[0].object_id
        near_count = (rec.id_buffer == near_id).sum()
        far_count = (rec.id_buffer == far_id).sum()
        assert near_count > far_count

    def test_behind_camera_skipped(self):
        scene = simple_scene([parked_car(0.0, -10.0)])
        rec = Renderer(INTR).render(scene, 0.0)
        assert len(rec.annotations) == 0

    def test_moving_object_moves(self):
        scene = simple_scene([moving_car(3.0, 20.0, speed=6.0, direction=-1.0)], speed=0.0001)
        r = Renderer(INTR)
        rec0 = r.render(scene, 0.0)
        rec1 = r.render(scene, 0.5)
        b0 = rec0.annotations[0].bbox
        b1 = rec1.annotations[0].bbox
        assert b1 != b0
        # Oncoming car gets closer: bigger box.
        assert (b1[2] - b1[0]) > (b0[2] - b0[0])

    def test_forward_motion_expands_scene(self):
        """Static objects drift outward from the centre as the ego advances."""
        scene = simple_scene([parked_car(3.0, 30.0)])
        r = Renderer(INTR)
        c0 = np.mean(r.render(scene, 0.0).annotations[0].bbox[::2])
        c1 = np.mean(r.render(scene, 1.0).annotations[0].bbox[::2])
        assert c1 > c0  # car on the right moves further right

    def test_determinism(self):
        scene = simple_scene([parked_car(2.0, 18.0)])
        r = Renderer(INTR)
        a = r.render(scene, 0.7)
        b = r.render(scene, 0.7)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.id_buffer, b.id_buffer)

    @pytest.mark.usefixtures("kernel_backend")
    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_time_is_rejected(self, t):
        """Before any value reaches the kernels (a NaN-to-int64 cast is
        undefined in C), naming the argument."""
        scene = simple_scene([parked_car(2.0, 18.0), pedestrian(-2.0, 12.0)])
        with pytest.raises(ValueError, match=r"render time t must be finite, got (nan|inf|-inf)"):
            Renderer(INTR).render(scene, t)

    def test_image_range(self):
        rec = Renderer(INTR).render(simple_scene([building(8, 30, seed=4)]), 0.0)
        assert rec.image.min() >= 0.0
        assert rec.image.max() <= 255.0

    def test_ego_state_attached(self):
        rec = Renderer(INTR).render(simple_scene(speed=8.0), 1.0)
        assert rec.ego is not None
        assert rec.ego.moving
        assert rec.ego.speed == pytest.approx(8.0, rel=1e-6)


class TestDatasets:
    def test_nuscenes_preset_properties(self):
        clip = nuscenes_like(3, n_frames=6)
        assert clip.fps == 12.0
        assert clip.dataset == "nuscenes"
        f = clip.frame(0)
        assert f.image.shape == (384, 640)

    def test_robotcar_preset_properties(self):
        clip = robotcar_like(3, n_frames=6)
        assert clip.fps == 16.0
        assert clip.frame(0).image.shape == (432, 576)

    def test_kitti_preset_has_imu(self):
        clip = kitti_like(1, n_frames=6)
        assert clip.fps == 10.0
        times, pr, yr = clip.scene.trajectory.imu_samples()
        assert len(times) > 0

    def test_weather_affects_contrast(self):
        sunny = robotcar_like(5, n_frames=2, weather="sunny").frame(0).image
        rain = robotcar_like(5, n_frames=2, weather="rain").frame(0).image
        assert sunny.std() > rain.std()

    def test_bad_weather_rejected(self):
        with pytest.raises(ValueError):
            robotcar_like(0, weather="tornado")

    def test_bad_resolution_rejected(self):
        with pytest.raises(ValueError):
            nuscenes_like(0, resolution=(300, 200))

    def test_seed_determinism(self):
        a = nuscenes_like(7, n_frames=3).frame(1).image
        b = nuscenes_like(7, n_frames=3).frame(1).image
        np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self):
        a = nuscenes_like(7, n_frames=2).frame(0).image
        b = nuscenes_like(8, n_frames=2).frame(0).image
        assert not np.array_equal(a, b)

    def test_frame_cache(self):
        clip = nuscenes_like(0, n_frames=4)
        f1 = clip.frame(2)
        f2 = clip.frame(2)
        assert f1 is f2

    def test_frame_out_of_range(self):
        clip = nuscenes_like(0, n_frames=4)
        with pytest.raises(IndexError):
            clip.frame(4)

    def test_clips_contain_objects(self):
        clip = nuscenes_like(11, n_frames=4)
        total = sum(len(clip.frame(i).annotations) for i in range(4))
        assert total > 4  # several detectable objects per frame on average

    def test_summarize(self):
        clips = [nuscenes_like(0, n_frames=3), nuscenes_like(1, n_frames=3)]
        summary = summarize_clips(clips)
        assert summary["videos"] == 2
        assert summary["frames"] == 6
        assert summary["cars"] > 0
