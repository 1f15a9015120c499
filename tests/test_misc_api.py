"""Small API-surface tests: dataclasses, odds and ends."""

import numpy as np
import pytest

from repro.edge import Detection, mean_ap
from repro.geometry import CameraIntrinsics, CameraPose, PinholeCamera
from repro.world.annotations import EgoState, MotionState, ObjectAnnotation


class TestAnnotations:
    def test_area(self):
        ann = ObjectAnnotation(2, "car", (10.0, 20.0, 30.0, 50.0), 15.0, 1.0, 600)
        assert ann.area == pytest.approx(20 * 30)

    def test_degenerate_area(self):
        ann = ObjectAnnotation(2, "car", (10.0, 20.0, 10.0, 20.0), 15.0, 1.0, 0)
        assert ann.area == 0.0

    def test_ego_moving(self):
        assert EgoState(5.0, 0.0, 0.0, MotionState.STRAIGHT).moving
        assert EgoState(5.0, 0.3, 0.0, MotionState.TURNING).moving
        assert not EgoState(0.0, 0.0, 0.0, MotionState.STATIC).moving

    def test_motion_state_values(self):
        assert MotionState("static") is MotionState.STATIC
        with pytest.raises(ValueError):
            MotionState("flying")


class TestMeanAp:
    def test_mean(self):
        assert mean_ap({"car": 0.8, "pedestrian": 0.6}) == pytest.approx(0.7)

    def test_subset(self):
        per_class = {"car": 1.0, "pedestrian": 0.0, "mAP": 0.5}
        assert mean_ap(per_class, kinds=("car",)) == 1.0


class TestCameraExtras:
    def test_with_pose(self):
        intr = CameraIntrinsics(focal=100.0, width=64, height=48)
        cam = PinholeCamera(intr, CameraPose(position=(0, 0, 0)))
        moved = cam.with_pose(CameraPose(position=(1, 2, 3), yaw=0.1))
        assert moved.intrinsics is intr
        assert moved.pose.position == (1, 2, 3)
        assert cam.pose.position == (0, 0, 0)  # original untouched

    def test_forward_direction(self):
        pose = CameraPose(position=(0, 0, 0), yaw=np.pi / 2)
        fwd = pose.forward()
        np.testing.assert_allclose(fwd, [1.0, 0.0, 0.0], atol=1e-12)


class TestEncoderValidation:
    def test_unknown_me_method_raises_at_encode(self):
        from repro.codec import EncoderConfig, VideoEncoder

        enc = VideoEncoder(EncoderConfig(me_method="warp"))
        frame = np.zeros((32, 32), dtype=np.float32)
        enc.encode(frame, base_qp=20)  # intra: no search, fine
        with pytest.raises(ValueError):
            enc.encode(frame, base_qp=20)  # P-frame triggers the search

    def test_detection_equality(self):
        a = Detection("car", (0, 0, 1, 1), 0.5)
        b = Detection("car", (0, 0, 1, 1), 0.5)
        assert a == b
