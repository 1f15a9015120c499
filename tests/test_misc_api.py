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

    @pytest.mark.parametrize("gop", [0, -2])
    def test_encoder_rejects_a_gop_below_one(self, gop):
        from repro.codec import EncoderConfig, VideoEncoder

        with pytest.raises(ValueError, match="gop"):
            VideoEncoder(EncoderConfig(gop=gop))

    def test_detection_equality(self):
        a = Detection("car", (0, 0, 1, 1), 0.5)
        b = Detection("car", (0, 0, 1, 1), 0.5)
        assert a == b


@pytest.mark.usefixtures("kernel_backend")
class TestCodecEntryChecks:
    """What enters the codec is checked where it enters, on every backend:
    the agent's frame and QP offsets at ``encode``, the uplinked QP map at
    ``decode``.  Each is a ``ValueError`` naming the argument."""

    FRAME = np.full((32, 48), 96.0, dtype=np.float32)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_encode_rejects_a_pixel_that_is_not_finite(self, value):
        from repro.codec import VideoEncoder

        frame = self.FRAME.copy()
        frame[17, 33] = value
        with pytest.raises(ValueError, match="frame"):
            VideoEncoder().encode(frame, base_qp=20.0)

    def test_encode_rejects_nan_qp_offsets(self):
        from repro.codec import VideoEncoder

        offsets = np.zeros((2, 3))
        offsets[1, 2] = np.nan
        with pytest.raises(ValueError, match="qp_offsets"):
            VideoEncoder().encode(self.FRAME, qp_offsets=offsets, target_bits=20_000.0)

    @pytest.mark.parametrize("name", ["target_bits", "base_qp"])
    def test_encode_rejects_a_nan_rate_argument(self, name):
        from repro.codec import VideoEncoder

        with pytest.raises(ValueError, match=name):
            VideoEncoder().encode(self.FRAME, **{name: float("nan")})

    @pytest.mark.parametrize("corrupt", [100.0, -100.0, np.nan], ids=["plus100", "minus100", "nan"])
    @pytest.mark.parametrize("frame_type", ["I", "P"])
    def test_decode_rejects_a_qp_map_corrupted_in_transit(self, frame_type, corrupt):
        from repro.codec import VideoDecoder, VideoEncoder

        encoder, decoder = VideoEncoder(), VideoDecoder()
        encoded = encoder.encode(self.FRAME, base_qp=20.0)
        if frame_type == "P":
            decoder.decode(encoded)
            encoded = encoder.encode(self.FRAME + 3.0, base_qp=20.0)
        assert encoded.frame_type == frame_type
        encoded.qp_map = encoded.qp_map + corrupt
        with pytest.raises(ValueError, match="qp_map"):
            decoder.decode(encoded)
