"""Property tests of the surrogate detector's response curves.

These pin down the properties the whole evaluation depends on: the
detection probability is monotone in region quality, size and visibility;
localisation jitter shrinks with quality; and false positives appear only
under distortion.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.detector import DetectorModel, QualityAwareDetector, _sigmoid
from repro.world.annotations import FrameRecord, ObjectAnnotation


def make_record(index=0, *, bbox=(40, 40, 80, 80), pixel_count=900, visibility=1.0, seed=0):
    rng = np.random.default_rng(seed)
    image = rng.uniform(0, 255, (128, 128)).astype(np.float32)
    ids = np.ones((128, 128), dtype=np.int32)
    x0, y0, x1, y1 = bbox
    ids[y0:y1, x0:x1] = 2
    ann = ObjectAnnotation(
        object_id=2, kind="car", bbox=tuple(float(v) for v in bbox),
        depth=20.0, visibility=visibility, pixel_count=pixel_count,
    )
    return FrameRecord(index=index, time=0.0, image=image, id_buffer=ids, annotations=[ann])


def degrade(image, sigma, seed=0):
    rng = np.random.default_rng(seed)
    return np.clip(image + rng.normal(0, sigma, image.shape), 0, 255).astype(np.float32)


class TestSigmoid:
    def test_midpoint(self):
        assert _sigmoid(0.0) == pytest.approx(0.5)

    def test_monotone(self):
        xs = np.linspace(-5, 5, 21)
        ys = [_sigmoid(x) for x in xs]
        assert all(a < b for a, b in zip(ys, ys[1:]))


class TestDetectionProbability:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 500), st.sampled_from([0.0, 15.0, 40.0, 90.0]))
    def test_monotone_in_quality(self, record_seed, sigma):
        """Never detected on a degraded frame but missed on a cleaner one."""
        det = QualityAwareDetector(seed=1)
        record = make_record(index=record_seed % 97, seed=record_seed)
        clean_hit = any(d.object_id == 2 for d in det.detect(record.image, record))
        noisy = degrade(record.image, sigma, seed=record_seed)
        noisy_hit = any(d.object_id == 2 for d in det.detect(noisy, record))
        if noisy_hit:
            assert clean_hit

    def test_small_objects_harder(self):
        det = QualityAwareDetector(seed=1)
        hits_small = hits_big = 0
        for i in range(40):
            small = make_record(index=i, bbox=(40, 40, 46, 52), pixel_count=20, seed=i)
            big = make_record(index=i, bbox=(40, 40, 90, 90), pixel_count=2500, seed=i)
            hits_small += any(d.object_id == 2 for d in det.detect(small.image, small))
            hits_big += any(d.object_id == 2 for d in det.detect(big.image, big))
        assert hits_big > hits_small

    def test_occlusion_hurts(self):
        det = QualityAwareDetector(seed=1)
        hits_vis = hits_occ = 0
        for i in range(40):
            vis = make_record(index=i, visibility=1.0, seed=i)
            occ = make_record(index=i, visibility=0.15, seed=i)
            hits_vis += any(d.object_id == 2 for d in det.detect(vis.image, vis))
            hits_occ += any(d.object_id == 2 for d in det.detect(occ.image, occ))
        assert hits_vis > hits_occ

    def test_jitter_zero_on_raw(self):
        det = QualityAwareDetector(seed=1)
        record = make_record()
        for d in det.detect(record.image, record):
            if d.object_id == 2:
                assert d.bbox == pytest.approx(record.annotations[0].bbox)

    def test_jitter_grows_with_distortion(self):
        det = QualityAwareDetector(DetectorModel(size_midpoint=0.0), seed=1)
        record = make_record()
        offsets = []
        for sigma in (0.0, 25.0):
            hits = [d for d in det.detect(degrade(record.image, sigma, 5), record) if d.object_id == 2]
            if hits:
                gt = np.array(record.annotations[0].bbox)
                offsets.append(np.abs(np.array(hits[0].bbox) - gt).max())
        if len(offsets) == 2:
            assert offsets[1] >= offsets[0]

    def test_false_positives_only_under_distortion(self):
        det = QualityAwareDetector(DetectorModel(fp_per_frame=5.0), seed=1)
        record = make_record()
        clean_fps = [d for d in det.detect(record.image, record) if d.object_id < 0]
        assert clean_fps == []
        crushed = degrade(record.image, 80.0, 9)
        noisy_fps = [d for d in det.detect(crushed, record) if d.object_id < 0]
        assert len(noisy_fps) >= 1

    def test_model_calibration_anchor(self):
        """QP-20-like regions (~43 dB) are near-lossless to the detector;
        QP-48-like regions (<15 dB) are nearly blind."""
        model = DetectorModel()
        assert _sigmoid((43 - model.psnr_midpoint) / model.psnr_slope) > 0.97
        assert _sigmoid((14 - model.psnr_midpoint) / model.psnr_slope) < 0.05


def _outcome(fn, *args):
    """``repr`` of what ``fn(*args)`` answers (every field of every
    detection, floats to the last bit), or the exception it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the measured path's exception is an answer too
        return "raised", type(exc), str(exc)


class TestGroundTruth:
    """Ground truth scores the raw frame against itself, so it skips the
    distortion it already knows (quality 1.0, no false positives) — with
    the answer of the measured path, ``detect`` on a copy of the frame."""

    @pytest.mark.parametrize("preset", ["nuscenes", "robotcar"])
    def test_a_rendered_frame_gets_the_measured_answer(self, preset):
        from repro.world import nuscenes_like, robotcar_like

        clip = {"nuscenes": nuscenes_like, "robotcar": robotcar_like}[preset](11, n_frames=4, resolution=(160, 96))
        det = QualityAwareDetector(DetectorModel(fp_per_frame=5.0), seed=3)
        for record in clip.frames():
            assert record.annotations
            assert _outcome(det.ground_truth, record) == _outcome(det.detect, record.image.copy(), record)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
    @pytest.mark.parametrize("where", ["in the box", "in the background"])
    def test_a_nan_and_an_inf_pixel_take_the_measured_path(self, where):
        """``inf - inf`` is NaN: a non-finite raw pixel is no lossless
        region, and the measured path's answer (NaN boxes, or the error of a
        NaN background PSNR) is ground truth's too."""
        det = QualityAwareDetector(seed=1)
        record = make_record(seed=4)
        (y, x), (y2, x2) = ((50, 50), (70, 61)) if where == "in the box" else ((5, 5), (100, 120))
        record.image[y, x], record.image[y2, x2] = np.nan, np.inf
        want = _outcome(det.detect, record.image.copy(), record)
        assert "nan" in str(want).lower()
        assert _outcome(det.ground_truth, record) == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_background_mse_is_the_widened_copies(dtype):
    """``_mse`` subtracts in float64 without widening copies: bitwise the
    mean of the two widened frames' difference, gathered."""
    from repro.edge.detector import _mse

    record = make_record(seed=7)
    background = record.id_buffer <= 1
    for sigma in (0.5, 9.0, 60.0):
        decoded = degrade(record.image, sigma, seed=int(sigma)).astype(dtype)
        widened = decoded.astype(np.float64) - record.image.astype(np.float64)
        assert _mse(decoded, record.image, background).hex() == float(np.mean(widened[background] ** 2)).hex()
        assert _mse(decoded, record.image).hex() == float(np.mean(widened**2)).hex()
