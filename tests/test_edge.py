"""Tests for the detector surrogate, AP metrics and edge server."""

import numpy as np
import pytest

from repro.codec import EncoderConfig, VideoEncoder
from repro.edge import (
    Detection,
    DetectorModel,
    EdgeServer,
    QualityAwareDetector,
    average_precision,
    evaluate_detections,
    iou,
    match_greedy,
)
from repro.world import nuscenes_like


@pytest.fixture(scope="module")
def clip():
    return nuscenes_like(0, n_frames=8)


class TestIoU:
    def test_identical(self):
        assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        assert iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(50 / 150)

    def test_contained(self):
        assert iou((0, 0, 10, 10), (2, 2, 8, 8)) == pytest.approx(36 / 100)


class TestMatching:
    def test_greedy_matches_best(self):
        gt = [Detection("car", (0, 0, 10, 10), 1.0)]
        preds = [
            Detection("car", (1, 1, 11, 11), 0.9),
            Detection("car", (0, 0, 10, 10), 0.5),
        ]
        records = match_greedy(preds, gt)
        # Higher-confidence prediction takes the GT; the second is a FP.
        assert records[0] == (0.9, True)
        assert records[1] == (0.5, False)

    def test_kind_must_match(self):
        gt = [Detection("car", (0, 0, 10, 10), 1.0)]
        preds = [Detection("pedestrian", (0, 0, 10, 10), 0.9)]
        assert match_greedy(preds, gt)[0][1] is False

    def test_iou_threshold(self):
        gt = [Detection("car", (0, 0, 10, 10), 1.0)]
        preds = [Detection("car", (8, 8, 18, 18), 0.9)]
        assert match_greedy(preds, gt, iou_threshold=0.5)[0][1] is False


class TestAveragePrecision:
    def test_perfect_detection(self):
        gt = [[Detection("car", (0, 0, 10, 10), 1.0)]]
        preds = [[Detection("car", (0, 0, 10, 10), 0.9)]]
        assert average_precision(preds, gt, kind="car") == 1.0

    def test_miss_everything(self):
        gt = [[Detection("car", (0, 0, 10, 10), 1.0)]]
        assert average_precision([[]], gt, kind="car") == 0.0

    def test_no_gt_no_preds(self):
        assert average_precision([[]], [[]], kind="car") == 1.0

    def test_false_positives_reduce_ap(self):
        gt = [[Detection("car", (0, 0, 10, 10), 1.0)]]
        clean = [[Detection("car", (0, 0, 10, 10), 0.9)]]
        # FP with higher confidence than the TP hurts precision at the top.
        noisy = [[Detection("car", (0, 0, 10, 10), 0.6), Detection("car", (50, 50, 60, 60), 0.95)]]
        assert average_precision(noisy, gt, kind="car") < average_precision(clean, gt, kind="car")

    def test_partial_recall(self):
        gt = [[Detection("car", (0, 0, 10, 10), 1.0), Detection("car", (20, 20, 30, 30), 1.0)]]
        preds = [[Detection("car", (0, 0, 10, 10), 0.9)]]
        assert average_precision(preds, gt, kind="car") == pytest.approx(0.5)

    def test_a_false_positive_below_the_hit_keeps_its_precision(self):
        gt = [[Detection("car", (0, 0, 10, 10), 1.0), Detection("car", (20, 20, 30, 30), 1.0)]]
        preds = [[Detection("car", (0, 0, 10, 10), 0.9), Detection("car", (50, 50, 60, 60), 0.8)]]
        assert average_precision(preds, gt, kind="car") == 0.5

    def test_frame_alignment_checked(self):
        with pytest.raises(ValueError):
            average_precision([[]], [[], []], kind="car")

    def test_evaluate_detections_map(self):
        gt = [[Detection("car", (0, 0, 10, 10), 1.0), Detection("pedestrian", (20, 0, 24, 10), 1.0)]]
        preds = [[Detection("car", (0, 0, 10, 10), 0.9)]]
        result = evaluate_detections(preds, gt)
        assert result["car"] == 1.0
        assert result["pedestrian"] == 0.0
        assert result["mAP"] == pytest.approx(0.5)


class TestQualityAwareDetector:
    def test_raw_frame_detections_are_annotations(self, clip):
        det = QualityAwareDetector(seed=1)
        record = clip.frame(0)
        gts = det.ground_truth(record)
        ann_ids = {a.object_id for a in record.annotations}
        for g in gts:
            assert g.object_id in ann_ids
            # Raw-frame boxes are exact (quality = 1 -> no jitter).
            ann = next(a for a in record.annotations if a.object_id == g.object_id)
            assert g.bbox == pytest.approx(ann.bbox)

    def test_determinism(self, clip):
        det = QualityAwareDetector(seed=1)
        record = clip.frame(1)
        a = det.detect(record.image, record)
        b = det.detect(record.image, record)
        assert a == b

    def test_monotone_in_quality(self, clip):
        """Degrading the frame can only lose true detections, never gain."""
        det = QualityAwareDetector(seed=1)
        record = clip.frame(2)
        rng = np.random.default_rng(0)
        raw_ids = {d.object_id for d in det.detect(record.image, record) if d.object_id >= 0}
        for noise_level in (5, 20, 60):
            noisy = np.clip(record.image + rng.normal(0, noise_level, record.image.shape), 0, 255).astype(
                np.float32
            )
            ids = {d.object_id for d in det.detect(noisy, record) if d.object_id >= 0}
            assert ids <= raw_ids

    def test_heavy_distortion_loses_detections(self, clip):
        det = QualityAwareDetector(seed=1)
        record = clip.frame(3)
        raw = det.detect(record.image, record)
        crushed = np.clip(record.image + np.random.default_rng(1).normal(0, 80, record.image.shape), 0, 255)
        degraded = det.detect(crushed.astype(np.float32), record)
        raw_tp = [d for d in raw if d.object_id >= 0]
        degraded_tp = [d for d in degraded if d.object_id >= 0]
        assert len(degraded_tp) < max(len(raw_tp), 1)

    def test_false_positives_on_distorted_background(self, clip):
        det = QualityAwareDetector(DetectorModel(fp_per_frame=3.0), seed=1)
        record = clip.frame(4)
        crushed = np.clip(record.image + np.random.default_rng(2).normal(0, 70, record.image.shape), 0, 255)
        fps = [d for d in det.detect(crushed.astype(np.float32), record) if d.object_id < 0]
        assert len(fps) >= 1
        # No false positives on the raw frame.
        assert all(d.object_id >= 0 for d in det.detect(record.image, record))

    def test_shape_mismatch(self, clip):
        det = QualityAwareDetector()
        with pytest.raises(ValueError):
            det.detect(np.zeros((4, 4)), clip.frame(0))

    def test_confidences_sorted(self, clip):
        det = QualityAwareDetector(seed=1)
        record = clip.frame(5)
        dets = det.detect(record.image, record)
        confs = [d.confidence for d in dets]
        assert confs == sorted(confs, reverse=True)

    def test_detection_shifted(self):
        d = Detection("car", (0, 0, 10, 10), 0.5)
        s = d.shifted(3, -2)
        assert s.bbox == (3, -2, 13, 8)
        assert s.kind == "car" and s.confidence == 0.5


class TestEdgeServer:
    def test_process_encoded_frame(self, clip):
        server = EdgeServer()
        enc = VideoEncoder(EncoderConfig())
        record = clip.frame(0)
        ef = enc.encode(record.image, base_qp=10)
        result = server.process(ef, record, arrival_time=0.5)
        assert result.frame_index == 0
        assert result.result_time == pytest.approx(0.5 + 0.020 + 0.010)
        assert isinstance(result.detections, list)

    def test_high_qp_loses_accuracy(self, clip):
        record = clip.frame(0)
        server_hi = EdgeServer()
        server_lo = EdgeServer()
        enc_hi = VideoEncoder()
        enc_lo = VideoEncoder()
        good = server_hi.process(enc_hi.encode(record.image, base_qp=5), record, arrival_time=0.0)
        bad = server_lo.process(enc_lo.encode(record.image, base_qp=51), record, arrival_time=0.0)
        good_tp = {d.object_id for d in good.detections if d.object_id >= 0}
        bad_tp = {d.object_id for d in bad.detections if d.object_id >= 0}
        assert bad_tp <= good_tp
        assert len(bad_tp) < len(good_tp)

    def test_ground_truth_stable(self, clip):
        server = EdgeServer()
        record = clip.frame(1)
        assert server.ground_truth(record) == server.ground_truth(record)

    def test_reset_requires_intra(self, clip):
        server = EdgeServer()
        enc = VideoEncoder()
        r0, r1 = clip.frame(0), clip.frame(1)
        server.process(enc.encode(r0.image, base_qp=20), r0, arrival_time=0.0)
        p_frame = enc.encode(r1.image, base_qp=20)
        server.reset()
        with pytest.raises(ValueError):
            server.process(p_frame, r1, arrival_time=0.1)
