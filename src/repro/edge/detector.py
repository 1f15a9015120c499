"""Quality-aware surrogate detector.

Stands in for the pre-trained DNN detector at the edge server.  What the
paper's evaluation actually measures is *how codec distortion degrades a
fixed detector* — raw-frame detections are the ground truth, and every
accuracy number is relative to them.  The surrogate therefore models the
detector response rather than the detector itself:

- Per object, the detection probability is a product of three calibrated
  logistic factors: local reconstruction quality (PSNR of the decoded
  pixels against the raw frame inside the object box), apparent size
  (pixels) and visibility (occlusion fraction).
- The detect/miss decision uses a deterministic per-(frame, object) hash
  uniform, so the decision is *monotone in quality*: if scheme A delivers
  a sharper object region than scheme B, A detects a superset of B's
  objects.  Comparisons between schemes are thus noise-free.
- Localisation jitter grows as quality falls; on raw frames it is zero,
  so ground truth equals the rendered annotation boxes.
- Heavily distorted background area produces occasional false positives
  (blocky artifacts that read as objects), also hash-deterministic.

The surrogate reads the rendered ground truth, which a real detector
obviously cannot; that is the point — it converts ground truth plus image
quality into detector behaviour with the same monotone response to QP that
the paper's Fig 12 measures for Faster-RCNN-class models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.noise import hash_lattice
from repro.world.annotations import FrameRecord
from repro.world.scene import GROUND_ID

__all__ = ["Detection", "DetectorModel", "QualityAwareDetector"]


@dataclass(frozen=True)
class Detection:
    """A detected (or ground-truth) object box."""

    kind: str
    bbox: tuple[float, float, float, float]
    confidence: float
    object_id: int = -1

    def shifted(self, dx: float, dy: float) -> "Detection":
        """The same detection moved by ``(dx, dy)`` pixels (used by MV
        tracking)."""
        x0, y0, x1, y1 = self.bbox
        return Detection(
            kind=self.kind,
            bbox=(x0 + dx, y0 + dy, x1 + dx, y1 + dy),
            confidence=self.confidence,
            object_id=self.object_id,
        )


@dataclass(frozen=True)
class DetectorModel:
    """Calibration of the surrogate's response curves.

    The PSNR curve is calibrated against the codec's quantiser: QP 20
    backgrounds (~43 dB regions) are essentially lossless to the detector,
    QP 36 (~27 dB) costs a little, QP 48+ (<15 dB) loses most objects —
    matching the Fig 12 response shape.
    """

    psnr_midpoint: float = 24.0
    psnr_slope: float = 3.0
    size_midpoint: float = 40.0
    size_slope: float = 18.0
    visibility_midpoint: float = 0.30
    visibility_slope: float = 0.08
    loc_jitter: float = 0.15
    fp_per_frame: float = 0.6
    fp_psnr_midpoint: float = 22.0
    min_confidence: float = 0.05


def _sigmoid(x: float) -> float:
    return float(1.0 / (1.0 + np.exp(-x)))


def _mse(decoded: np.ndarray, raw: np.ndarray, where: np.ndarray | None = None) -> float:
    """The mean squared difference in float64, over the pixels ``where``
    selects (all by default).  ``np.subtract`` widens each operand exactly,
    so these are the bytes of the difference of two widened copies, without
    the copies."""
    diff = np.subtract(decoded, raw, dtype=np.float64)
    return float(np.mean((diff if where is None else diff[where]) ** 2))


class QualityAwareDetector:
    """The surrogate detector (see module docstring)."""

    def __init__(self, model: DetectorModel | None = None, *, seed: int = 0):
        self.model = model or DetectorModel()
        self.seed = int(seed)

    def _uniforms(self, frame_index: int, object_ids: list[int], salts: range) -> list[list[float]]:
        """Deterministic uniforms in [0, 1) keyed on (frame, object, salt):
        one row per object, one column per salt, from one hash call (the
        hash is elementwise, so a draw does not depend on its neighbours)."""
        keys = np.array([frame_index * 1000003 + salt for salt in salts], dtype=np.int64)
        ids = np.array(object_ids, dtype=np.int64)
        return hash_lattice(*np.broadcast_arrays(keys[None, :], ids[:, None]), self.seed).tolist()

    def detect(self, decoded: np.ndarray, record: FrameRecord) -> list[Detection]:
        """Run the surrogate on a decoded frame.

        Parameters
        ----------
        decoded:
            The frame as reconstructed at the edge server.
        record:
            The rendered ground truth for the same frame (provides the raw
            pixels and annotations).

        Returns
        -------
        Detections, confidence-descending.
        """
        raw = record.image
        if decoded.shape != raw.shape:
            raise ValueError(f"decoded shape {decoded.shape} != raw frame shape {raw.shape}")
        m = self.model
        # The raw frame scored against itself (ground truth): every MSE is
        # exactly 0, so each object's quality is 1.0 and no false positive
        # fires — unless a pixel is NaN or inf, whose difference is NaN.
        lossless = decoded is raw and bool(np.isfinite(raw).all())
        detections: list[Detection] = []
        # Every draw the annotations may need, and the false positives' count
        # draw as the last row (object id -1, salt 0).
        draws = self._uniforms(record.index, [ann.object_id for ann in record.annotations] + [-1], range(5))
        for ann, u in zip(record.annotations, draws):
            x0, y0, x1, y1 = (int(round(v)) for v in ann.bbox)
            region_raw = raw[y0:y1, x0:x1]
            region_dec = decoded[y0:y1, x0:x1]
            if region_raw.size == 0:
                continue
            quality = 1.0 if lossless else self._quality(region_dec, region_raw)
            p = (
                quality
                * _sigmoid((ann.pixel_count - m.size_midpoint) / m.size_slope)
                * _sigmoid((ann.visibility - m.visibility_midpoint) / m.visibility_slope)
            )
            if u[0] >= p:
                continue
            jitter = m.loc_jitter * (1.0 - quality)
            w, h = ann.bbox[2] - ann.bbox[0], ann.bbox[3] - ann.bbox[1]
            dx = jitter * w * (2.0 * u[1] - 1.0)
            dy = jitter * h * (2.0 * u[2] - 1.0)
            grow = 1.0 + jitter * (2.0 * u[3] - 1.0)
            cx, cy = (ann.bbox[0] + ann.bbox[2]) / 2 + dx, (ann.bbox[1] + ann.bbox[3]) / 2 + dy
            bw, bh = w * grow / 2, h * grow / 2
            conf = max(m.min_confidence, min(0.99, p * (0.9 + 0.2 * u[4])))
            detections.append(
                Detection(
                    kind=ann.kind,
                    bbox=(cx - bw, cy - bh, cx + bw, cy + bh),
                    confidence=conf,
                    object_id=ann.object_id,
                )
            )
        if not lossless:
            detections.extend(self._false_positives(decoded, record, draws[-1][0]))
        detections.sort(key=lambda d: -d.confidence)
        return detections

    def ground_truth(self, record: FrameRecord) -> list[Detection]:
        """The detector's output on the raw frame — the paper's GT (no
        distortion to measure: see :meth:`detect`)."""
        return self.detect(record.image, record)

    def _quality(self, decoded_region: np.ndarray, raw_region: np.ndarray) -> float:
        mse = _mse(decoded_region, raw_region)
        if mse < 1e-6:
            return 1.0
        psnr = 10.0 * np.log10(255.0**2 / mse)
        return _sigmoid((psnr - self.model.psnr_midpoint) / self.model.psnr_slope)

    def _false_positives(self, decoded: np.ndarray, record: FrameRecord, count_draw: float) -> list[Detection]:
        """Hash-deterministic false positives in heavily distorted background;
        ``count_draw`` is the frame's (object -1, salt 0) uniform."""
        m = self.model
        background = record.id_buffer <= GROUND_ID
        if not background.any():
            return []
        mse = _mse(decoded, record.image, background)
        if mse < 1e-6:
            return []
        psnr = 10.0 * np.log10(255.0**2 / mse)
        expected = m.fp_per_frame * _sigmoid((m.fp_psnr_midpoint - psnr) / 2.5)
        count = int(expected + count_draw)
        fps: list[Detection] = []
        h, w = decoded.shape
        draws = self._uniforms(record.index, [-2 - i for i in range(count)], range(1, 5)) if count else []
        for u1, u2, u3, u4 in draws:
            bw = 10 + 30 * u3
            bh = bw * (0.7 if u3 > 0.5 else 2.0)
            cx = u1 * (w - bw)
            cy = h * 0.45 + u2 * (h * 0.5 - bh)
            kind = "car" if u3 > 0.5 else "pedestrian"
            conf = m.min_confidence + 0.35 * u4
            fps.append(Detection(kind=kind, bbox=(cx, cy, cx + bw, cy + bh), confidence=conf))
        return fps
