"""EAAR baseline (Liu et al., SIGCOMM 2019).

Designed for mobile AR: key frames are streamed and inferred in parallel
(low per-key-frame latency), encoded with ROI quality — regions around the
*cached* detection results get QP 30, everything else QP 40 — and all other
frames are served by local motion-vector tracking.  Fast, but the ROI comes
from stale detections, so objects that enter outside yesterday's boxes are
uploaded at low quality and missed; accuracy suffers exactly as in the
paper's comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import AnalyticsScheme, FrameResult, LatencyModel, PendingResults, SchemeRun
from repro.codec.encoder import EncoderConfig, VideoEncoder
from repro.codec.motion import estimate_motion
from repro.core.tracking import MotionVectorTracker
from repro.edge.detector import Detection
from repro.edge.server import EdgeServer
from repro.network.trace import BandwidthTrace
from repro.world.datasets import Clip

__all__ = ["EAARConfig", "EAARScheme"]


@dataclass(frozen=True)
class EAARConfig:
    """EAAR parameters (QP 30/40 are the paper's stated defaults)."""

    key_interval: int = 4
    roi_qp: float = 30.0
    background_qp: float = 40.0
    roi_dilate_blocks: int = 1
    hol_timeout: float = 0.5
    me_method: str = "hex"
    latency: LatencyModel = field(default_factory=LatencyModel)


class EAARScheme(AnalyticsScheme):
    name = "EAAR"

    def __init__(self, config: EAARConfig | None = None):
        self.config = config or EAARConfig()

    def _roi_offsets(self, detections: list[Detection], grid_shape: tuple[int, int], block: int) -> np.ndarray:
        """QP offset map: 0 inside (dilated) cached boxes, +delta outside."""
        cfg = self.config
        rows, cols = grid_shape
        roi = np.zeros(grid_shape, dtype=bool)
        for det in detections:
            x0, y0, x1, y1 = det.bbox
            c0 = int(np.clip(np.floor(x0 / block) - cfg.roi_dilate_blocks, 0, cols))
            c1 = int(np.clip(np.ceil(x1 / block) + cfg.roi_dilate_blocks, 0, cols))
            r0 = int(np.clip(np.floor(y0 / block) - cfg.roi_dilate_blocks, 0, rows))
            r1 = int(np.clip(np.ceil(y1 / block) + cfg.roi_dilate_blocks, 0, rows))
            roi[r0:r1, c0:c1] = True
        return np.where(roi, 0.0, cfg.background_qp - cfg.roi_qp)

    def run(self, clip: Clip, trace: BandwidthTrace, server: EdgeServer) -> SchemeRun:
        cfg = self.config
        lat = cfg.latency
        search_range = self.search_range_for(clip)
        encoder = VideoEncoder(
            EncoderConfig(me_method=cfg.me_method, search_range=search_range),
            tracer=self.tracer,
        )
        tracker = MotionVectorTracker()
        uplink = self.make_uplink(trace, hol_timeout=cfg.hol_timeout)
        pending = PendingResults()
        run = SchemeRun(scheme=self.name, clip_name=clip.name)
        prev_raw = None
        cached: list[Detection] = []
        block = encoder.config.block
        grid_shape = (clip.intrinsics.height // block, clip.intrinsics.width // block)

        for i in range(clip.n_frames):
            with self.tracer.frame(i):
                record = clip.frame(i)
                t_cap = record.time
                frame = record.image
                for _, _, detections in pending.due(t_cap):
                    tracker.update(detections)
                    cached = detections

                motion = None
                if prev_raw is not None:
                    motion = estimate_motion(
                        frame, prev_raw, method=cfg.me_method,
                        search_range=search_range, tracer=self.tracer,
                    )
                prev_raw = frame

                if i % cfg.key_interval == 0:
                    offsets = self._roi_offsets(cached, grid_shape, block)
                    encoded = encoder.encode(
                        frame, base_qp=cfg.roi_qp, qp_offsets=offsets, force_intra=True
                    )
                    enqueue_time = t_cap + lat.encode
                    skip_stale = uplink.queue_wait(enqueue_time) > cfg.hol_timeout
                    tx = None if skip_stale else uplink.transmit(i, encoded.size_bytes, enqueue_time)
                    if tx is None or tx.dropped:
                        detections = tracker.track(motion.mv) if motion is not None else tracker.detections
                        self._finish_frame(
                            run,
                            FrameResult(
                                index=i,
                                capture_time=t_cap,
                                detections=detections,
                                response_time=lat.encode + lat.track,
                                source="tracked",
                                dropped=True,
                            )
                        )
                        continue
                    server.reset()
                    result = server.process(encoded, record, arrival_time=tx.finish_time)
                    pending.add(result.result_time, i, result.detections)
                    self._finish_frame(
                        run,
                        FrameResult(
                            index=i,
                            capture_time=t_cap,
                            detections=result.detections,
                            response_time=result.result_time - t_cap,
                            source="edge",
                            bytes_sent=encoded.size_bytes,
                        )
                    )
                else:
                    if motion is not None:
                        detections = tracker.track(motion.mv)
                    else:
                        detections = tracker.detections
                    self._finish_frame(
                        run,
                        FrameResult(
                            index=i,
                            capture_time=t_cap,
                            detections=detections,
                            response_time=lat.motion_analysis + lat.track,
                            source="tracked",
                        )
                    )
        return run
