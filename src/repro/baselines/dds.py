"""DDS baseline (Du et al., SIGCOMM 2020).

Server-driven two-pass streaming: the agent first uploads every frame at
low quality; the server runs inference and feeds the detected regions back;
the agent then re-uploads just those regions in high quality and the server
produces the final result on the composite image.  Accuracy tracks DiVE
closely — the second pass restores quality where it matters — but the final
result always pays *two* uplink trips plus two inference passes, which is
why DDS's response time is the highest of the compared schemes.

As in the paper's methodology, frame-level transmission is used (no
segment batching) for a fair latency comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import AnalyticsScheme, FrameResult, LatencyModel, SchemeRun, track_motion
from repro.codec.encoder import EncoderConfig, RegionUpdate, VideoEncoder
from repro.core.tracking import MotionVectorTracker
from repro.edge.detector import Detection
from repro.edge.server import EdgeServer
from repro.network.estimator import BandwidthEstimator
from repro.network.trace import BandwidthTrace
from repro.world.datasets import Clip

__all__ = ["DDSConfig", "DDSScheme"]


@dataclass(frozen=True)
class DDSConfig:
    """DDS parameters.

    Attributes
    ----------
    low_fraction:
        Fraction of the per-frame bandwidth budget spent on the
        low-quality first pass (the rest is the region-upload budget).
    region_qp:
        *Best-case* QP of the high-quality region re-upload; the actual QP
        is raised along a ladder until the region bits fit the remaining
        per-frame budget, so DDS stays bandwidth-compliant.
    region_dilate_blocks:
        Safety margin around feedback regions.
    """

    low_fraction: float = 0.45
    region_qp: float = 6.0
    region_dilate_blocks: int = 1
    hol_timeout: float = 0.6
    bandwidth_safety: float = 0.85
    me_method: str = "hex"
    latency: LatencyModel = field(default_factory=LatencyModel)


class DDSScheme(AnalyticsScheme):
    name = "DDS"

    def __init__(self, config: DDSConfig | None = None):
        self.config = config or DDSConfig()

    def _region_mask(self, detections: list[Detection], grid_shape: tuple[int, int], block: int) -> np.ndarray:
        cfg = self.config
        rows, cols = grid_shape
        mask = np.zeros(grid_shape, dtype=bool)
        for det in detections:
            x0, y0, x1, y1 = det.bbox
            c0 = int(np.clip(np.floor(x0 / block) - cfg.region_dilate_blocks, 0, cols))
            c1 = int(np.clip(np.ceil(x1 / block) + cfg.region_dilate_blocks, 0, cols))
            r0 = int(np.clip(np.floor(y0 / block) - cfg.region_dilate_blocks, 0, rows))
            r1 = int(np.clip(np.ceil(y1 / block) + cfg.region_dilate_blocks, 0, rows))
            mask[r0:r1, c0:c1] = True
        return mask

    def run(self, clip: Clip, trace: BandwidthTrace, server: EdgeServer) -> SchemeRun:
        cfg = self.config
        lat = cfg.latency
        fps = clip.fps
        search_range = self.search_range_for(clip)
        encoder = VideoEncoder(
            EncoderConfig(me_method=cfg.me_method, search_range=search_range),
            tracer=self.tracer,
        )
        tracker = MotionVectorTracker()
        estimator = BandwidthEstimator(window=1.0, initial_bps=trace.rate_at(0.0))
        uplink = self.make_uplink(trace, hol_timeout=cfg.hol_timeout)
        run = SchemeRun(scheme=self.name, clip_name=clip.name)
        block = encoder.config.block
        grid_shape = (clip.intrinsics.height // block, clip.intrinsics.width // block)
        force_intra = False
        needs_server_reset = False
        prev_raw = None
        me = dict(method=cfg.me_method, search_range=search_range, tracer=self.tracer)

        for i in range(clip.n_frames):
            with self.tracer.frame(i):
                record = clip.frame(i)
                t_cap = record.time
                frame = record.image
                prev, prev_raw = prev_raw, frame

                # ---- Pass 1: low-quality full frame -------------------------
                bandwidth = estimator.estimate(t_cap)
                budget = max(bandwidth / fps * cfg.bandwidth_safety, 2048.0)
                encoded = encoder.encode(
                    frame,
                    target_bits=budget * cfg.low_fraction,
                    force_intra=force_intra,
                )
                force_intra = False
                enqueue_time = t_cap + lat.encode
                skip_stale = uplink.queue_wait(enqueue_time) > cfg.hol_timeout
                tx1 = None if skip_stale else uplink.transmit(i, encoded.size_bytes, enqueue_time)
                if tx1 is None or tx1.dropped:
                    if tx1 is not None:
                        estimator.record_outage(tx1.start_time + cfg.hol_timeout)
                    force_intra = True
                    needs_server_reset = True
                    detections = track_motion(tracker, frame, prev, **me)
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
                if needs_server_reset:
                    server.reset()
                    needs_server_reset = False
                low_result = server.process(encoded, record, arrival_time=tx1.finish_time)
                estimator.record_ack(tx1.start_time, tx1.finish_time, encoded.size_bytes)

                # ---- Feedback + pass 2: high-quality regions ----------------
                feedback_time = low_result.result_time + lat.feedback_processing
                region_mask = self._region_mask(low_result.detections, grid_shape, block)
                if not region_mask.any():
                    # Nothing to re-upload; the low-quality result is final.
                    tracker.update(low_result.detections)
                    self._finish_frame(
                        run,
                        FrameResult(
                            index=i,
                            capture_time=t_cap,
                            detections=low_result.detections,
                            response_time=low_result.result_time - t_cap,
                            source="edge",
                            bytes_sent=encoded.size_bytes,
                        )
                    )
                    continue
                # Bandwidth compliance: raise the region QP along a ladder, and
                # if even the coarsest QP overshoots, trim the region set to the
                # highest-confidence detections until the upgrade fits.  The
                # residual is transformed once; each step only re-quantises.
                region_budget = max(budget * (1.0 - cfg.low_fraction), 1024.0)
                update = RegionUpdate(encoded.reconstruction, frame, region_mask, block=block)
                qp = cfg.region_qp
                bits = update.bits(qp)
                for step in (6, 12, 18, 24):
                    if bits <= region_budget:
                        break
                    qp = cfg.region_qp + step
                    bits = update.bits(qp)
                ranked = sorted(low_result.detections, key=lambda d: -d.confidence)
                keep = len(ranked)
                # Trimming only starts at the top of the ladder; fewer boxes
                # cover a subset of the transformed region.
                while bits > region_budget and keep > 1:
                    keep = max(1, keep // 2)
                    region_mask = self._region_mask(ranked[:keep], grid_shape, block)
                    bits = update.bits(qp, region_mask)
                region_bytes = int(np.ceil(bits / 8.0))
                tx2 = uplink.transmit(i, region_bytes, feedback_time + lat.region_encode)
                if tx2.dropped:
                    # Second pass lost: fall back to the low-quality result.
                    tracker.update(low_result.detections)
                    self._finish_frame(
                        run,
                        FrameResult(
                            index=i,
                            capture_time=t_cap,
                            detections=low_result.detections,
                            response_time=low_result.result_time - t_cap,
                            source="edge",
                            bytes_sent=encoded.size_bytes,
                            dropped=True,
                        )
                    )
                    continue
                updated = update.apply(qp, region_mask)
                final = server.process_image(updated, record, arrival_time=tx2.finish_time)
                estimator.record_ack(tx2.start_time, tx2.finish_time, region_bytes)
                tracker.update(final.detections)
                self._finish_frame(
                    run,
                    FrameResult(
                        index=i,
                        capture_time=t_cap,
                        detections=final.detections,
                        response_time=final.result_time - t_cap,
                        source="edge",
                        bytes_sent=encoded.size_bytes + region_bytes,
                    )
                )
        return run
