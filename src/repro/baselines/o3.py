"""O3 baseline (Hanyao et al., INFOCOM 2021).

Uploads key frames to the edge for detection and runs motion-vector
tracking locally for every other frame; when a key-frame result returns
(after its network + inference delay) it *corrects* the local tracking
state.  Because non-key frames never benefit from fresh inference, accuracy
decays with the key-frame interval and with drift — the temporal-redundancy
weakness the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.base import (
    AnalyticsScheme, FrameResult, LatencyModel, PendingResults, SchemeRun, track_motion,
)
from repro.codec.encoder import EncoderConfig, VideoEncoder
from repro.core.tracking import MotionVectorTracker
from repro.edge.server import EdgeServer
from repro.network.estimator import BandwidthEstimator
from repro.network.trace import BandwidthTrace
from repro.world.datasets import Clip

__all__ = ["O3Config", "O3Scheme"]


@dataclass(frozen=True)
class O3Config:
    """O3 parameters.

    Attributes
    ----------
    key_interval:
        Every ``key_interval``-th frame is uploaded.
    hol_timeout:
        Head-of-line drop timer for key-frame uploads.
    bandwidth_safety:
        Fraction of the estimated bandwidth budgeted to a key frame (a key
        frame may spend the budget of the whole interval).
    """

    key_interval: int = 5
    hol_timeout: float = 0.5
    bandwidth_safety: float = 0.85
    me_method: str = "hex"
    latency: LatencyModel = field(default_factory=LatencyModel)


class O3Scheme(AnalyticsScheme):
    name = "O3"

    def __init__(self, config: O3Config | None = None):
        self.config = config or O3Config()

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
        pending = PendingResults()
        run = SchemeRun(scheme=self.name, clip_name=clip.name)
        prev_raw = None
        me = dict(method=cfg.me_method, search_range=search_range, tracer=self.tracer)

        for i in range(clip.n_frames):
            with self.tracer.frame(i):
                record = clip.frame(i)
                t_cap = record.time
                frame = record.image

                # Ingest key-frame results that have reached the agent by now;
                # they correct (replace) the tracking state.
                for _, _, detections in pending.due(t_cap):
                    tracker.update(detections)

                prev, prev_raw = prev_raw, frame

                if i % cfg.key_interval == 0:
                    # Key frame: intra-coded upload at the interval's bandwidth
                    # budget.
                    bandwidth = estimator.estimate(t_cap)
                    target_bits = max(bandwidth * cfg.key_interval / fps * cfg.bandwidth_safety, 2048.0)
                    encoded = encoder.encode(frame, target_bits=target_bits, force_intra=True)
                    enqueue_time = t_cap + lat.encode
                    skip_stale = uplink.queue_wait(enqueue_time) > cfg.hol_timeout
                    tx = None if skip_stale else uplink.transmit(i, encoded.size_bytes, enqueue_time)
                    if tx is None or tx.dropped:
                        if tx is not None:
                            estimator.record_outage(tx.start_time + cfg.hol_timeout)
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
                    server.reset()  # key frames are self-contained
                    result = server.process(encoded, record, arrival_time=tx.finish_time)
                    estimator.record_ack(tx.start_time, tx.finish_time, encoded.size_bytes)
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
                    detections = track_motion(tracker, frame, prev, **me)  # frame 0 is a key frame
                    source = "tracked" if detections or tracker.frames_since_update else "none"
                    self._finish_frame(
                        run,
                        FrameResult(
                            index=i,
                            capture_time=t_cap,
                            detections=detections,
                            response_time=lat.motion_analysis + lat.track,
                            source=source,
                        )
                    )
        return run
