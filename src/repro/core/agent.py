"""The DiVE analytics scheme (Section III-A, Fig 5).

Per frame the agent:

1. computes the codec motion field against the encoder's reference,
2. judges its own motion state from the non-zero MV ratio,
3. removes the rotational MV component (R-sampling + RANSAC),
4. extracts the foreground (ground estimation + region growing),
5. builds the QP offset map (adaptive delta) and encodes the frame CBR at
   the currently estimated uplink bandwidth,
6. transmits; on a head-of-line timeout it declares an outage, serves the
   frame from motion-vector offline tracking, and intra-refreshes the next
   upload so the server's decoder chain stays valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import AnalyticsScheme, FrameResult, LatencyModel, SchemeRun
from repro.codec.encoder import EncoderConfig, VideoEncoder
from repro.codec.motion import estimate_motion
from repro.core.calibration import FOECalibrator
from repro.core.egomotion import EgoMotionJudge
from repro.core.foreground import ForegroundConfig, ForegroundExtractor
from repro.core.qp import QPAllocator
from repro.core.rotation import estimate_rotation, remove_rotation
from repro.core.tracking import MotionVectorTracker
from repro.edge.server import EdgeServer
from repro.network.estimator import BandwidthEstimator
from repro.network.link import UplinkSimulator
from repro.network.trace import BandwidthTrace
from repro.world.datasets import Clip

__all__ = ["DiVEConfig", "DiVEScheme"]


@dataclass(frozen=True)
class DiVEConfig:
    """DiVE agent configuration.

    Attributes
    ----------
    me_method:
        Codec motion-estimation method (HEX after the Fig 9 study).
    r_sampling_k:
        R-sampling size (70 after the Fig 10 study).
    qp:
        The QP allocator; the default is the adaptive delta.
    foreground:
        Foreground-extraction tunables.
    eta_threshold:
        Ego-motion threshold on the non-zero MV ratio.
    hol_timeout:
        Head-of-line timer (seconds) before an outage is declared.
    bandwidth_safety:
        Fraction of the estimated bandwidth to actually budget per frame.
    estimator_window:
        Bandwidth-estimator sliding window, seconds.
    enable_rotation_removal:
        Ablation switch for the preprocessing stage.
    enable_mot:
        Ablation switch for offline tracking (Fig 13 compares both).
    calibrate_foe:
        Continuously calibrate the fixed FOE while driving straight
        (Section III-B3); with it off the principal point is assumed.
    gop:
        Encoder GoP length.
    """

    me_method: str = "hex"
    r_sampling_k: int = 70
    qp: QPAllocator = field(default_factory=QPAllocator)
    foreground: ForegroundConfig = field(default_factory=ForegroundConfig)
    eta_threshold: float = 0.15
    hol_timeout: float = 0.25
    bandwidth_safety: float = 0.85
    estimator_window: float = 1.0
    enable_rotation_removal: bool = True
    enable_mot: bool = True
    calibrate_foe: bool = True
    gop: int = 48
    latency: LatencyModel = field(default_factory=LatencyModel)


class DiVEScheme(AnalyticsScheme):
    """DiVE, as an :class:`AnalyticsScheme`."""

    name = "DiVE"

    def __init__(self, config: DiVEConfig | None = None):
        self.config = config or DiVEConfig()

    def run(self, clip: Clip, trace: BandwidthTrace, server: EdgeServer) -> SchemeRun:
        cfg = self.config
        lat = cfg.latency
        fps = clip.fps
        tr = self.tracer
        search_range = self.search_range_for(clip)
        encoder = VideoEncoder(
            EncoderConfig(me_method=cfg.me_method, gop=cfg.gop, search_range=search_range),
            tracer=tr,
        )
        extractor = ForegroundExtractor(clip.intrinsics, cfg.foreground)
        judge = EgoMotionJudge(threshold=cfg.eta_threshold)
        tracker = MotionVectorTracker()
        calibrator = FOECalibrator(clip.intrinsics)
        estimator = BandwidthEstimator(window=cfg.estimator_window, initial_bps=trace.rate_at(0.0))
        uplink = self.make_uplink(trace, hol_timeout=cfg.hol_timeout)
        run = SchemeRun(scheme=self.name, clip_name=clip.name)

        force_intra = False
        needs_server_reset = False
        rng = np.random.default_rng(12345)

        for i in range(clip.n_frames):
            with tr.frame(i):
                force_intra, needs_server_reset = self._run_frame(
                    clip, server, run, i,
                    cfg=cfg, lat=lat, fps=fps, trace=trace, search_range=search_range,
                    encoder=encoder, extractor=extractor, judge=judge, tracker=tracker,
                    calibrator=calibrator, estimator=estimator, uplink=uplink, rng=rng,
                    force_intra=force_intra, needs_server_reset=needs_server_reset,
                )
        return run

    def _run_frame(
        self,
        clip: Clip,
        server: EdgeServer,
        run: SchemeRun,
        i: int,
        *,
        cfg: DiVEConfig,
        lat: LatencyModel,
        fps: float,
        trace: BandwidthTrace,
        search_range: int,
        encoder: VideoEncoder,
        extractor: ForegroundExtractor,
        judge: EgoMotionJudge,
        tracker: MotionVectorTracker,
        calibrator: FOECalibrator,
        estimator: BandwidthEstimator,
        uplink: UplinkSimulator,
        rng: np.random.Generator,
        force_intra: bool,
        needs_server_reset: bool,
    ) -> tuple[bool, bool]:
        """One iteration of the Fig-5 pipeline (split out so the tracer's
        frame context cleanly wraps it).  Returns the loop-carried
        ``(force_intra, needs_server_reset)`` flags for the next frame."""
        tr = self.tracer
        record = clip.frame(i)
        t_cap = record.time
        frame = record.image
        compute = lat.encode

        # --- Preprocessing + foreground extraction -------------------
        motion = None
        offsets = None
        if encoder.reference is not None:
            motion = estimate_motion(
                frame,
                encoder.reference,
                method=cfg.me_method,
                search_range=search_range,
                tracer=tr,
            )
            compute += lat.motion_analysis + lat.foreground_extraction
            moving = judge.update(motion.mv)
            corrected = motion.mv.astype(float)
            foe = calibrator.foe if cfg.calibrate_foe else (0.0, 0.0)
            rot = None
            if moving and cfg.enable_rotation_removal:
                with tr.span("rotation"):
                    rot = estimate_rotation(
                        motion.mv, clip.intrinsics, k=cfg.r_sampling_k, foe=foe, rng=rng
                    )
                    if rot is not None:
                        corrected = remove_rotation(motion.mv, clip.intrinsics, rot)
            if cfg.calibrate_foe:
                foe = calibrator.update(
                    corrected,
                    moving=moving,
                    dphi=None if rot is None else (rot.dphi_x, rot.dphi_y),
                )
            with tr.span("foreground"):
                fg = extractor.extract(corrected, moving=moving, foe=foe)
            with tr.span("qp_map"):
                offsets, _ = cfg.qp.offsets(fg.mask)
            if tr.enabled:
                # eta itself is already recorded by estimate_motion as the
                # "me_nonzero_ratio" gauge.
                tr.gauge("moving", 1.0 if moving else 0.0)
                tr.gauge("fg_fraction", float(fg.mask.mean()))

        # --- Adaptive video encoding ---------------------------------
        bandwidth = estimator.estimate(t_cap)
        if tr.enabled:
            tr.gauge("bw_estimate", float(bandwidth))
            tr.gauge("bw_actual", float(trace.rate_at(t_cap)))
        target_bits = max(bandwidth / fps * cfg.bandwidth_safety, 2048.0)
        encoded = encoder.encode(
            frame,
            qp_offsets=offsets,
            target_bits=target_bits,
            motion=motion if not force_intra else None,
            force_intra=force_intra,
        )
        force_intra = False

        # --- Transmission / MOT fallback ------------------------------
        # A frame that would sit in the queue longer than the HoL timer
        # is stale before its first bit could go out: skip the upload
        # and serve it locally (the paper tracks "this and after frames
        # until the link is recovered").
        enqueue_time = t_cap + compute
        skip_stale = uplink.queue_wait(enqueue_time) > cfg.hol_timeout
        tx = None if skip_stale else uplink.transmit(i, encoded.size_bytes, enqueue_time)
        if tx is None or tx.dropped:
            if tx is not None:
                estimator.record_outage(tx.start_time + (cfg.hol_timeout or 0.0))
            force_intra = True
            needs_server_reset = True
            if cfg.enable_mot and motion is not None:
                with tr.span("mot_track"):
                    detections = tracker.track(motion.mv)
                source = "tracked"
            elif tracker.detections:
                detections = tracker.detections
                source = "cached"
            else:
                detections = []
                source = "none"
            if tr.enabled:
                tr.gauge("outage", 1.0)
            self._finish_frame(
                run,
                FrameResult(
                    index=i,
                    capture_time=t_cap,
                    detections=detections,
                    response_time=compute + lat.track,
                    source=source,
                    bytes_sent=0,
                    dropped=True,
                ),
            )
            return force_intra, needs_server_reset

        if needs_server_reset:
            server.reset()
            needs_server_reset = False
        result = server.process(encoded, record, arrival_time=tx.finish_time)
        estimator.record_ack(tx.start_time, tx.finish_time, encoded.size_bytes)
        tracker.update(result.detections)
        if tr.enabled:
            tr.gauge("outage", 0.0)
        self._finish_frame(
            run,
            FrameResult(
                index=i,
                capture_time=t_cap,
                detections=result.detections,
                response_time=result.result_time - t_cap,
                source="edge",
                bytes_sent=encoded.size_bytes,
            ),
        )
        return force_intra, needs_server_reset
