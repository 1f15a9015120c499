"""Edge server: decode, infer, return results.

Models the serverless edge computing fabric of the system model: ample
compute, a fixed model-inference latency, and a downlink that returns the
(small) detection results to the agent with half an RTT of delay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.check.sanitize import NULL_SANITIZER, ArraySanitizer, NullSanitizer
from repro.codec.decoder import VideoDecoder
from repro.codec.encoder import EncodedFrame
from repro.edge.detector import Detection, QualityAwareDetector
from repro.metrics.registry import NULL_REGISTRY, MetricsRegistry, NullRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.world.annotations import FrameRecord

__all__ = ["EdgeServer", "InferenceResult"]


@dataclass(frozen=True)
class InferenceResult:
    """Detections for one frame plus when the agent learns about them.

    Attributes
    ----------
    frame_index:
        Index of the analysed frame.
    detections:
        Detector output.
    arrival_time:
        When the encoded frame finished arriving at the server.
    result_time:
        When the result lands back at the agent (arrival + inference +
        downlink).
    """

    frame_index: int
    detections: list[Detection]
    arrival_time: float
    result_time: float


class EdgeServer:
    """Decodes uploaded frames and runs the (surrogate) detector.

    Parameters
    ----------
    detector:
        The detector; a default-calibrated one when omitted.
    inference_latency:
        Seconds of DNN inference per frame on the serverless fabric.
    downlink_latency:
        Seconds for the result message to reach the agent.
    tracer:
        Observability hook; decode and detection are timed as spans
        ``"server/decode"`` / ``"server/detect"``.
    sanitizer:
        Runtime array validation (see :mod:`repro.check.sanitize`);
        shared with the internal decoder, so a corrupt upload fails at
        ``decoder/bitstream`` / ``server/decoded`` with the stage named.
    metrics:
        Virtual-time metrics registry (see :mod:`repro.metrics`).
        Requests, batch size, per-request detections and modelled
        service time are recorded at the *simulated* arrival time —
        never wall clock — so server telemetry is as reproducible as the
        run itself.  The batch size gauge is always 1: this server
        handles one request per call (a fleet's real batches are reported
        by :class:`repro.fleet.BatchingEdgeServer` as ``fleet_batch_size``).
    """

    def __init__(
        self,
        detector: QualityAwareDetector | None = None,
        *,
        inference_latency: float = 0.020,
        downlink_latency: float = 0.010,
        tracer: Tracer | NullTracer = NULL_TRACER,
        sanitizer: ArraySanitizer | NullSanitizer = NULL_SANITIZER,
        metrics: MetricsRegistry | NullRegistry = NULL_REGISTRY,
    ):
        self.detector = detector or QualityAwareDetector()
        self.inference_latency = float(inference_latency)
        self.downlink_latency = float(downlink_latency)
        self.tracer = tracer
        self.sanitizer = sanitizer
        self.metrics = metrics
        # Instruments hoisted out of the per-request path.
        self._m_requests = metrics.counter(
            "edge_requests", help="inference requests by entry point")
        self._m_batch = metrics.gauge(
            "edge_batch_size", help="frames per inference batch (1 until fleet batching)")
        self._m_detections = metrics.histogram(
            "edge_detections", help="detections returned per request")
        self._m_service = metrics.counter(
            "edge_service_seconds", unit="s",
            help="modelled inference seconds spent on the serverless fabric")
        # Stateful (reference frames): one server serves one agent's
        # stream, from one thread.
        self._decoder = VideoDecoder(sanitizer=sanitizer)

    def reset(self) -> None:
        """Drop decoder state (new stream / after an intra refresh request)."""
        self._decoder.reset()

    def process(self, encoded: EncodedFrame, record: FrameRecord, *, arrival_time: float) -> InferenceResult:
        """Decode an uploaded frame, run inference, schedule the reply."""
        tr = self.tracer
        with tr.span("server"):
            with tr.span("decode"):
                decoded = self._decoder.decode(encoded)
            if self.sanitizer.enabled:
                self.sanitizer.check(
                    decoded, "server/decoded", name="decoded frame",
                    dtype=np.float32, block_aligned=True, lo=0.0, hi=255.0,
                )
            with tr.span("detect"):
                detections = self.detector.detect(decoded, record)
        if tr.enabled:
            tr.gauge("server_detections", float(len(detections)))
        if self.metrics.enabled:
            self._record_request("process", arrival_time, len(detections))
        return InferenceResult(
            frame_index=record.index,
            detections=detections,
            arrival_time=arrival_time,
            result_time=arrival_time + self.inference_latency + self.downlink_latency,
        )

    def process_image(self, image: np.ndarray, record: FrameRecord, *, arrival_time: float) -> InferenceResult:
        """Run inference on an already-decoded image (used by schemes that
        upload regions rather than codec streams)."""
        tr = self.tracer
        if self.sanitizer.enabled:
            self.sanitizer.check(image, "server/image", name="uploaded image", block_aligned=True)
        with tr.span("server"):
            with tr.span("detect"):
                detections = self.detector.detect(image, record)
        if self.metrics.enabled:
            self._record_request("process_image", arrival_time, len(detections))
        return InferenceResult(
            frame_index=record.index,
            detections=detections,
            arrival_time=arrival_time,
            result_time=arrival_time + self.inference_latency + self.downlink_latency,
        )

    def _record_request(self, method: str, arrival_time: float, n_detections: int) -> None:
        """Virtual-time server telemetry for one inference request."""
        self._m_requests.labels(method=method).inc(1.0, at=arrival_time)
        self._m_batch.set(1.0, at=arrival_time)
        self._m_detections.observe(float(n_detections), at=arrival_time)
        self._m_service.inc(self.inference_latency, at=arrival_time)

    def ground_truth(self, record: FrameRecord) -> list[Detection]:
        """Raw-frame detections — the evaluation ground truth."""
        return self.detector.ground_truth(record)
