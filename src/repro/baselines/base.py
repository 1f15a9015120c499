"""Shared scheme interface and timing model.

Every analytics scheme — DiVE and the three baselines — implements
:class:`AnalyticsScheme`: given a clip, a bandwidth trace and an edge
server, produce one :class:`FrameResult` per frame (the detections the
agent ends up holding for that frame, how it got them, and when).

The compute-latency constants of :class:`LatencyModel` stand in for the
on-device processing times of the paper's C++ agent; they only shift
response times by scheme-appropriate amounts — uplink transmission and
queueing, which dominate and differentiate the schemes, are simulated
exactly by :mod:`repro.network`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.codec.motion import estimate_motion
from repro.edge.detector import Detection
from repro.edge.server import EdgeServer
from repro.network.link import UplinkSimulator
from repro.network.trace import BandwidthTrace
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.world.datasets import Clip

if TYPE_CHECKING:
    from repro.core.tracking import MotionVectorTracker

__all__ = ["AnalyticsScheme", "FrameResult", "LatencyModel", "PendingResults", "SchemeRun", "track_motion"]


@dataclass(frozen=True)
class LatencyModel:
    """On-device compute latencies (seconds)."""

    motion_analysis: float = 0.004
    foreground_extraction: float = 0.003
    encode: float = 0.010
    region_encode: float = 0.006
    track: float = 0.002
    feedback_processing: float = 0.004


@dataclass
class FrameResult:
    """What the agent holds for one frame once everything settles.

    Attributes
    ----------
    index, capture_time:
        Frame identity.
    detections:
        Final detections attributed to this frame.
    response_time:
        Seconds from capture until the agent had these detections.
    source:
        ``edge`` (server inference on this frame), ``tracked`` (local MV
        tracking), ``cached`` (stale results reused), or ``none``.
    bytes_sent:
        Uplink bytes spent on this frame.
    dropped:
        True when an upload of this frame was abandoned on outage.
    """

    index: int
    capture_time: float
    detections: list[Detection]
    response_time: float
    source: str
    bytes_sent: int = 0
    dropped: bool = False


@dataclass
class SchemeRun:
    """Per-clip output of a scheme."""

    scheme: str
    clip_name: str
    frames: list[FrameResult] = field(default_factory=list)

    @property
    def detections_per_frame(self) -> list[list[Detection]]:
        return [f.detections for f in self.frames]

    @property
    def mean_response_time(self) -> float:
        times = [f.response_time for f in self.frames if np.isfinite(f.response_time)]
        return float(np.mean(times)) if times else float("inf")

    @property
    def total_bytes(self) -> int:
        return int(sum(f.bytes_sent for f in self.frames))

    @property
    def drop_rate(self) -> float:
        if not self.frames:
            return 0.0
        return float(np.mean([f.dropped for f in self.frames]))


class PendingResults:
    """Edge results in flight back to the agent.

    Baselines that keep analysing locally while key-frame results travel
    (O3, EAAR) ingest each result only once its ``result_time`` has passed.
    """

    def __init__(self) -> None:
        self._pending: list[tuple[float, int, list[Detection]]] = []

    def add(self, result_time: float, frame_index: int, detections: list[Detection]) -> None:
        self._pending.append((result_time, frame_index, detections))
        self._pending.sort(key=lambda p: p[0])

    def due(self, now: float) -> list[tuple[float, int, list[Detection]]]:
        """Pop every result that has reached the agent by ``now``."""
        ready = [p for p in self._pending if p[0] <= now]
        self._pending = [p for p in self._pending if p[0] > now]
        return ready


class AnalyticsScheme(abc.ABC):
    """A complete edge-assisted video analytics scheme."""

    #: Display name used in experiment tables.
    name: str = "base"

    #: Observability hook (see :mod:`repro.obs`); the shared no-op tracer
    #: unless :meth:`use_tracer` installs a live one, so untraced runs pay
    #: nothing.
    tracer: Tracer | NullTracer = NULL_TRACER

    def use_tracer(self, tracer: Tracer | NullTracer) -> "AnalyticsScheme":
        """Install a tracer on this scheme instance; returns ``self``."""
        self.tracer = tracer
        return self

    #: Optional uplink constructor override (see :meth:`use_uplink_factory`).
    uplink_factory = None

    def use_uplink_factory(self, factory) -> "AnalyticsScheme":
        """Install (or with ``None``, remove) an uplink constructor override.

        The streaming runtime (:mod:`repro.stream`) interposes on the
        uplink by handing the scheme a factory; schemes themselves stay
        unchanged because they build their link through :meth:`make_uplink`.
        Returns ``self``.
        """
        self.uplink_factory = factory
        return self

    def make_uplink(self, trace: BandwidthTrace, *, hol_timeout: float | None = None) -> UplinkSimulator:
        """Build the uplink this scheme transmits over.

        Uses the installed :attr:`uplink_factory` when present, else a plain
        :class:`~repro.network.link.UplinkSimulator`.  The scheme's tracer is
        threaded through either way.
        """
        if self.uplink_factory is not None:
            return self.uplink_factory(trace, hol_timeout=hol_timeout, tracer=self.tracer)
        return UplinkSimulator(trace, hol_timeout=hol_timeout, tracer=self.tracer)

    def _finish_frame(self, run: SchemeRun, result: FrameResult) -> None:
        """Append ``result`` to ``run`` and mirror it into the trace.

        Every scheme ends its per-frame work here, so any scheme run can
        emit a structured per-frame trace: the result's bytes, drop flag,
        response time and source are recorded as counters — into the active
        frame record when the scheme wraps its loop in ``tracer.frame``
        (DiVE does), or into a fresh one keyed by the frame index otherwise.
        """
        run.frames.append(result)
        tr = self.tracer
        if not tr.enabled:
            return
        record = tr.frame_record(result.index)
        record.counters["bytes_sent"] = float(result.bytes_sent)
        record.counters["dropped"] = 1.0 if result.dropped else 0.0
        record.counters["source_edge"] = 1.0 if result.source == "edge" else 0.0
        if np.isfinite(result.response_time):
            record.counters["response_time"] = float(result.response_time)

    @abc.abstractmethod
    def run(self, clip: Clip, trace: BandwidthTrace, server: EdgeServer) -> SchemeRun:
        """Process a clip against a bandwidth trace and an edge server.

        Implementations must be deterministic given their configuration and
        the clip/trace/server seeds.
        """

    @staticmethod
    def frame_interval(clip: Clip) -> float:
        return 1.0 / clip.fps

    @staticmethod
    def search_range_for(clip: Clip) -> int:
        """Motion-search range matched to the clip's scale.

        Ground motion at the frame bottom reaches ~width/20 pixels per
        frame at urban speeds, so the window must grow with resolution.
        """
        return max(16, int(round(clip.intrinsics.width / 20.0)))


def track_motion(
    tracker: MotionVectorTracker,
    frame: np.ndarray,
    prev: np.ndarray | None,
    *,
    method: str,
    search_range: int,
    tracer: Tracer | NullTracer,
) -> list[Detection]:
    """The detections ``tracker`` holds for ``frame``: moved by the raw-to-raw
    motion from ``prev``, the previous captured frame, or as they are when
    there is none (a clip's first frame).

    The baselines call this only on the frames whose result is tracked, so
    the motion search runs only where something reads it.
    """
    if prev is None:
        return tracker.detections
    return tracker.track(estimate_motion(frame, prev, method=method, search_range=search_range, tracer=tracer).mv)
