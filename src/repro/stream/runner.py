"""Streaming runtime for any :class:`AnalyticsScheme`, inline.

The :class:`StreamRunner` runs an unchanged scheme on the calling thread
and interposes on the three things it touches — no thread is started:

- **capture** — a clip facade stamps the
  :class:`~repro.stream.clock.VirtualClock` (and counts
  ``stream_frames_captured``) the first time each frame is handed out;
- **uplink** — the scheme's transmissions flow through a
  :class:`~repro.stream.queues.BackpressureQueue` (truth timeline) and a
  belief-side FIFO the scheme observes, interposed via the scheme's
  ``make_uplink`` seam; each sealed truth outcome stamps the clock;
- **edge inference** — a proxy calls the real
  :class:`~repro.edge.server.EdgeServer` and stamps each result time.

All timing decisions are virtual-time arithmetic; the wall clock is read
only to report how long the run took.  With no queue capacity and no
deadline the streaming run is bit-identical to the batch runner — the
differential tests lock that equivalence.  An exception raised by the
clip, the server or the scheme propagates as raised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines.base import AnalyticsScheme, SchemeRun
from repro.check.sanitize import SanitizeError
from repro.edge.server import EdgeServer
from repro.metrics.flight import BURST_WINDOW, DEADLINE_BURST, NULL_FLIGHT_RECORDER
from repro.metrics.registry import NULL_REGISTRY
from repro.network.link import TransmissionResult, UplinkSimulator
from repro.network.trace import BandwidthTrace
from repro.obs.tracer import NULL_TRACER
from repro.stream.clock import VirtualClock
from repro.stream.messages import QueueOutcome, StreamFrameRecord, StreamStats
from repro.stream.queues import POLICIES, BackpressureQueue
from repro.world.datasets import Clip

__all__ = [
    "StreamConfig",
    "StreamResult",
    "StreamRunner",
    "StreamingUplink",
]

_INF = float("inf")


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the streaming runtime.

    Attributes
    ----------
    queue_capacity:
        Uplink queue bound; ``None`` (default) is unbounded — the
        batch-equivalent configuration.
    policy:
        Backpressure policy at a full queue: ``block`` | ``degrade-qp`` |
        ``drop-oldest`` (see :mod:`repro.stream.queues`).
    deadline:
        Per-frame budget in simulated seconds (capture → result back at
        the agent); ``None`` disables late accounting.

    ``degrade-qp`` admissions shrink the payload by
    :data:`~repro.stream.queues.DEGRADE_FACTOR`.
    """

    queue_capacity: int | None = None
    policy: str = "block"
    deadline: float | None = None

    def validate(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; expected one of {POLICIES}")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1 or None, got {self.queue_capacity}")
        if self.deadline is not None and self.deadline <= 0.0:
            raise ValueError(f"deadline must be positive or None, got {self.deadline}")


@dataclass
class StreamResult:
    """A scheme run plus the streaming truth accounting."""

    run: SchemeRun
    stats: StreamStats


# -------------------------------------------------------------- facades


class _StreamClip:
    """Clip facade marking each frame's capture the first time it is handed out."""

    def __init__(self, clip: Clip, clock: VirtualClock, metrics):
        self._clip = clip
        self._clock = clock
        self._metrics = metrics
        # Hoisted; counted at the frame's virtual capture time.
        self._m_captured = metrics.counter(
            "stream_frames_captured", help="frames handed to the agent by capture")
        self._captured: set[int] = set()

    def frame(self, index: int):
        record = self._clip.frame(index)
        if index not in self._captured:
            self._captured.add(index)
            at = self._clip.time_of(index)
            self._clock.stamp("capture", at)
            if self._metrics.enabled:
                self._m_captured.inc(1.0, at=at)
        return record

    def frames(self):
        for i in range(self._clip.n_frames):
            yield self.frame(i)

    def __getattr__(self, name):
        return getattr(self._clip, name)


class _ServerProxy:
    """What the scheme sees as its server: the real one, results stamped."""

    def __init__(self, server: EdgeServer, clock: VirtualClock):
        self._server = server
        self._clock = clock

    def process(self, *args, **kwargs):
        result = self._server.process(*args, **kwargs)
        self._clock.stamp("edge", result.result_time)
        return result

    def process_image(self, *args, **kwargs):
        result = self._server.process_image(*args, **kwargs)
        self._clock.stamp("edge", result.result_time)
        return result

    def __getattr__(self, name):
        return getattr(self._server, name)


# --------------------------------------------------------------- uplink


class StreamingUplink(UplinkSimulator):
    """The uplink a scheme transmits over inside a streaming run.

    Maintains the scheme's optimistic *belief* timeline with plain
    :class:`UplinkSimulator` arithmetic (so schemes behave exactly as in
    batch), while routing every offer through the shared
    :class:`BackpressureQueue` that holds the *truth* timeline.
    """

    def __init__(self, trace: BandwidthTrace, *, hol_timeout: float | None = None,
                 tracer=NULL_TRACER, queue: BackpressureQueue,
                 clock: VirtualClock, beliefs: dict, frame_seqs: dict):
        super().__init__(trace, hol_timeout=hol_timeout, tracer=tracer)
        self._queue = queue
        self._clock = clock
        self._beliefs = beliefs
        self._frame_seqs = frame_seqs

    def transmit(self, frame_index: int, size_bytes: int, enqueue_time: float) -> TransmissionResult:
        admission = self._queue.submit(frame_index, size_bytes, enqueue_time)
        self._frame_seqs.setdefault(frame_index, []).append(admission.seq)
        if not admission.admitted:
            # Tail drop: the scheme sees an immediate outage-style drop.
            if self.tracer.enabled:
                self.tracer.count("uplink_refused")
            tx = TransmissionResult(
                frame_index=frame_index, enqueue_time=enqueue_time,
                start_time=enqueue_time, finish_time=_INF,
                dropped=True, bytes=size_bytes,
            )
            self._beliefs[admission.seq] = tx
            return tx
        tx = super().transmit(frame_index, admission.size_bytes, enqueue_time)
        self._beliefs[admission.seq] = tx
        if tx.dropped:
            # The agent's own HoL timer fired on the belief timeline; the
            # truth timeline learns about the abandonment at timer expiry.
            self._queue.abandon(admission.seq, at=self.busy_until)
        else:
            self._clock.stamp("uplink", tx.finish_time)
        return tx


# --------------------------------------------------------------- runner


@dataclass
class _RunContext:
    queue: BackpressureQueue | None = None
    beliefs: dict = field(default_factory=dict)
    frame_seqs: dict = field(default_factory=dict)


class StreamRunner:
    """Runs one scheme over one clip against the truth timeline, inline.

    ``metrics`` (a :class:`~repro.metrics.MetricsRegistry`) and
    ``flight_recorder`` (a :class:`~repro.metrics.FlightRecorder`)
    default to the shared no-ops; live ones are threaded into the truth
    queue and the clip facade, fed per-frame verdicts at reconciliation,
    and fired as triggers on a deadline-miss burst or a
    :class:`SanitizeError` escaping the scheme.  All recorded quantities
    are virtual-time arithmetic, so the registry digest and
    flight-recorder dumps are bit-identical across reruns.
    """

    def __init__(self, scheme: AnalyticsScheme, config: StreamConfig | None = None, *,
                 metrics=NULL_REGISTRY, flight_recorder=NULL_FLIGHT_RECORDER):
        self.scheme = scheme
        self.config = config or StreamConfig()
        self.metrics = metrics
        self.flight = flight_recorder

    def run(self, clip: Clip, trace: BandwidthTrace, server: EdgeServer) -> StreamResult:
        cfg = self.config
        cfg.validate()
        clock = VirtualClock()
        ctx = _RunContext()

        def on_seal(outcome: QueueOutcome) -> None:
            clock.stamp("uplink", outcome.release_time)

        def factory(trace_: BandwidthTrace, *, hol_timeout: float | None = None, tracer=NULL_TRACER):
            # One truth queue per run (one physical bottleneck), shared if
            # a scheme were ever to build several uplinks.
            if ctx.queue is None:
                ctx.queue = BackpressureQueue(
                    trace_, capacity=cfg.queue_capacity, policy=cfg.policy,
                    hol_timeout=hol_timeout,
                    on_seal=on_seal, metrics=self.metrics, flight=self.flight,
                )
            return StreamingUplink(
                trace_, hol_timeout=hol_timeout, tracer=tracer,
                queue=ctx.queue, clock=clock,
                beliefs=ctx.beliefs, frame_seqs=ctx.frame_seqs,
            )

        self.scheme.use_uplink_factory(factory)
        started = time.perf_counter()
        try:
            run = self.scheme.run(
                _StreamClip(clip, clock, self.metrics), trace, _ServerProxy(server, clock))
            outcomes = ctx.queue.close() if ctx.queue is not None else []
        except SanitizeError as exc:
            # Sanitizer trips are exactly what a post-mortem is for:
            # snapshot the recent lifecycle events before unwinding.
            if self.flight.enabled:
                self.flight.trigger(
                    "sanitize-error", clock.now,
                    error=type(exc).__name__, message=str(exc)[:200],
                )
            raise
        finally:
            self.scheme.use_uplink_factory(None)
        wall = time.perf_counter() - started
        stats = self._reconcile(run, ctx, outcomes, server, cfg, clock, wall)
        return StreamResult(run=run, stats=stats)

    # ------------------------------------------------------ reconciliation

    def _reconcile(self, run: SchemeRun, ctx: _RunContext, outcomes: list[QueueOutcome],
                   server: EdgeServer, cfg: StreamConfig, clock: VirtualClock,
                   wall: float) -> StreamStats:
        """Correct the scheme's belief-side results from the truth timeline.

        A frame the agent believed delivered but the queue dropped becomes
        a *stale* frame: the agent keeps the last truly-delivered edge
        detections, pays the bytes it actually sent (none), and its
        response never arrives — exactly what a real agent experiences
        when an on-device queue silently sheds its upload.  With relaxed
        limits belief and truth coincide and nothing is touched, which is
        what the differential equivalence tests lock.
        """
        inf_lat = getattr(server, "inference_latency", 0.0)
        down_lat = getattr(server, "downlink_latency", 0.0)
        queue = ctx.queue
        records: list[StreamFrameRecord] = []
        last_good: list = []
        late = local = 0

        # Per-frame verdict telemetry.  Reconciliation is single-threaded
        # and iterates frames in index order, so recording order (and the
        # deadline-burst trigger point) is deterministic.  Instruments are
        # hoisted out of the frame loop; the shared no-ops
        # make this free when telemetry is off.
        metrics, flight = self.metrics, self.flight
        m_status = metrics.counter(
            "stream_frame_status", help="reconciled frame verdicts by status")
        m_late = metrics.counter(
            "stream_frames_late", help="frames whose result missed the deadline")
        m_resp = metrics.histogram(
            "stream_response_seconds", unit="s",
            help="capture-to-result latency of frames with a finite response")
        m_slack = metrics.histogram(
            "stream_deadline_slack_seconds", unit="s",
            help="deadline minus response time (negative = late)")
        recent_late: list[bool] = []
        burst_fired = False

        def note(fr, status: str, reason: str, rt: float, is_late: bool) -> None:
            nonlocal burst_fired
            if metrics.enabled:
                m_status.labels(status=status).inc(1.0, at=fr.capture_time)
                if is_late:
                    m_late.inc(1.0, at=fr.capture_time)
                if rt != _INF:
                    m_resp.observe(rt - fr.capture_time, at=rt)
                    if cfg.deadline is not None:
                        m_slack.observe(fr.capture_time + cfg.deadline - rt, at=rt)
            if flight.enabled:
                # A frame counts as a deadline miss if its result came
                # back late *or* never came back at all (dropped/stale) —
                # the agent's deadline passed either way.
                miss = is_late or (
                    cfg.deadline is not None and rt == _INF and status != "local")
                flight.record("frame", fr.capture_time, frame=fr.index,
                              status=status, reason=reason, late=is_late, miss=miss)
                recent_late.append(miss)
                if len(recent_late) > BURST_WINDOW:
                    recent_late.pop(0)
                if not burst_fired and sum(recent_late) >= DEADLINE_BURST:
                    burst_fired = True
                    flight.trigger(
                        "deadline-burst", fr.capture_time, frame=fr.index,
                        late=sum(recent_late), window=len(recent_late),
                        deadline=cfg.deadline,
                    )

        for fr in sorted(run.frames, key=lambda f: f.index):
            seqs = ctx.frame_seqs.get(fr.index, [])
            if not seqs or queue is None:
                rt = fr.capture_time + fr.response_time if fr.response_time != _INF else _INF
                records.append(StreamFrameRecord(
                    index=fr.index, capture_time=fr.capture_time, status="local",
                    bytes_sent=fr.bytes_sent, result_time=rt,
                ))
                note(fr, "local", "", rt, False)
                local += 1
                continue
            outs = [o for o in (queue.outcome_for(s) for s in seqs) if o is not None]
            delivered = [o for o in outs if o.status in ("delivered", "degraded")]
            believed = [s for s in seqs
                        if s in ctx.beliefs and not ctx.beliefs[s].dropped]
            truth_ok = all(
                (o := queue.outcome_for(s)) is not None and o.status != "dropped"
                for s in believed
            )
            sent = sum(o.sent_bytes for o in outs)
            blocked = sum(o.blocked for o in outs)
            if believed and not truth_ok and not delivered:
                # Believed delivered, but nothing actually crossed the link.
                fr.detections = list(last_good)
                fr.source = "stale"
                fr.dropped = True
                fr.bytes_sent = 0
                fr.response_time = _INF
                dropped_reason = next(
                    (o.reason for o in outs if o.status == "dropped"), "evicted")
                status, reason, rt = "dropped", dropped_reason, _INF
            elif believed and not truth_ok:
                # Partially delivered (e.g. one of two passes evicted).
                fr.bytes_sent = sent
                status, reason = "degraded", "evicted"
                rt = max(o.finish_time for o in delivered) + inf_lat + down_lat
            elif not believed:
                # The agent itself gave the frame up (HoL / refusal); its
                # fallback result already stands.
                status = "dropped"
                reason = next((o.reason for o in outs if o.status == "dropped"), "abandoned")
                rt = _INF
            else:
                status = "degraded" if any(o.status == "degraded" for o in delivered) else "delivered"
                if status == "degraded":
                    fr.bytes_sent = sent
                reason = ""
                rt = max(o.finish_time for o in delivered) + inf_lat + down_lat
            is_late = cfg.deadline is not None and rt != _INF and rt > fr.capture_time + cfg.deadline
            late += int(is_late)
            if status in ("delivered", "degraded") and fr.source == "edge" and not fr.dropped:
                last_good = fr.detections
            records.append(StreamFrameRecord(
                index=fr.index, capture_time=fr.capture_time, status=status,
                reason=reason, late=is_late, bytes_sent=fr.bytes_sent,
                result_time=rt, blocked=blocked,
            ))
            note(fr, status, reason, rt, is_late)
        return StreamStats(
            frames=len(run.frames),
            delivered=sum(o.status == "delivered" for o in outcomes),
            degraded=sum(o.status == "degraded" for o in outcomes),
            dropped=sum(o.status == "dropped" for o in outcomes),
            local=local,
            late=late,
            blocked_time=queue.blocked_time if queue is not None else 0.0,
            virtual_makespan=clock.now,
            wall_time=wall,
            policy=cfg.policy,
            records=records,
            outcomes=outcomes,
            marks=clock.marks,
        )
