"""Pipelined streaming runtime for any :class:`AnalyticsScheme`.

The :class:`StreamRunner` runs an unchanged scheme as a pipeline of
concurrent stages:

- **capture** — worker threads render frames ahead of the agent through a
  bounded prefetch window (the clip facade hands them over in order);
- **agent** — the scheme itself, on the calling thread, exactly as in the
  batch runner;
- **uplink** — the scheme's transmissions flow through a
  :class:`~repro.stream.queues.BackpressureQueue` (truth timeline) and a
  belief-side FIFO the scheme observes, interposed via the scheme's
  ``make_uplink`` seam;
- **edge inference** — the real :class:`~repro.edge.server.EdgeServer`
  lives on its own thread behind a request/reply proxy; the agent blocks
  for each reply, which keeps tracer span placement identical to batch;
- **accounting** — a thread that drains sealed queue outcomes and keeps
  the :class:`~repro.stream.clock.VirtualClock` stamped.

All timing decisions are virtual-time arithmetic, so results are
deterministic for any worker count; the threads only buy wall-clock
overlap (rendering frame ``i+1`` while the agent encodes frame ``i``).
With no queue capacity and no deadline the streaming run is bit-identical
to the batch runner — the differential tests lock that equivalence.
"""

from __future__ import annotations

import queue as _queuemod
import threading
import time
from dataclasses import dataclass, field

from repro.baselines.base import AnalyticsScheme, SchemeRun
from repro.check.lockorder import LockOrderError
from repro.check.sanitize import SanitizeError
from repro.edge.server import EdgeServer
from repro.metrics.flight import NULL_FLIGHT_RECORDER
from repro.metrics.hist import linear_buckets
from repro.metrics.registry import DEFAULT_LATENCY_BUCKETS, NULL_REGISTRY
from repro.network.link import TransmissionResult, UplinkSimulator
from repro.network.trace import BandwidthTrace
from repro.obs.tracer import NULL_TRACER
from repro.stream.clock import VirtualClock
from repro.stream.messages import QueueOutcome, StreamFrameRecord, StreamStats
from repro.stream.queues import POLICIES, BackpressureQueue
from repro.world.datasets import Clip

__all__ = [
    "StreamConfig",
    "StreamError",
    "StreamResult",
    "StreamRunner",
    "StreamTimeoutError",
    "StreamingUplink",
]

_INF = float("inf")

#: Wall-clock seconds between a blocked stage's checks of the abort flag
#: and its watchdog deadline.  Start-up, hand-off and shutdown are all by
#: notification or message; nothing on the success path waits this out.
_HEARTBEAT = 0.1


class StreamError(RuntimeError):
    """A pipeline stage failed or the run was aborted."""


class StreamTimeoutError(StreamError):
    """A stage wait exceeded the wall-clock watchdog (likely deadlock)."""


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the streaming runtime.

    Attributes
    ----------
    workers:
        Capture render worker threads.
    prefetch:
        How many frames capture may render ahead of the agent (clamped to
        at least ``workers``).
    queue_capacity:
        Uplink queue bound; ``None`` (default) is unbounded — the
        batch-equivalent configuration.
    policy:
        Backpressure policy at a full queue: ``block`` | ``degrade-qp`` |
        ``drop-oldest`` (see :mod:`repro.stream.queues`).
    deadline:
        Per-frame budget in simulated seconds (capture → result back at
        the agent); ``None`` disables late accounting.
    degrade_factor:
        Payload multiplier for ``degrade-qp`` admissions.
    watchdog:
        Wall-clock seconds any single stage wait may take before the run
        aborts with :class:`StreamTimeoutError` instead of hanging;
        ``None`` disables (not recommended under CI).
    """

    workers: int = 1
    prefetch: int = 8
    queue_capacity: int | None = None
    policy: str = "block"
    deadline: float | None = None
    degrade_factor: float = 0.5
    watchdog: float | None = 120.0

    def validate(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.prefetch < 1:
            raise ValueError(f"prefetch must be >= 1, got {self.prefetch}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; expected one of {POLICIES}")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1 or None, got {self.queue_capacity}")
        if not 0.0 < self.degrade_factor <= 1.0:
            raise ValueError(f"degrade_factor must be in (0, 1], got {self.degrade_factor}")
        if self.deadline is not None and self.deadline <= 0.0:
            raise ValueError(f"deadline must be positive or None, got {self.deadline}")
        if self.watchdog is not None and self.watchdog <= 0.0:
            raise ValueError(f"watchdog must be positive or None, got {self.watchdog}")


@dataclass
class StreamResult:
    """A scheme run plus the streaming truth accounting.

    ``metrics`` / ``flight`` echo the runner's registry and flight
    recorder (the shared no-ops unless the caller supplied live ones),
    so consumers like ``repro top`` can export without re-plumbing.
    """

    run: SchemeRun
    stats: StreamStats
    metrics: object = NULL_REGISTRY
    flight: object = NULL_FLIGHT_RECORDER


# --------------------------------------------------------------- stages


class _CaptureStage:
    """Render workers filling a bounded, in-order prefetch window."""

    def __init__(self, clip: Clip, *, workers: int, prefetch: int,
                 clock: VirtualClock, abort: threading.Event, watchdog: float | None,
                 lock_sanitizer=None, metrics=NULL_REGISTRY):
        self._clip = clip
        self._metrics = metrics
        # Hoisted (S015): counted at the frame's virtual capture time on
        # the agent-side delivery path, so the timeline is identical no
        # matter how many render workers raced to fill the buffer.
        self._m_captured = metrics.counter(
            "stream_frames_captured", help="frames handed to the agent by capture")
        self._workers = workers
        self._prefetch = max(prefetch, workers)
        self._clock = clock
        self._abort = abort
        self._watchdog = watchdog
        cond_lock = threading.Lock()
        if lock_sanitizer is not None and lock_sanitizer.enabled:
            cond_lock = lock_sanitizer.wrap(cond_lock, "stream.capture")
        self._cond = threading.Condition(cond_lock)
        self._buffer: dict[int, object] = {}
        self._recent: dict[int, object] = {}
        self._next_claim = 0
        self._delivered = 0
        self._stop = False
        self._error: BaseException | None = None
        self._threads: list[threading.Thread] = []

    def start(self) -> None:
        for k in range(self._workers):
            th = threading.Thread(target=self._work, name=f"stream-capture-{k}", daemon=True)
            th.start()
            self._threads.append(th)

    def _work(self) -> None:
        try:
            while True:
                with self._cond:
                    while (not self._stop and not self._abort.is_set()
                           and self._next_claim < self._clip.n_frames
                           and self._next_claim - self._delivered >= self._prefetch):
                        self._cond.wait(_HEARTBEAT)
                    if self._stop or self._abort.is_set() or self._next_claim >= self._clip.n_frames:
                        return
                    index = self._next_claim
                    self._next_claim += 1
                record = self._render(index)
                with self._cond:
                    self._buffer[index] = record
                    self._cond.notify_all()
        except BaseException as exc:  # surface renderer failures to the agent
            with self._cond:
                self._error = exc
                self._cond.notify_all()

    def _render(self, index: int):
        cached = self._clip.cached(index)
        return cached if cached is not None else self._clip.render_at(index)

    def get(self, index: int):
        """Hand frame ``index`` to the agent (blocking until rendered)."""
        deadline = time.perf_counter() + self._watchdog if self._watchdog else None
        with self._cond:
            if index in self._recent:
                return self._recent[index]
            if index != self._delivered:
                # Out-of-order access (schemes are sequential; this is a
                # fallback, e.g. a re-read of an old frame): render
                # directly, leaving the pipeline untouched.
                return self._render(index)
            while index not in self._buffer:
                if self._error is not None:
                    raise StreamError("capture stage failed") from self._error
                if self._abort.is_set():
                    raise StreamError("streaming run aborted")
                if deadline is not None and time.perf_counter() > deadline:
                    self._abort.set()
                    raise StreamTimeoutError(
                        f"capture stage stalled past the {self._watchdog}s watchdog "
                        f"waiting for frame {index}"
                    )
                self._cond.wait(_HEARTBEAT)
            record = self._buffer.pop(index)
            self._delivered = index + 1
            self._recent[index] = record
            while len(self._recent) > 4:
                self._recent.pop(next(iter(self._recent)))
            self._cond.notify_all()
        self._clock.stamp("capture", self._clip.time_of(index))
        if self._metrics.enabled:
            self._m_captured.inc(1.0, at=self._clip.time_of(index))
        return record

    def stop(self) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        for th in self._threads:
            th.join(timeout=5.0)


class _StreamClip:
    """Clip facade whose ``frame()`` is served by the capture stage."""

    def __init__(self, clip: Clip, stage: _CaptureStage):
        self._clip = clip
        self._stage = stage

    def frame(self, index: int):
        return self._stage.get(index)

    def frames(self):
        for i in range(self._clip.n_frames):
            yield self.frame(i)

    def __getattr__(self, name):
        return getattr(self._clip, name)


class _InferenceStage:
    """Owns the real server on its own thread; requests block for replies.

    The request/reply handshake means exactly one of {agent, server} runs
    at any instant, so the (non-thread-safe) tracer sees the same span
    placement as the batch runner: the server's ``server/decode`` /
    ``server/detect`` spans land inside the agent's open frame record.
    """

    _STOP = object()

    def __init__(self, server: EdgeServer, abort: threading.Event, watchdog: float | None):
        self._server = server
        self._abort = abort
        self._watchdog = watchdog
        self._requests: _queuemod.SimpleQueue = _queuemod.SimpleQueue()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self._serve, name="stream-infer", daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                req = self._requests.get(timeout=_HEARTBEAT)
            except _queuemod.Empty:
                if self._abort.is_set():
                    return
                continue
            if req is self._STOP:
                return
            method, args, kwargs, reply = req
            try:
                reply.put(("ok", getattr(self._server, method)(*args, **kwargs)))
            except BaseException as exc:
                reply.put(("err", exc))

    def call(self, method: str, args: tuple, kwargs: dict):
        reply: _queuemod.SimpleQueue = _queuemod.SimpleQueue()
        self._requests.put((method, args, kwargs, reply))
        deadline = time.perf_counter() + self._watchdog if self._watchdog else None
        while True:
            try:
                kind, payload = reply.get(timeout=_HEARTBEAT)
                break
            except _queuemod.Empty:
                if self._abort.is_set():
                    raise StreamError("inference stage aborted") from None
                if deadline is not None and time.perf_counter() > deadline:
                    self._abort.set()
                    raise StreamTimeoutError(
                        f"inference stage stalled past the {self._watchdog}s "
                        f"watchdog on {method}()"
                    )
        if kind == "err":
            raise payload
        return payload

    def stop(self) -> None:
        self._requests.put(self._STOP)
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    @property
    def server(self) -> EdgeServer:
        return self._server


class _ServerProxy:
    """What the scheme sees as its server: same API, different thread."""

    def __init__(self, stage: _InferenceStage, clock: VirtualClock):
        self._stage = stage
        self._clock = clock

    def process(self, *args, **kwargs):
        result = self._stage.call("process", args, kwargs)
        self._clock.stamp("edge", result.result_time)
        return result

    def process_image(self, *args, **kwargs):
        result = self._stage.call("process_image", args, kwargs)
        self._clock.stamp("edge", result.result_time)
        return result

    def reset(self):
        return self._stage.call("reset", (), {})

    def __getattr__(self, name):
        # Plain attribute reads (latencies, detector, ground_truth) go
        # straight to the real server — they don't touch decoder state.
        return getattr(self._stage.server, name)


class _Accounting:
    """Drains sealed queue outcomes, stamping the clock as truth advances."""

    _STOP = object()

    def __init__(self, clock: VirtualClock):
        self._clock = clock
        self._channel: _queuemod.SimpleQueue = _queuemod.SimpleQueue()
        self._thread: threading.Thread | None = None

    def on_seal(self, outcome: QueueOutcome) -> None:
        self._channel.put(outcome)

    def start(self) -> None:
        self._thread = threading.Thread(target=self._drain, name="stream-account", daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        while (outcome := self._channel.get()) is not self._STOP:
            self._clock.stamp("uplink", outcome.release_time)

    def stop(self) -> None:
        # FIFO: every outcome sealed before this call is stamped first.
        self._channel.put(self._STOP)
        if self._thread is not None:
            self._thread.join(timeout=5.0)


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
    """Runs one scheme over one clip as a concurrent pipeline.

    ``metrics`` (a :class:`~repro.metrics.MetricsRegistry`) and
    ``flight_recorder`` (a :class:`~repro.metrics.FlightRecorder`)
    default to the shared no-ops; live ones are threaded into the truth
    queue and the capture stage, fed per-frame verdicts at
    reconciliation, and fired as triggers on a deadline-miss burst or a
    :class:`SanitizeError` / :class:`LockOrderError` escaping the
    scheme.  All recorded quantities are virtual-time arithmetic, so the
    registry digest and flight-recorder dumps are bit-identical for any
    worker count.
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
        lock_sanitizer = getattr(self.scheme, "lock_sanitizer", None)
        clock = VirtualClock(lock_sanitizer=lock_sanitizer)
        abort = threading.Event()
        ctx = _RunContext()
        accounting = _Accounting(clock)

        def factory(trace_: BandwidthTrace, *, hol_timeout: float | None = None, tracer=NULL_TRACER):
            # One truth queue per run (one physical bottleneck), shared if
            # a scheme were ever to build several uplinks.
            if ctx.queue is None:
                ctx.queue = BackpressureQueue(
                    trace_, capacity=cfg.queue_capacity, policy=cfg.policy,
                    degrade_factor=cfg.degrade_factor, hol_timeout=hol_timeout,
                    on_seal=accounting.on_seal,
                    metrics=self.metrics, flight=self.flight,
                )
            return StreamingUplink(
                trace_, hol_timeout=hol_timeout, tracer=tracer,
                queue=ctx.queue, clock=clock,
                beliefs=ctx.beliefs, frame_seqs=ctx.frame_seqs,
            )

        capture = _CaptureStage(
            clip, workers=cfg.workers, prefetch=cfg.prefetch,
            clock=clock, abort=abort, watchdog=cfg.watchdog,
            lock_sanitizer=lock_sanitizer, metrics=self.metrics,
        )
        stream_clip = _StreamClip(clip, capture)
        inference = _InferenceStage(server, abort, cfg.watchdog)
        proxy = _ServerProxy(inference, clock)

        self.scheme.use_uplink_factory(factory)
        started = time.perf_counter()
        try:
            capture.start()
            inference.start()
            accounting.start()
            run = self.scheme.run(stream_clip, trace, proxy)
            outcomes = ctx.queue.close() if ctx.queue is not None else []
        except (SanitizeError, LockOrderError) as exc:
            # Sanitizer trips are exactly what a post-mortem is for:
            # snapshot the recent lifecycle events before unwinding.
            abort.set()
            if self.flight.enabled:
                self.flight.trigger(
                    "sanitize-error" if isinstance(exc, SanitizeError) else "lock-order-error",
                    clock.now, error=type(exc).__name__, message=str(exc)[:200],
                )
            raise
        except BaseException:
            abort.set()
            raise
        finally:
            self.scheme.use_uplink_factory(None)
            capture.stop()
            inference.stop()
            accounting.stop()
        wall = time.perf_counter() - started
        stats = self._reconcile(run, ctx, outcomes, server, cfg, clock, wall)
        return StreamResult(run=run, stats=stats, metrics=self.metrics, flight=self.flight)

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
        # hoisted out of the frame loop (lint S015); the shared no-ops
        # make this free when telemetry is off.
        metrics, flight = self.metrics, self.flight
        m_status = metrics.counter(
            "stream_frame_status", help="reconciled frame verdicts by status")
        m_late = metrics.counter(
            "stream_frames_late", help="frames whose result missed the deadline")
        m_resp = metrics.histogram(
            "stream_response_seconds", buckets=DEFAULT_LATENCY_BUCKETS, unit="s",
            help="capture-to-result latency of frames with a finite response")
        m_slack = metrics.histogram(
            "stream_deadline_slack_seconds", buckets=linear_buckets(-2.0, 2.0, 81), unit="s",
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
                if len(recent_late) > flight.burst_window:
                    recent_late.pop(0)
                if not burst_fired and sum(recent_late) >= flight.deadline_burst:
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
            workers=cfg.workers,
            records=records,
            outcomes=outcomes,
            marks=clock.marks,
        )
