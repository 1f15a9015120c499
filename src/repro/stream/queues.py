"""Bounded uplink queue with backpressure policies, in virtual time.

The queue sits between the encode stage and the uplink.  It is a
discrete-event simulator that mirrors :class:`~repro.network.link.
UplinkSimulator` arithmetic exactly — an internal untraced simulator seals
each admitted job FIFO with the same ``start = max(busy, enqueue)`` /
head-of-line rules — and layers a capacity bound with one of three
policies on top:

``block``
    A full queue stalls the encoder until a slot frees.  Link timing is
    *identical* to the unbounded FIFO (the link is busy for at least as
    long as the stall), so this policy is always batch-equivalent; the
    stall shows up only in the ``blocked`` accounting.
``degrade-qp``
    A frame arriving at a full queue is re-encoded coarser: its payload
    shrinks by :data:`DEGRADE_FACTOR` and it waits for a slot.  Smaller
    payloads drain faster, trading quality for latency.
``drop-oldest``
    A frame arriving at a full queue evicts the oldest *not yet
    transmitting* job; if every occupant is already on the wire, the
    newcomer itself is refused (tail drop).

Why "truth" vs "belief": the synchronous schemes consume each
transmission result the moment they offer the frame — they cannot learn
about a later eviction.  So the scheme runs against an optimistic
*belief* uplink (plain FIFO arithmetic), while this queue keeps the
*truth* timeline; after the run the :class:`~repro.stream.runner.
StreamRunner` reconciles the scheme's results against the truth (a
frame the agent believed delivered but the queue evicted becomes a stale
frame).  A real mobile agent has the same epistemics — it also learns of
queue evictions only after the fact.  With no capacity bound the two
timelines coincide and streaming output is bit-identical to batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.flight import NULL_FLIGHT_RECORDER, SATURATION_BURST
from repro.metrics.registry import NULL_REGISTRY
from repro.network.link import UplinkSimulator
from repro.network.trace import BandwidthTrace
from repro.stream.messages import QueueOutcome

__all__ = ["Admission", "BackpressureQueue", "DEGRADE_FACTOR", "POLICIES"]

POLICIES = ("block", "degrade-qp", "drop-oldest")

#: Payload multiplier for ``degrade-qp`` admissions at a full queue.
DEGRADE_FACTOR = 0.5

_INF = float("inf")


@dataclass(frozen=True)
class Admission:
    """What :meth:`BackpressureQueue.submit` tells the encode stage.

    ``size_bytes`` is the payload the uplink should actually carry
    (reduced under ``degrade-qp``); ``blocked`` is how long the encoder
    stalled for a slot in simulated seconds.
    """

    seq: int
    admitted: bool
    degraded: bool
    size_bytes: int
    admit_time: float
    blocked: float


@dataclass
class _Pending:
    seq: int
    frame_index: int
    size_bytes: int
    size_eff: int
    enqueue_time: float
    admit_time: float
    blocked: float
    degraded: bool


class BackpressureQueue:
    """Capacity-bounded FIFO between encoder and uplink, in virtual time.

    Not thread-safe by design: one run owns one queue and mutates it
    through the streaming uplink on the calling thread; sealed outcomes
    are published through the optional ``on_seal`` callback, which runs
    inline at the moment of sealing.

    Parameters
    ----------
    trace:
        Bandwidth trace the truth timeline drains at.
    capacity:
        Maximum jobs the queue holds at once; ``None`` means unbounded
        (every policy degenerates to plain FIFO — the batch-equivalent
        configuration).
    policy:
        One of :data:`POLICIES`.
    hol_timeout:
        Head-of-line timer, as in :class:`UplinkSimulator`.
    on_seal:
        Called with each :class:`QueueOutcome` the moment it is sealed.
    metrics:
        A :class:`~repro.metrics.MetricsRegistry` (default: the shared
        no-op).  Instruments are hoisted here — created once per queue,
        never inside the per-frame path — and record
        only virtual-time quantities, so timelines are identical across
        reruns.
    flight:
        A :class:`~repro.metrics.FlightRecorder` (default: the shared
        no-op) fed every job lifecycle event; sustained saturation
        (:data:`~repro.metrics.flight.SATURATION_BURST` consecutive
        submissions finding the queue full) fires its trigger.
    """

    def __init__(
        self,
        trace: BandwidthTrace,
        *,
        capacity: int | None = None,
        policy: str = "block",
        hol_timeout: float | None = None,
        on_seal=None,
        metrics=NULL_REGISTRY,
        flight=NULL_FLIGHT_RECORDER,
    ):
        if policy not in POLICIES:
            raise ValueError(f"unknown backpressure policy {policy!r}; expected one of {POLICIES}")
        if capacity is not None and capacity < 1:
            raise ValueError(f"queue capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.policy = policy
        self._inner = UplinkSimulator(trace, hol_timeout=hol_timeout)
        self._on_seal = on_seal
        self._pending: list[_Pending] = []
        self._sealed: dict[int, QueueOutcome] = {}
        self._abandoned: set[int] = set()
        self._order: list[int] = []
        self._next_seq = 0
        self._watermark = 0.0
        self._blocked_total = 0.0
        self._metrics = metrics
        self._flight = flight
        self._full_streak = 0
        # Instruments hoisted out of the per-frame path: the null
        # registry hands back shared inert singletons, so this costs
        # nothing when metrics are off.
        self._m_depth = metrics.gauge(
            "stream_queue_depth", help="jobs holding an uplink queue slot")
        self._m_blocked = metrics.counter(
            "stream_queue_blocked_seconds", unit="s",
            help="simulated seconds the encoder stalled for a slot")
        self._m_occupancy = metrics.counter(
            "stream_queue_occupancy_seconds", unit="s",
            help="slot-holding time per sealed job (admit to release)")
        self._m_outcomes = metrics.counter(
            "stream_queue_outcomes", help="sealed jobs by status/reason")
        self._m_wait = metrics.histogram(
            "stream_queue_wait_seconds", unit="s",
            help="enqueue-to-wire wait of transmitted jobs")
        self._m_service = metrics.histogram(
            "stream_uplink_service_seconds", unit="s",
            help="on-the-wire transmission time of delivered jobs")
        self._m_goodput = metrics.counter(
            "stream_uplink_sent_bytes", unit="bytes",
            help="bytes that actually crossed the link (goodput)")

    # ------------------------------------------------------------- submit

    def submit(self, frame_index: int, size_bytes: int, enqueue_time: float) -> Admission:
        """Offer one encoded frame; returns how (whether) it was admitted."""
        seq = self._next_seq
        self._next_seq += 1
        self._order.append(seq)
        self._advance(enqueue_time)
        t = enqueue_time

        size_eff = int(size_bytes)
        degraded = False
        admit_time = t
        blocked = 0.0
        full = self.capacity is not None and self._occupants(t) >= self.capacity
        if self._flight.enabled:
            self._flight.record("submit", t, seq=seq, frame=frame_index,
                                bytes=int(size_bytes), full=full)
            self._full_streak = self._full_streak + 1 if full else 0
            if full and self._full_streak == SATURATION_BURST:
                self._flight.trigger(
                    "queue-saturation", t,
                    streak=self._full_streak, capacity=self.capacity,
                )
        if full:
            if self.policy == "drop-oldest":
                if self._pending:
                    self._evict(self._pending.pop(0), at=t)
                else:
                    # Every occupant is already on the wire: refuse the
                    # newcomer instead (tail drop).
                    self._seal(
                        QueueOutcome(
                            seq=seq, frame_index=frame_index,
                            size_bytes=int(size_bytes), sent_bytes=0,
                            enqueue_time=t, admit_time=t, start_time=t,
                            finish_time=_INF, release_time=t,
                            status="dropped", reason="capacity",
                        )
                    )
                    return Admission(seq, False, False, 0, t, 0.0)
            else:
                admit_time = self._slot_free_time(t)
                blocked = admit_time - t
                self._blocked_total += blocked
                if self.policy == "degrade-qp":
                    size_eff = max(1, int(round(size_bytes * DEGRADE_FACTOR)))
                    degraded = True

        self._pending.append(
            _Pending(
                seq=seq, frame_index=frame_index, size_bytes=int(size_bytes),
                size_eff=size_eff, enqueue_time=t, admit_time=admit_time,
                blocked=blocked, degraded=degraded,
            )
        )
        if self._metrics.enabled:
            self._m_depth.set(float(self._occupants(t)), at=t)
            if blocked:
                self._m_blocked.inc(blocked, at=t)
        return Admission(seq, True, degraded, size_eff, admit_time, blocked)

    def abandon(self, seq: int, at: float) -> None:
        """The agent gave this job up (its own head-of-line timer fired).

        Truth time first marches to ``at`` — if the job reaches the wire
        by then, the inner simulator seals it under its own rules (in the
        relaxed configuration that reproduces the batch HoL drop exactly,
        including the link staying busy until timer expiry).  Only a job
        still waiting at ``at`` is plucked out with its slot freed there;
        an already-sealed job keeps its seal and the abandonment is just
        remembered for reconciliation.
        """
        self._abandoned.add(seq)
        if self._flight.enabled:
            self._flight.record("abandon", at, seq=seq)
        self._advance(at)
        for i, job in enumerate(self._pending):
            if job.seq == seq:
                self._pending.pop(i)
                self._seal(
                    QueueOutcome(
                        seq=job.seq, frame_index=job.frame_index,
                        size_bytes=job.size_bytes, sent_bytes=0,
                        enqueue_time=job.enqueue_time, admit_time=job.admit_time,
                        start_time=at, finish_time=_INF, release_time=at,
                        status="dropped", reason="abandoned", blocked=job.blocked,
                    )
                )
                return

    # ------------------------------------------------------- time marching

    def _advance(self, t: float) -> None:
        """Seal every pending job whose transmission starts by ``t``."""
        if t > self._watermark:
            self._watermark = t
        t = self._watermark
        while self._pending:
            start = max(self._inner.busy_until, self._pending[0].enqueue_time)
            if start > t:
                break
            self._transmit(self._pending.pop(0))

    def _transmit(self, job: _Pending) -> None:
        tx = self._inner.transmit(job.seq, job.size_eff, job.enqueue_time)
        if tx.dropped:
            release = self._inner.busy_until  # timer expiry frees the link
            outcome = QueueOutcome(
                seq=job.seq, frame_index=job.frame_index,
                size_bytes=job.size_bytes, sent_bytes=0,
                enqueue_time=job.enqueue_time, admit_time=job.admit_time,
                start_time=tx.start_time, finish_time=_INF, release_time=release,
                status="dropped", reason="hol", blocked=job.blocked,
            )
        else:
            outcome = QueueOutcome(
                seq=job.seq, frame_index=job.frame_index,
                size_bytes=job.size_bytes, sent_bytes=job.size_eff,
                enqueue_time=job.enqueue_time, admit_time=job.admit_time,
                start_time=tx.start_time, finish_time=tx.finish_time,
                release_time=tx.finish_time,
                status="degraded" if job.degraded else "delivered",
                blocked=job.blocked,
            )
        self._seal(outcome)

    def _evict(self, job: _Pending, at: float) -> None:
        self._seal(
            QueueOutcome(
                seq=job.seq, frame_index=job.frame_index,
                size_bytes=job.size_bytes, sent_bytes=0,
                enqueue_time=job.enqueue_time, admit_time=job.admit_time,
                start_time=at, finish_time=_INF, release_time=at,
                status="dropped", reason="evicted", blocked=job.blocked,
            )
        )

    def _seal(self, outcome: QueueOutcome) -> None:
        self._sealed[outcome.seq] = outcome
        if self._metrics.enabled:
            o = outcome
            self._m_outcomes.labels(status=o.status, reason=o.reason).inc(1.0, at=o.release_time)
            self._m_occupancy.inc(o.release_time - o.admit_time, at=o.release_time)
            if o.status != "dropped":
                self._m_wait.observe(o.start_time - o.enqueue_time, at=o.start_time)
                self._m_service.observe(o.finish_time - o.start_time, at=o.finish_time)
                self._m_goodput.inc(float(o.sent_bytes), at=o.finish_time)
        if self._flight.enabled:
            self._flight.record(
                "seal", outcome.release_time, seq=outcome.seq,
                frame=outcome.frame_index, status=outcome.status,
                reason=outcome.reason, sent=outcome.sent_bytes,
            )
        if self._on_seal is not None:
            self._on_seal(outcome)

    # --------------------------------------------------------- occupancy

    def _occupants(self, t: float) -> int:
        """Jobs holding (or destined for) a slot at time ``t``.

        Pending jobs count even when the ``block`` policy scheduled their
        admission later — a newcomer queues *behind* them either way.  At
        most one sealed job can still be on the wire (FIFO), visible as
        ``busy_until > t``.
        """
        return len(self._pending) + (1 if self._inner.busy_until > t else 0)

    def _slot_free_time(self, t: float) -> float:
        """When occupancy next falls below capacity (forecast, no mutation)."""
        sim = self._inner.clone()
        releases: list[float] = []
        if sim.busy_until > t:
            releases.append(sim.busy_until)
        for job in self._pending:
            sim.transmit(job.seq, job.size_eff, job.enqueue_time)
            releases.append(sim.busy_until)
        need = len(releases) - (self.capacity - 1)
        if need <= 0:
            return t
        return max(t, releases[need - 1])

    # ------------------------------------------------------------- results

    def close(self) -> list[QueueOutcome]:
        """Seal every remaining job and return all outcomes in seq order."""
        while self._pending:
            self._transmit(self._pending.pop(0))
        return self.outcomes()

    def outcomes(self) -> list[QueueOutcome]:
        return [self._sealed[s] for s in self._order if s in self._sealed]

    def outcome_for(self, seq: int) -> QueueOutcome | None:
        return self._sealed.get(seq)

    def was_abandoned(self, seq: int) -> bool:
        return seq in self._abandoned

    @property
    def blocked_time(self) -> float:
        """Total simulated seconds the encoder stalled across all submits."""
        return self._blocked_total
