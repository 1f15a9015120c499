"""Fleet-wide inference front-end: queue, batches, admission control.

The plain :class:`~repro.edge.server.EdgeServer` answers each request in
``inference_latency + downlink_latency`` — an unloaded server.  A fleet
shares W detector workers, so requests queue, batch and sometimes get
turned away.  Two pieces model that:

- :class:`RecordingEdgeServer` — the *belief* side.  Each agent's
  run talks to its own private wrapper around a real
  ``EdgeServer``; results are unchanged (the agent's optimistic
  timeline, exactly as in a solo run) while every inference request is
  logged for the truth-side replay.  This wrapper is the only fleet
  module that calls ``EdgeServer.process*`` directly.
- :class:`BatchingEdgeServer` — the *truth* side.  A discrete-event
  replay of the pooled, arrival-sorted requests: admitted requests wait
  in one FIFO queue; a batch dispatches as soon as a worker is free and
  the batch is full (``max_batch``) or the oldest member has waited
  ``max_wait``; a bounded queue rejects (or degrades) newcomers.  Every
  decision is virtual-time arithmetic over a sorted request list, so the
  outcome set is bit-identical for any thread count and any agent
  interleaving upstream.

Batch service time is ``inference_latency * ((1-a)*max(c) + a*sum(c))``
where ``a`` is ``batch_overhead`` and ``c`` the members' relative costs
(1.0 normally, ``degrade_factor`` for degraded admissions): a batch of
one normal request costs exactly ``inference_latency`` (the unloaded
server), and each extra member adds only the marginal ``a`` share — the
amortisation real batched detectors show.

Tie-break, documented and deterministic: when a request arrives exactly
at a batch's dispatch instant, the batch dispatches first — the
newcomer waits for the next one.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

from repro.metrics.registry import NULL_REGISTRY

__all__ = [
    "BatchRecord",
    "BatchingEdgeServer",
    "FleetRequest",
    "RecordedCall",
    "RecordingEdgeServer",
    "RequestOutcome",
]

_INF = float("inf")

#: Admission policies at a full queue.
ADMISSIONS = ("reject", "degrade")


# ------------------------------------------------------------- belief side


@dataclass(frozen=True)
class RecordedCall:
    """One inference request an agent believed it made.

    ``seq`` is the per-agent call ordinal; ``arrival`` is the request's
    arrival at the server on the agent's *local* belief timeline;
    ``result_time`` the unloaded-server result the agent saw.
    """

    seq: int
    frame_index: int
    arrival: float
    method: str
    result_time: float


class RecordingEdgeServer:
    """Belief-side pass-through wrapper logging every inference call.

    Hands every call to the wrapped real server unchanged (the agent's
    solo run stays bit-identical), while appending a
    :class:`RecordedCall` per request.  A scheme calls its server from
    its own frame loop, one call at a time, so the log order is the
    agent's own deterministic call order.
    """

    def __init__(self, server):
        self._server = server
        self.calls: list[RecordedCall] = []

    def process(self, encoded, record, *, arrival_time: float):
        result = self._server.process(encoded, record, arrival_time=arrival_time)
        self.calls.append(RecordedCall(
            seq=len(self.calls), frame_index=record.index,
            arrival=arrival_time, method="process", result_time=result.result_time,
        ))
        return result

    def process_image(self, image, record, *, arrival_time: float):
        result = self._server.process_image(image, record, arrival_time=arrival_time)
        self.calls.append(RecordedCall(
            seq=len(self.calls), frame_index=record.index,
            arrival=arrival_time, method="process_image", result_time=result.result_time,
        ))
        return result

    def reset(self):
        return self._server.reset()

    def __getattr__(self, name):
        return getattr(self._server, name)


# -------------------------------------------------------------- truth side


@dataclass(frozen=True)
class FleetRequest:
    """One inference request on the fleet's global timeline."""

    agent: str
    seq: int
    frame_index: int
    arrival: float
    cost: float = 1.0

    def order_key(self) -> tuple:
        return (self.arrival, self.agent, self.seq)


@dataclass
class RequestOutcome:
    """The sealed fate of one request at the batching front-end.

    ``status`` is ``served`` | ``degraded`` (admitted over capacity at
    reduced fidelity) | ``rejected`` (turned away; the agent's frame
    goes stale).  Times are global simulated seconds; rejected requests
    keep ``start_time == finish_time == arrival`` and an infinite
    ``result_time``.
    """

    agent: str
    seq: int
    frame_index: int
    arrival: float
    status: str
    start_time: float
    finish_time: float
    result_time: float
    batch_id: int = -1
    batch_size: int = 0
    queue_wait: float = 0.0

    def key(self) -> str:
        """Deterministic one-line encoding (digest material)."""
        return (
            f"{self.agent}/{self.seq}/f{self.frame_index}:{self.status}"
            f":arr={self.arrival:.6f}:start={self.start_time:.6f}"
            f":res={self.result_time:.6f}:b{self.batch_id}x{self.batch_size}"
        )


@dataclass(frozen=True)
class BatchRecord:
    """One dispatched batch (invariant-test material).

    ``worker_free`` is when the dispatching worker became available and
    ``oldest_arrival`` the first member's arrival — together they let
    tests check the max-wait bound: ``start <= max(worker_free,
    oldest_arrival + max_wait)`` unless the batch went out full.
    """

    batch_id: int
    start: float
    finish: float
    size: int
    worker_free: float
    oldest_arrival: float
    trigger: str  # "full" | "wait"


class BatchingEdgeServer:
    """Discrete-event batch-serving replay over pooled fleet requests.

    Parameters
    ----------
    workers:
        Parallel detector workers.
    max_batch:
        Largest batch a worker takes at once.
    max_wait:
        Longest the oldest queued request may wait (beyond worker
        availability) for its batch to fill; ``0`` dispatches greedily.
    queue_capacity:
        Waiting-queue bound; ``None`` is unbounded (no admission
        control).
    admission:
        What happens to a newcomer at a full queue: ``reject`` (the
        request never runs) or ``degrade`` (admitted anyway, served at
        ``degrade_factor`` relative cost — the cheap-model fallback).
    batch_overhead:
        Marginal cost of each additional batch member relative to a solo
        request (see module docstring).
    """

    def __init__(self, *, workers: int = 1, max_batch: int = 1, max_wait: float = 0.0,
                 queue_capacity: int | None = None, admission: str = "reject",
                 inference_latency: float = 0.020, downlink_latency: float = 0.010,
                 batch_overhead: float = 0.25, degrade_factor: float = 0.5,
                 metrics=NULL_REGISTRY):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if not max_wait >= 0.0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if queue_capacity is not None and queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1 or None, got {queue_capacity}")
        if admission not in ADMISSIONS:
            raise ValueError(f"unknown admission {admission!r}; expected one of {ADMISSIONS}")
        if not 0.0 <= batch_overhead <= 1.0:
            raise ValueError(f"batch_overhead must be in [0, 1], got {batch_overhead}")
        if not 0.0 < degrade_factor <= 1.0:
            raise ValueError(f"degrade_factor must be in (0, 1], got {degrade_factor}")
        self.workers = workers
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.queue_capacity = queue_capacity
        self.admission = admission
        self.inference_latency = inference_latency
        self.downlink_latency = downlink_latency
        self.batch_overhead = batch_overhead
        self.degrade_factor = degrade_factor
        self.metrics = metrics
        self.batches: list[BatchRecord] = []

    # -------------------------------------------------------------- serve

    def serve(self, requests: list[FleetRequest]) -> list[RequestOutcome]:
        """Replay ``requests`` through the batcher; outcomes in request
        order (sorted by ``(arrival, agent, seq)``)."""
        reqs = sorted(requests, key=FleetRequest.order_key)
        self.batches = []
        free = [0.0] * self.workers
        heapq.heapify(free)
        waiting: deque[tuple[FleetRequest, bool]] = deque()
        outcomes: list[RequestOutcome] = []

        # Hoisted instruments; serve() is single-threaded so
        # recording order is deterministic.
        metrics = self.metrics
        m_batch = metrics.histogram(
            "fleet_batch_size", help="dispatched batch sizes at the shared edge front-end")
        m_admit = metrics.counter(
            "fleet_admissions", help="admission decisions at the bounded queue")

        def dispatch_until(now: float) -> None:
            """Dispatch every batch whose dispatch instant is <= ``now``."""
            while waiting:
                worker_free = free[0]
                oldest = waiting[0][0]
                wait_ready = oldest.arrival + self.max_wait
                if len(waiting) >= self.max_batch:
                    ready = min(wait_ready, waiting[self.max_batch - 1][0].arrival)
                else:
                    ready = wait_ready
                start = max(worker_free, ready)
                if start > now:
                    return
                # Members: whoever is queued by the dispatch instant,
                # oldest first, capped at max_batch.
                arrivals = [waiting[k][0].arrival
                            for k in range(min(self.max_batch, len(waiting)))]
                size = max(bisect_right(arrivals, start), 1)
                members = [waiting.popleft() for _ in range(size)]
                costs = [self.degrade_factor if degraded else req.cost
                         for req, degraded in members]
                if len(costs) == 1:
                    batch_cost = costs[0]
                else:
                    batch_cost = ((1.0 - self.batch_overhead) * max(costs)
                                  + self.batch_overhead * sum(costs))
                finish = start + self.inference_latency * batch_cost
                heapq.heapreplace(free, finish)
                batch_id = len(self.batches)
                trigger = "full" if size == self.max_batch else "wait"
                self.batches.append(BatchRecord(
                    batch_id=batch_id, start=start, finish=finish, size=size,
                    worker_free=worker_free, oldest_arrival=members[0][0].arrival,
                    trigger=trigger,
                ))
                if metrics.enabled:
                    m_batch.observe(float(size), at=start)
                for req, degraded in members:
                    outcomes.append(RequestOutcome(
                        agent=req.agent, seq=req.seq, frame_index=req.frame_index,
                        arrival=req.arrival,
                        status="degraded" if degraded else "served",
                        start_time=start, finish_time=finish,
                        result_time=finish + self.downlink_latency,
                        batch_id=batch_id, batch_size=size,
                        queue_wait=start - req.arrival,
                    ))

        for req in reqs:
            dispatch_until(req.arrival)
            if (self.queue_capacity is not None
                    and len(waiting) >= self.queue_capacity):
                if self.admission == "reject":
                    if metrics.enabled:
                        m_admit.labels(decision="reject").inc(1.0, at=req.arrival)
                    outcomes.append(RequestOutcome(
                        agent=req.agent, seq=req.seq, frame_index=req.frame_index,
                        arrival=req.arrival, status="rejected",
                        start_time=req.arrival, finish_time=req.arrival,
                        result_time=_INF,
                    ))
                    continue
                if metrics.enabled:
                    m_admit.labels(decision="degrade").inc(1.0, at=req.arrival)
                waiting.append((req, True))
                continue
            if metrics.enabled:
                m_admit.labels(decision="admit").inc(1.0, at=req.arrival)
            waiting.append((req, False))
        dispatch_until(_INF)
        outcomes.sort(key=lambda o: (o.arrival, o.agent, o.seq))
        return outcomes
