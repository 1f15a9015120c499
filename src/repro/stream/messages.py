"""Typed records of the streaming runtime.

``QueueOutcome`` is the sealed fate of one job — one
``BackpressureQueue.submit`` — on the *truth* timeline (see
:mod:`repro.stream.queues`); ``StreamFrameRecord`` / ``StreamStats``
are the per-frame and per-run accounting the :class:`~repro.stream.runner.
StreamRunner` returns alongside the scheme's own results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = [
    "QueueOutcome",
    "StreamFrameRecord",
    "StreamStats",
]

#: Job outcome statuses on the truth timeline.
STATUSES = ("delivered", "degraded", "dropped")

#: Reasons attached to non-delivered (or degraded) outcomes.
REASONS = ("", "hol", "evicted", "capacity", "abandoned")


@dataclass
class QueueOutcome:
    """The sealed fate of one submitted job on the truth timeline.

    Attributes
    ----------
    seq:
        Submission sequence number — distinct from ``frame_index``
        because some schemes (DDS) transmit twice per frame.
    status:
        ``delivered`` | ``degraded`` | ``dropped``.
    reason:
        ``""`` for deliveries; ``hol`` (head-of-line timer), ``evicted``
        (drop-oldest made room for a newer frame), ``capacity`` (tail drop
        when nothing could be evicted), or ``abandoned`` (the agent gave
        the frame up on its own belief timeline) for drops.
    sent_bytes:
        Bytes that actually crossed the link (0 for drops, reduced for
        degraded jobs).
    admit_time:
        When the job held a queue slot (== ``enqueue_time`` unless the
        ``block`` policy stalled the encoder).
    release_time:
        When the job stopped occupying the queue: delivery finish, HoL
        expiry, or the eviction instant.
    blocked:
        Simulated seconds the encoder stalled waiting for a slot.
    """

    seq: int
    frame_index: int
    size_bytes: int
    sent_bytes: int
    enqueue_time: float
    admit_time: float
    start_time: float
    finish_time: float
    release_time: float
    status: str
    reason: str = ""
    blocked: float = 0.0

    def key(self) -> str:
        """Deterministic one-line encoding (digest/debug material)."""
        return (
            f"{self.seq}/{self.frame_index}:{self.status}:{self.reason}"
            f":sent={self.sent_bytes}:adm={self.admit_time:.6f}"
            f":fin={self.finish_time:.6f}:blk={self.blocked:.6f}"
        )


@dataclass
class StreamFrameRecord:
    """Per-frame truth accounting after reconciliation.

    ``status`` is ``local`` for frames the scheme never put on the wire
    (tracked/cached frames, belief-side skips); otherwise the aggregate of
    the frame's job outcomes.  ``late`` flags delivered frames whose truth
    result came back after ``capture_time + deadline``.
    """

    index: int
    capture_time: float
    status: str
    reason: str = ""
    late: bool = False
    bytes_sent: int = 0
    result_time: float = float("inf")
    blocked: float = 0.0


@dataclass
class StreamStats:
    """Whole-run streaming accounting.

    ``delivered``/``degraded``/``dropped`` count *jobs* on the truth
    timeline; ``local`` counts frames never offered to the queue; ``late``
    counts frames that missed their deadline.  ``virtual_makespan`` is the
    final simulated time, ``wall_time`` the real seconds the run took.
    """

    frames: int = 0
    delivered: int = 0
    degraded: int = 0
    dropped: int = 0
    local: int = 0
    late: int = 0
    blocked_time: float = 0.0
    virtual_makespan: float = 0.0
    wall_time: float = 0.0
    policy: str = "block"
    records: list[StreamFrameRecord] = field(default_factory=list)
    outcomes: list[QueueOutcome] = field(default_factory=list)
    marks: dict[str, float] = field(default_factory=dict)

    def digest(self) -> str:
        """Hash of every simulated-time decision this run made.

        Covers each job's sealed outcome and each frame's reconciled
        status, so two runs agree iff they made identical drop/degrade
        choices with identical timing.  Wall-clock fields are excluded by
        construction — the digest must match across reruns.
        """
        parts = [o.key() for o in sorted(self.outcomes, key=lambda o: o.seq)]
        for r in sorted(self.records, key=lambda r: r.index):
            parts.append(
                f"f{r.index}:{r.status}:{r.reason}:late={int(r.late)}"
                f":bytes={r.bytes_sent}:rt={r.result_time:.6f}"
            )
        return hashlib.sha256(";".join(parts).encode()).hexdigest()
