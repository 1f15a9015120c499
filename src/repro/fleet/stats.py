"""Fleet-level accounting: per-agent reports, tail latency, fairness.

Everything here is plain arithmetic over reconciled per-frame results,
computed single-threaded in agent order — the digest is bit-identical
for any worker count by construction.  Quantiles are nearest-rank
(deterministic, no interpolation); fairness is Jain's index
``(sum x)^2 / (n * sum x^2)`` — 1.0 when every agent gets the same, down
to ``1/n`` when one agent gets everything.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

__all__ = ["AgentReport", "FleetStats", "jain_index", "quantile"]

_INF = float("inf")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (``q`` in [0, 1])."""
    if not values:
        return _INF
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    rank = max(int(math.ceil(q * len(ordered))), 1)
    return ordered[min(rank, len(ordered)) - 1]


def jain_index(values: list[float]) -> float:
    """Jain's fairness index over non-negative per-agent values."""
    if not values:
        return 1.0
    total = float(sum(values))
    if total == 0.0:
        return 1.0  # nobody got anything — degenerate but equal
    sumsq = float(sum(v * v for v in values))
    return total * total / (len(values) * sumsq)


@dataclass
class AgentReport:
    """One agent's settled outcome inside the fleet.

    Response times are the agent's *local* seconds (capture to result),
    after the truth-side batching replay; ``map`` is delivered accuracy
    scored against the agent's own raw-frame ground truth — stale frames
    carry stale detections, so admission rejects show up here.
    """

    agent: str
    scheme: str
    clip_name: str
    start: float
    frames: int
    map: float
    mean_response: float
    p50_response: float
    p95_response: float
    p99_response: float
    goodput_bytes: int
    requests: int
    served: int
    degraded: int
    rejected: int
    stale_frames: int
    late_frames: int

    def row(self) -> list:
        """Table row for the CLI."""
        return [
            self.agent, self.scheme, self.frames, round(self.map, 4),
            round(self.mean_response * 1000, 2), round(self.p99_response * 1000, 2),
            self.goodput_bytes, self.requests, self.rejected, self.stale_frames,
        ]

    def key(self) -> str:
        """Deterministic one-line encoding (digest material)."""
        return (
            f"{self.agent}:{self.scheme}:{self.clip_name}:f{self.frames}"
            f":map={self.map:.9f}:mrt={self.mean_response:.9f}"
            f":p99={self.p99_response:.9f}:good={self.goodput_bytes}"
            f":req={self.requests}/{self.served}/{self.degraded}/{self.rejected}"
            f":stale={self.stale_frames}:late={self.late_frames}"
        )


@dataclass
class FleetStats:
    """Whole-fleet aggregate accounting."""

    agents: int = 0
    frames: int = 0
    requests: int = 0
    served: int = 0
    degraded: int = 0
    rejected: int = 0
    stale_frames: int = 0
    late_frames: int = 0
    batches: int = 0
    mean_batch_size: float = 0.0
    mean_response: float = _INF
    p50_response: float = _INF
    p95_response: float = _INF
    p99_response: float = _INF
    mean_map: float = 0.0
    goodput_bytes: int = 0
    jain_accuracy: float = 1.0
    jain_goodput: float = 1.0
    makespan: float = 0.0
    reports: list[AgentReport] = field(default_factory=list)

    @classmethod
    def build(cls, reports: list[AgentReport], responses: list[float],
              batch_sizes: list[int], makespan: float) -> "FleetStats":
        """Aggregate per-agent reports plus the pooled local response
        times and dispatched batch sizes."""
        finite = [r for r in responses if r != _INF]
        return cls(
            agents=len(reports),
            frames=sum(r.frames for r in reports),
            requests=sum(r.requests for r in reports),
            served=sum(r.served for r in reports),
            degraded=sum(r.degraded for r in reports),
            rejected=sum(r.rejected for r in reports),
            stale_frames=sum(r.stale_frames for r in reports),
            late_frames=sum(r.late_frames for r in reports),
            batches=len(batch_sizes),
            mean_batch_size=(sum(batch_sizes) / len(batch_sizes)) if batch_sizes else 0.0,
            mean_response=(sum(finite) / len(finite)) if finite else _INF,
            p50_response=quantile(finite, 0.50),
            p95_response=quantile(finite, 0.95),
            p99_response=quantile(finite, 0.99),
            mean_map=(sum(r.map for r in reports) / len(reports)) if reports else 0.0,
            goodput_bytes=sum(r.goodput_bytes for r in reports),
            jain_accuracy=jain_index([r.map for r in reports]),
            jain_goodput=jain_index([float(r.goodput_bytes) for r in reports]),
            makespan=makespan,
            reports=list(reports),
        )

    @property
    def reject_rate(self) -> float:
        return self.rejected / self.requests if self.requests else 0.0

    def digest(self) -> str:
        """SHA-256 over every agent report plus the aggregate numbers.

        Wall-clock quantities never enter a report, so the digest is
        bit-identical across reruns and worker counts.
        """
        parts = [r.key() for r in self.reports]
        parts.append(
            f"fleet:req={self.requests}/{self.served}/{self.degraded}/{self.rejected}"
            f":batches={self.batches}:mbs={self.mean_batch_size:.9f}"
            f":p99={self.p99_response:.9f}:jain={self.jain_accuracy:.9f}"
            f"/{self.jain_goodput:.9f}:span={self.makespan:.9f}"
        )
        return hashlib.sha256(";".join(parts).encode()).hexdigest()

    def summary(self) -> dict[str, float]:
        """Flat numbers for tables."""
        return {
            "agents": self.agents,
            "frames": self.frames,
            "requests": self.requests,
            "served": self.served,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "stale_frames": self.stale_frames,
            "late_frames": self.late_frames,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 6),
            "mean_response_ms": (round(self.mean_response * 1000, 6)
                                 if self.mean_response != _INF else _INF),
            "p99_response_ms": (round(self.p99_response * 1000, 6)
                                if self.p99_response != _INF else _INF),
            "mean_map": round(self.mean_map, 6),
            "goodput_bytes": self.goodput_bytes,
            "jain_accuracy": round(self.jain_accuracy, 6),
            "jain_goodput": round(self.jain_goodput, 6),
            "makespan": round(self.makespan, 6),
        }
