"""Reduce a frame trace to per-stage summary statistics.

:func:`summarize` turns a list of :class:`~repro.obs.tracer.FrameTrace`
records into p50/p95/mean/total tables — one row per span path and one per
counter — which is what the ``repro trace`` CLI prints and what perf PRs
quote as their before/after story.  :meth:`StageStats.from_values` is the
one percentile path: ``repro report --metrics`` and ``repro top`` call it
on a metric series' pooled histogram samples too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs.tracer import FrameTrace

__all__ = [
    "StageStats",
    "TraceSummary",
    "counter_rows",
    "span_rows",
    "summarize",
]


@dataclass(frozen=True)
class StageStats:
    """Distribution of one span path or counter across frames.

    ``count`` is the number of frames the name appeared in (absences are
    not counted as zeros — an I-frame has no ``encode/me`` span at all).
    """

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    total: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "StageStats":
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            # Zero samples (e.g. a span name that never fired): percentile
            # on an empty array raises, so return an all-zero row instead.
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, total=0.0)
        p50, p95, p99 = (float(p) for p in np.percentile(arr, [50, 95, 99]))
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            p50=p50,
            p95=p95,
            p99=p99,
            total=float(arr.sum()),
        )


@dataclass(frozen=True)
class TraceSummary:
    """Per-stage span stats (seconds) and per-counter stats."""

    n_frames: int
    spans: dict[str, StageStats]
    counters: dict[str, StageStats]


def summarize(frames: Sequence[FrameTrace]) -> TraceSummary:
    """Aggregate frame records into per-stage / per-counter statistics.

    An empty input yields an empty :class:`TraceSummary` (zero frames, no
    rows) rather than an error, so callers can summarize unconditionally.
    """
    span_values: dict[str, list[float]] = {}
    counter_values: dict[str, list[float]] = {}
    for frame in frames:
        for path, seconds in frame.spans.items():
            span_values.setdefault(path, []).append(seconds)
        for name, value in frame.counters.items():
            counter_values.setdefault(name, []).append(value)
    return TraceSummary(
        n_frames=len(frames),
        spans={k: StageStats.from_values(v) for k, v in sorted(span_values.items())},
        counters={k: StageStats.from_values(v) for k, v in sorted(counter_values.items())},
    )


def span_rows(summary: TraceSummary, *, scale: float = 1e3) -> list[list[object]]:
    """Table rows ``[stage, count, mean, p50, p95, total]`` (default ms)."""
    return [
        [path, s.count, s.mean * scale, s.p50 * scale, s.p95 * scale, s.total * scale]
        for path, s in summary.spans.items()
    ]


def counter_rows(summary: TraceSummary) -> list[list[object]]:
    """Table rows ``[counter, count, mean, p50, p95, total]``."""
    return [
        [name, s.count, s.mean, s.p50, s.p95, s.total]
        for name, s in summary.counters.items()
    ]
