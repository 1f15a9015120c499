"""Deterministic fixed-bucket histograms and order-independent float sums.

Two building blocks the metrics registry (and the bounded-memory trace
pooling in :mod:`repro.obs.aggregate`) rest on:

- :class:`ExactSum` — a Shewchuk-style exact accumulator.  Plain float
  addition is commutative but not associative, so a sum folded in a
  different order can differ in the last ulp.  ``ExactSum`` keeps the
  running sum as non-overlapping partials whose mathematical sum is
  *exact*; the single rounding happens at read time, so the result is
  bit-identical for any accumulation order.
- :class:`FixedBucketHistogram` — integer counts over a fixed edge grid
  (no reservoir sampling, no per-sample storage).  Integer counts are
  inherently order-independent, memory is bounded by the number of
  buckets, and two histograms over the same edges merge losslessly —
  which is what makes pooled quantiles over long runs both bounded and
  reproducible.  Quantiles are estimated by linear interpolation inside
  the bucket holding the nearest-rank order statistic, so the estimate
  is always within one bucket width of the exact nearest-rank quantile
  (property-tested in ``tests/test_metrics.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Sequence

__all__ = [
    "ExactSum",
    "FixedBucketHistogram",
    "bucket_quantile",
    "linear_buckets",
    "log_buckets",
]


class ExactSum:
    """Order-independent float accumulator (exact partials, one rounding).

    ``add`` maintains a list of non-overlapping partials (the classic
    Shewchuk / ``math.fsum`` representation) whose exact sum equals the
    exact real-number sum of everything added so far; :attr:`value`
    rounds that exact sum once.  Because the represented quantity is
    exact, the read-out is independent of insertion order — the property
    that keeps metric counters bit-identical whatever the arrival order.

    Non-finite inputs are rejected by callers (the registry skips them);
    feeding ``inf``/``nan`` here would poison the partials.
    """

    __slots__ = ("_partials",)

    def __init__(self, values: Iterable[float] = ()):
        self._partials: list[float] = []
        for v in values:
            self.add(v)

    def add(self, x: float) -> None:
        partials = self._partials
        x = float(x)
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        for y in other._partials:
            self.add(y)

    @property
    def value(self) -> float:
        """The correctly-rounded sum of everything added."""
        return math.fsum(self._partials)


def linear_buckets(lo: float, hi: float, n_edges: int) -> tuple[float, ...]:
    """``n_edges`` evenly spaced edges from ``lo`` to ``hi`` inclusive."""
    if n_edges < 2:
        raise ValueError(f"need at least 2 edges, got {n_edges}")
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    step = (hi - lo) / (n_edges - 1)
    return tuple(lo + step * k for k in range(n_edges))


def log_buckets(lo: float, hi: float, *, per_decade: int = 4) -> tuple[float, ...]:
    """Logarithmic edges from ``lo`` up to (at least) ``hi``.

    Edges sit at ``lo * 10**(k / per_decade)`` — the natural grid for
    latencies spanning several orders of magnitude.
    """
    if lo <= 0.0 or not hi > lo:
        raise ValueError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    edges = [lo]
    k = 1
    while edges[-1] < hi:
        edges.append(lo * 10.0 ** (k / per_decade))
        k += 1
    return tuple(edges)


def bucket_quantile(
    edges: Sequence[float],
    counts: Sequence[int],
    q: float,
    *,
    lo: float | None = None,
    hi: float | None = None,
) -> float:
    """Estimate the ``q``-quantile of a bucketed distribution.

    ``counts`` has ``len(edges) + 1`` entries: an underflow bucket
    (``< edges[0]``), one per ``[edges[i], edges[i+1])`` interval, and an
    overflow bucket (``>= edges[-1]``).  ``lo``/``hi`` bound the open
    underflow/overflow buckets (callers pass the recorded min/max).  The
    estimate interpolates linearly inside the bucket containing the
    nearest-rank order statistic, so it lands in the same bucket as the
    exact nearest-rank quantile.  Empty distributions return ``0.0``.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    q = min(max(float(q), 0.0), 1.0)
    # 1-indexed nearest-rank position; interpolation fraction inside the
    # bucket comes from where the rank falls within the bucket's count.
    rank = q * (total - 1) + 1.0
    rank_up = min(total, math.ceil(rank))
    cum = 0
    for i, c in enumerate(counts):
        if cum + c >= rank_up:
            if i == 0:
                b_lo = edges[0] if lo is None else min(lo, edges[0])
                b_hi = edges[0]
            elif i == len(counts) - 1:
                b_lo = edges[-1]
                b_hi = edges[-1] if hi is None else max(hi, edges[-1])
            else:
                b_lo, b_hi = edges[i - 1], edges[i]
            frac = (rank - cum) / c
            frac = min(max(frac, 0.0), 1.0)
            value = b_lo + (b_hi - b_lo) * frac
            if lo is not None:
                value = max(value, lo)
            if hi is not None:
                value = min(value, hi)
            return value
        cum += c
    return edges[-1] if hi is None else hi  # pragma: no cover - cum==total above


class FixedBucketHistogram:
    """Integer bucket counts over a fixed edge grid, plus exact moments.

    Tracks count / min / max and an :class:`ExactSum` of the values, so
    ``mean`` and ``sum`` are order-independent too.  Non-finite values
    are skipped (returned as ``False`` from :meth:`observe`) — they have
    no place on a fixed grid and would poison the sum.
    """

    __slots__ = ("edges", "counts", "count", "min", "max", "_sum")

    def __init__(self, edges: Sequence[float]):
        edges = tuple(float(e) for e in edges)
        if len(edges) < 2:
            raise ValueError(f"need at least 2 edges, got {len(edges)}")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("edges must be strictly increasing")
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self._sum = ExactSum()

    def observe(self, value: float) -> bool:
        value = float(value)
        if not math.isfinite(value):
            return False
        self.counts[bisect_right(self.edges, value)] += 1
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._sum.add(value)
        return True

    def merge(self, other: "FixedBucketHistogram") -> None:
        if other.edges != self.edges:
            raise ValueError("cannot merge histograms with different edges")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._sum.merge(other._sum)

    def quantile(self, q: float) -> float:
        if self.count == 0:
            return 0.0
        return bucket_quantile(self.edges, self.counts, q, lo=self.min, hi=self.max)

    @property
    def sum(self) -> float:
        return self._sum.value

    @property
    def mean(self) -> float:
        return self._sum.value / self.count if self.count else 0.0
