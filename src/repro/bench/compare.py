"""Comparator: classify two bench documents metric by metric.

:func:`compare_docs` matches benchmarks by name, flattens each into its
tracked metrics (median/min/p95 wall time, peak memory, every throughput
figure) and classifies every metric as ``improved`` / ``regressed`` /
``unchanged`` under a per-metric-kind noise tolerance.  Benchmarks present
only in the baseline surface as ``missing`` (a deleted benchmark is itself
a regression of coverage); benchmarks present only in the current run as
``added``.  Mismatched schema versions raise :class:`SchemaMismatchError`
rather than producing a nonsense comparison.

Direction matters: time and memory regress *upward*, throughput regresses
*downward*.  The default tolerances are deliberately loose — wall-clock on
shared CI runners is noisy — and can be overridden per kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "DEFAULT_TOLERANCES",
    "Comparison",
    "MetricDelta",
    "SchemaMismatchError",
    "compare_docs",
    "render_comparison",
]

#: Relative noise tolerance per metric kind: a change within the tolerance
#: is classified ``unchanged``.
DEFAULT_TOLERANCES: dict[str, float] = {"time": 0.30, "memory": 0.15, "throughput": 0.30}

#: Metric kinds where a larger value is better.
_HIGHER_IS_BETTER = frozenset({"throughput"})


class SchemaMismatchError(ValueError):
    """The two documents use different ``schema`` versions."""


@dataclass(frozen=True)
class MetricDelta:
    """One metric's classification.

    ``change`` is the relative change ``(current - baseline) / baseline``
    (``None`` for missing/added rows or a zero baseline).
    """

    benchmark: str
    metric: str
    kind: str
    baseline: float | None
    current: float | None
    change: float | None
    status: str  # improved | regressed | unchanged | missing | added

    def to_json(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "metric": self.metric,
            "kind": self.kind,
            "baseline": self.baseline,
            "current": self.current,
            "change": self.change,
            "status": self.status,
        }


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing two bench documents."""

    deltas: list[MetricDelta]

    def by_status(self, status: str) -> list[MetricDelta]:
        return [d for d in self.deltas if d.status == status]

    @property
    def regressed(self) -> list[MetricDelta]:
        return self.by_status("regressed")

    @property
    def improved(self) -> list[MetricDelta]:
        return self.by_status("improved")

    @property
    def missing(self) -> list[MetricDelta]:
        return self.by_status("missing")

    @property
    def ok(self) -> bool:
        """True when nothing regressed and nothing went missing."""
        return not self.regressed and not self.missing


def _metric_kind(metric: str) -> str:
    if metric.startswith("time_"):
        return "time"
    if metric.startswith("mem_"):
        return "memory"
    return "throughput"


def _flatten(entry: Mapping[str, Any]) -> dict[str, float]:
    """The tracked metrics of one benchmark entry."""
    timing = entry.get("timing_s", {})
    metrics: dict[str, float] = {}
    for key in ("min", "median", "p95"):
        if key in timing:
            metrics[f"time_{key}_s"] = float(timing[key])
    peak = entry.get("memory", {}).get("peak_bytes")
    if peak:
        metrics["mem_peak_bytes"] = float(peak)
    for key, value in entry.get("throughput", {}).items():
        metrics[key] = float(value)
    return metrics


def _classify(kind: str, baseline: float, current: float, tolerance: float) -> tuple[str, float | None]:
    if baseline == 0.0:
        return ("unchanged" if current == 0.0 else "regressed" if kind not in _HIGHER_IS_BETTER else "improved"), None
    change = (current - baseline) / baseline
    if abs(change) <= tolerance:
        return "unchanged", change
    worse = change > 0 if kind not in _HIGHER_IS_BETTER else change < 0
    return ("regressed" if worse else "improved"), change


def compare_docs(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
    tolerances: Mapping[str, float] | None = None,
) -> Comparison:
    """Compare two bench documents (baseline first)."""
    if baseline.get("schema") != current.get("schema"):
        raise SchemaMismatchError(
            f"schema mismatch: baseline is v{baseline.get('schema')!r}, "
            f"current is v{current.get('schema')!r} — regenerate the baseline"
        )
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    base_entries = {e["name"]: e for e in baseline.get("benchmarks", [])}
    cur_entries = {e["name"]: e for e in current.get("benchmarks", [])}
    deltas: list[MetricDelta] = []
    for name in sorted(base_entries.keys() | cur_entries.keys()):
        if name not in cur_entries:
            deltas.append(MetricDelta(name, "*", "coverage", None, None, None, "missing"))
            continue
        if name not in base_entries:
            deltas.append(MetricDelta(name, "*", "coverage", None, None, None, "added"))
            continue
        base_metrics = _flatten(base_entries[name])
        cur_metrics = _flatten(cur_entries[name])
        for metric in sorted(base_metrics.keys() | cur_metrics.keys()):
            kind = _metric_kind(metric)
            if metric not in cur_metrics:
                deltas.append(MetricDelta(name, metric, kind, base_metrics[metric], None, None, "missing"))
                continue
            if metric not in base_metrics:
                deltas.append(MetricDelta(name, metric, kind, None, cur_metrics[metric], None, "added"))
                continue
            status, change = _classify(kind, base_metrics[metric], cur_metrics[metric], tol[kind])
            deltas.append(
                MetricDelta(name, metric, kind, base_metrics[metric], cur_metrics[metric], change, status)
            )
    return Comparison(deltas=deltas)


def render_comparison(comparison: Comparison, *, verbose: bool = False) -> str:
    """Text summary: regressions and improvements, then the tallies.

    With ``verbose``, unchanged metrics are listed too.
    """
    from repro.experiments.reporting import format_table

    lines: list[str] = []
    shown = [d for d in comparison.deltas if verbose or d.status != "unchanged"]
    if shown:
        rows = [
            [
                d.status,
                d.benchmark,
                d.metric,
                "-" if d.baseline is None else f"{d.baseline:.6g}",
                "-" if d.current is None else f"{d.current:.6g}",
                "-" if d.change is None else f"{d.change:+.1%}",
            ]
            for d in shown
        ]
        lines.append(format_table(["status", "benchmark", "metric", "baseline", "current", "change"], rows))
    counts = {
        status: len(comparison.by_status(status))
        for status in ("regressed", "missing", "improved", "added", "unchanged")
    }
    lines.append(", ".join(f"{n} {status}" for status, n in counts.items()))
    if comparison.regressed or comparison.missing:
        names = sorted({f"{d.benchmark}:{d.metric}" for d in (*comparison.regressed, *comparison.missing)})
        lines.append("REGRESSED: " + " ".join(names))
    return "\n".join(lines)
