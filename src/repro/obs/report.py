"""The run report: one markdown (or plain-text) document joining a
``repro trace`` JSONL — per-stage span latency and per-frame counters —
with a metrics JSONL (``repro.metrics``), the virtual-time telemetry
view: pooled histogram quantiles, counter totals and gauge envelopes per
series.  ``repro report`` prints it.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from repro.obs.aggregate import StageStats, counter_rows, span_rows, summarize
from repro.obs.tracer import FrameTrace

__all__ = ["run_report"]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
    return "\n".join(lines)


def _metrics_sections(metrics: Any, table) -> list[str]:
    """Render a parsed metrics JSONL (:class:`repro.metrics.MetricsDoc`)
    as histogram-quantile / counter / gauge tables."""
    groups: dict[tuple[str, str], list[Mapping[str, Any]]] = {}
    for row in metrics.rows:
        key = (row["name"], json.dumps(row["labels"], sort_keys=True))
        groups.setdefault(key, []).append(row)
    lines = [
        f"metrics: {len(metrics.instruments)} instruments, {len(groups)} series, "
        f"window {metrics.window:g} s (virtual time)",
        "",
    ]
    hist_rows: list[list[object]] = []
    count_rows: list[list[object]] = []
    gauge_rows: list[list[object]] = []
    for (name, _), rows in sorted(groups.items()):
        kind, labels = rows[0]["kind"], rows[0]["labels"]
        disp = name + ("{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}" if labels else "")
        if kind == "histogram":
            stats = StageStats.from_values([v for r in rows for v in r["values"]])
            hist_rows.append([disp, stats.count, stats.mean, stats.p50, stats.p95, stats.p99])
        elif kind == "counter":
            count_rows.append([disp, len(rows), sum(r["sum"] for r in rows)])
        else:
            gauge_rows.append(
                [disp, len(rows), rows[-1]["last"],
                 min(r["min"] for r in rows), max(r["max"] for r in rows)]
            )
    if hist_rows:
        lines.extend(
            table(
                ["series", "count", "mean", "p50", "p95", "p99"],
                hist_rows,
                "Metric quantiles (pooled histogram samples)",
            )
        )
    if count_rows:
        lines.extend(table(["series", "windows", "total"], count_rows, "Metric counters"))
    if gauge_rows:
        lines.extend(
            table(["series", "windows", "last", "min", "max"], gauge_rows, "Metric gauges")
        )
    return lines


def run_report(
    trace_meta: Mapping[str, Any] | None = None,
    trace_frames: Sequence[FrameTrace] | None = None,
    *,
    metrics: Any | None = None,
    fmt: str = "markdown",
) -> str:
    """Join a frame trace and a metrics JSONL into one run report.

    Either input may be omitted (``None`` / empty): the report renders the
    sections it has data for.  ``metrics`` is a parsed
    :class:`repro.metrics.MetricsDoc` (``repro report --metrics``);
    ``fmt`` is ``"markdown"`` (pipe tables) or ``"text"`` (the aligned
    tables every CLI command prints).
    """
    if fmt not in ("markdown", "text"):
        raise ValueError(f"fmt must be 'markdown' or 'text', got {fmt!r}")
    from repro.experiments.reporting import format_table

    def table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str) -> list[str]:
        if fmt == "markdown":
            return [f"## {title}", "", _md_table(headers, rows), ""]
        return [format_table(headers, rows, title=title), ""]

    lines: list[str] = ["# Run report" if fmt == "markdown" else "=== Run report ===", ""]
    if trace_frames:
        summary = summarize(list(trace_frames))
        meta = dict(trace_meta or {})
        label = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()) if not isinstance(v, (list, dict)))
        lines.append(f"trace: {summary.n_frames} frames" + (f" ({label})" if label else ""))
        lines.append("")
        lines.extend(
            table(
                ["stage", "frames", "mean ms", "p50 ms", "p95 ms", "total ms"],
                span_rows(summary),
                "Traced per-stage latency",
            )
        )
        lines.extend(
            table(
                ["counter", "frames", "mean", "p50", "p95", "total"],
                counter_rows(summary),
                "Traced counters",
            )
        )
    if metrics is not None and metrics.rows:
        lines.extend(_metrics_sections(metrics, table))
    if not trace_frames and (metrics is None or not metrics.rows):
        lines.append("(nothing to report: no trace frames or metrics)")
    return "\n".join(lines).rstrip() + "\n"
