"""`repro top` rendering: an ANSI dashboard over a metrics snapshot.

Pure snapshot -> text; the CLI owns the loop (clear screen, re-render at
a refresh interval while the streaming run progresses on another thread)
and the ``--once`` CI mode just prints one frame.  Each series renders
as one row: a sparkline over its windowed virtual-time values (counter
sums, gauge lasts, histogram p95s — reusing
:func:`repro.analysis.sparkline.sparkline`) plus pooled summary columns.
Histogram percentiles come from
:meth:`~repro.obs.aggregate.StageStats.from_values` over the kept
samples, the same path ``repro report --metrics`` takes.
"""

from __future__ import annotations

from repro.obs.aggregate import StageStats

__all__ = ["render_top", "series_rows"]


def _fmt(value: float) -> str:
    if value == 0.0:
        return "0"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.2e}"
    return f"{value:,.3f}".rstrip("0").rstrip(".")


def _series_label(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def series_rows(snapshot: dict, *, width: int = 32) -> list[dict]:
    """One row dict per series: label, kind, sparkline, summary stats.

    Windowed values feeding the sparkline are contiguous from the first
    to the last seen window (gaps render as the sparkline's zero bar for
    counters/histograms, as a blank for gauges).
    """
    # Imported here, not at module scope: repro.analysis pulls in the
    # edge/baselines packages, which themselves import repro.metrics.
    from repro.analysis.sparkline import sparkline

    rows: list[dict] = []
    for inst in snapshot["instruments"]:
        kind = inst["kind"]
        for series in inst["series"]:
            windows = series["windows"]
            if not windows:
                continue
            by_index = {w["index"]: w for w in windows}
            first, last = windows[0]["index"], windows[-1]["index"]
            span = range(first, last + 1)
            if len(span) > width:  # keep the tail on screen
                span = range(last + 1 - width, last + 1)
            values: list[float] = []
            for i in span:
                w = by_index.get(i)
                if w is None:
                    values.append(0.0 if kind != "gauge" else float("nan"))
                elif kind == "counter":
                    values.append(w["sum"])
                elif kind == "gauge":
                    values.append(w["last"])
                else:
                    values.append(StageStats.from_values(w["values"]).p95)
            total_count = sum(w["count"] for w in windows)
            row = {
                "label": _series_label(inst["name"], series["labels"]),
                "kind": kind, "unit": inst["unit"],
                "spark": sparkline(values), "count": total_count,
            }
            if kind == "counter":
                row["total"] = sum(w["sum"] for w in windows)
            elif kind == "gauge":
                row["last"] = windows[-1]["last"]
                row["max"] = max(w["max"] for w in windows)
            else:
                stats = StageStats.from_values([v for w in windows for v in w["values"]])
                row.update(p50=stats.p50, p95=stats.p95, p99=stats.p99)
            rows.append(row)
    return rows


def render_top(snapshot: dict, *, stats=None, flight=None, width: int = 32,
               title: str = "repro top") -> str:
    """Render one dashboard frame from a registry snapshot.

    ``stats`` (a :class:`~repro.stream.StreamStats`) and ``flight`` (a
    :class:`~repro.metrics.flight.FlightRecorder` snapshot dict) add the
    run-outcome footer and the trigger line when available.
    """
    window = snapshot["window"]
    rows = series_rows(snapshot, width=width)
    horizon = 0.0
    for inst in snapshot["instruments"]:
        for series in inst["series"]:
            if series["windows"]:
                horizon = max(horizon, (series["windows"][-1]["index"] + 1) * window)
    lines = [
        f"{title} — window {window:g}s, virtual horizon {horizon:g}s, "
        f"{len(rows)} series",
        "",
    ]
    label_w = max([len(r["label"]) for r in rows], default=0)
    label_w = min(max(label_w, 20), 44)
    for row in rows:
        if row["kind"] == "counter":
            summary = f"n={row['count']}  total={_fmt(row['total'])}"
        elif row["kind"] == "gauge":
            summary = f"last={_fmt(row['last'])}  max={_fmt(row['max'])}"
        else:
            summary = (f"p50={_fmt(row['p50'])}  p95={_fmt(row['p95'])}  "
                       f"p99={_fmt(row['p99'])}")
        lines.append(f"{row['label']:<{label_w}s} {row['spark']:<{width}s} {summary}")
    if stats is not None:
        lines += [
            "",
            f"frames={stats.frames}  delivered={stats.delivered}  "
            f"degraded={stats.degraded}  dropped={stats.dropped}  "
            f"late={stats.late}  blocked={stats.blocked_time:.3f}s  "
            f"policy={stats.policy}",
        ]
    if flight is not None:
        dumps = flight["dumps"]
        if dumps:
            reasons = ", ".join(f"{d['reason']}@{d['at']:.3f}s" for d in dumps)
            lines.append(f"flight recorder: {len(dumps)} dump(s) — {reasons}")
        else:
            lines.append(
                f"flight recorder: armed, {flight['recorded']} events, no triggers")
    return "\n".join(lines)
