"""Metrics exporters: JSONL, OpenMetrics-style text, and digests.

Mirrors :mod:`repro.obs.export`: line 1 of the JSONL is a ``meta``
header, every following line is one record.  Two record shapes follow:

- ``{"instrument": name, "kind": ..., "help": ..., "unit": ...,
  "edges": [...]}`` — one per instrument (edges only for histograms);
- ``{"name": ..., "kind": ..., "labels": {...}, "window": i, "t0": ...,
  "count": ..., "sum": ..., ...}`` — one per (series, window), sorted by
  ``(name, labels, window)``.

The digest hashes exactly these body lines (meta excluded), so two runs
with identical virtual-time timelines produce identical digests no
matter in which order the samples arrived or what wall-clock metadata
rode along.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.metrics.hist import FixedBucketHistogram

__all__ = [
    "MetricsDoc",
    "read_metrics_jsonl",
    "registry_digest",
    "snapshot_lines",
    "to_openmetrics",
    "write_metrics_jsonl",
]


def _snapshot(registry_or_snapshot) -> dict:
    if isinstance(registry_or_snapshot, dict):
        return registry_or_snapshot
    return registry_or_snapshot.snapshot()


def snapshot_lines(registry_or_snapshot) -> list[str]:
    """Canonical JSONL body lines (no meta header) of a snapshot."""
    snap = _snapshot(registry_or_snapshot)
    lines: list[str] = []
    for inst in snap["instruments"]:
        header = {
            "instrument": inst["name"], "kind": inst["kind"],
            "help": inst["help"], "unit": inst["unit"],
        }
        if "edges" in inst:
            header["edges"] = inst["edges"]
        lines.append(json.dumps(header, sort_keys=True))
        for series in inst["series"]:
            for win in series["windows"]:
                row = {
                    "name": inst["name"], "kind": inst["kind"],
                    "labels": series["labels"], "window": win["index"],
                }
                row.update({k: v for k, v in win.items() if k != "index"})
                lines.append(json.dumps(row, sort_keys=True))
    return lines


def registry_digest(registry_or_snapshot) -> str:
    """SHA-256 of the canonical body lines — the timeline identity."""
    body = "\n".join(snapshot_lines(registry_or_snapshot))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def write_metrics_jsonl(path: str | Path, registry_or_snapshot) -> Path:
    """Write meta header + canonical body lines; returns the path."""
    snap = _snapshot(registry_or_snapshot)
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": snap["meta"], "window": snap["window"]},
                            sort_keys=True) + "\n")
        for line in snapshot_lines(snap):
            fh.write(line + "\n")
    return path


@dataclass
class MetricsDoc:
    """A parsed metrics JSONL: header metadata plus flat series rows."""

    meta: dict = field(default_factory=dict)
    window: float = 0.0
    instruments: dict[str, dict] = field(default_factory=dict)
    rows: list[dict] = field(default_factory=list)

    def histogram_rows(self) -> list[dict]:
        return [r for r in self.rows if r.get("kind") == "histogram"]

    def pooled_histogram(self, name: str, labels: dict | None = None) -> FixedBucketHistogram:
        """Merge every window of one histogram series back together."""
        header = self.instruments[name]
        pooled = FixedBucketHistogram(header["edges"])
        for row in self.rows:
            if row["name"] != name or row["kind"] != "histogram":
                continue
            if labels is not None and row["labels"] != labels:
                continue
            part = FixedBucketHistogram(header["edges"])
            part.counts = [int(c) for c in row["buckets"]]
            part.count = int(row["count"])
            if part.count:
                part.min, part.max = float(row["min"]), float(row["max"])
                part._sum.add(float(row["sum"]))
            pooled.merge(part)
        return pooled


def read_metrics_jsonl(path: str | Path) -> MetricsDoc:
    doc = MetricsDoc()
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh):
            raw = raw.strip()
            if not raw:
                continue
            obj = json.loads(raw)
            if lineno == 0 and "meta" in obj:
                doc.meta = dict(obj["meta"])
                doc.window = float(obj.get("window", 0.0))
            elif "instrument" in obj:
                doc.instruments[obj["instrument"]] = obj
            else:
                doc.rows.append(obj)
    return doc


def to_openmetrics(registry_or_snapshot) -> str:
    """OpenMetrics-style text: cumulative totals pooled across windows.

    The windowed timeline is the JSONL's job; this format is the
    interoperability view a scrape endpoint would serve — one line per
    series with counters summed, gauges at their last value, histograms
    as cumulative ``_bucket{le=...}`` lines plus ``_sum`` / ``_count``.
    """
    snap = _snapshot(registry_or_snapshot)
    out: list[str] = []
    for inst in snap["instruments"]:
        name, kind = inst["name"], inst["kind"]
        if inst["help"]:
            out.append(f"# HELP {name} {inst['help']}")
        out.append(f"# TYPE {name} {kind}")
        for series in inst["series"]:
            labelstr = ",".join(f'{k}="{v}"' for k, v in sorted(series["labels"].items()))
            windows = series["windows"]
            if kind == "counter":
                total = sum(w["sum"] for w in windows)
                out.append(f"{name}_total{{{labelstr}}} {total!r}" if labelstr
                           else f"{name}_total {total!r}")
            elif kind == "gauge":
                last = windows[-1]["last"] if windows else 0.0
                out.append(f"{name}{{{labelstr}}} {last!r}" if labelstr
                           else f"{name} {last!r}")
            else:
                edges = inst["edges"]
                counts = [0] * (len(edges) + 1)
                total_count, total_sum = 0, 0.0
                for w in windows:
                    total_count += w["count"]
                    total_sum += w["sum"]
                    for i, c in enumerate(w["buckets"]):
                        counts[i] += c
                cum = 0
                for i, edge in enumerate(edges):
                    cum += counts[i]
                    le = f'le="{edge!r}"'
                    sep = "," if labelstr else ""
                    out.append(f"{name}_bucket{{{labelstr}{sep}{le}}} {cum}")
                cum += counts[-1]
                sep = "," if labelstr else ""
                out.append(f'{name}_bucket{{{labelstr}{sep}le="+Inf"}} {cum}')
                suffix = f"{{{labelstr}}}" if labelstr else ""
                out.append(f"{name}_sum{suffix} {total_sum!r}")
                out.append(f"{name}_count{suffix} {total_count}")
    out.append("# EOF")
    return "\n".join(out) + "\n"
