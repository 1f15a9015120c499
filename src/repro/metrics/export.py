"""Metrics exporters: JSONL and digests.

Mirrors :mod:`repro.obs.export`: line 1 of the JSONL is a ``meta``
header, every following line is one record.  Two record shapes follow:

- ``{"instrument": name, "kind": ..., "help": ..., "unit": ...}`` — one
  per instrument;
- ``{"name": ..., "kind": ..., "labels": {...}, "window": i, "t0": ...,
  "count": ..., "sum": ..., ...}`` — one per (series, window), sorted by
  ``(name, labels, window)``; a histogram row carries its window's sorted
  samples as ``values``.

The digest hashes exactly these body lines (meta excluded), so two runs
with identical virtual-time timelines produce identical digests no
matter in which order the samples arrived or what wall-clock metadata
rode along.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = [
    "MetricsDoc",
    "json_lines",
    "read_metrics_jsonl",
    "registry_digest",
    "snapshot_lines",
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


#: What each kind of series row must carry beyond name / kind / labels.
_ROW_KEYS = {
    "counter": ("sum",),
    "gauge": ("last", "min", "max"),
    "histogram": ("count", "sum", "min", "max", "values"),
}


def json_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    """``(1-based line number, object)`` for every non-blank line of a JSONL.

    The file comes from outside the program — an artefact cut short by a
    killed run, the wrong file on a command line — so a line that is not
    one JSON object is a :class:`ValueError` naming the path and the
    line, not a decoder traceback.  Undecodable bytes are read as U+FFFD
    and fail the same way.
    """
    with Path(path).open("r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: expected one JSON object per line "
                    f"({exc.msg} at column {exc.colno})") from None
            if not isinstance(obj, dict):
                raise ValueError(
                    f"{path}:{lineno}: expected one JSON object per line, "
                    f"got a {type(obj).__name__}")
            yield lineno, obj


def read_metrics_jsonl(path: str | Path) -> MetricsDoc:
    """Parse a metrics JSONL; malformed input is a :class:`ValueError`
    naming the path, the line and what was expected there."""
    doc = MetricsDoc()
    for lineno, obj in json_lines(path):
        if lineno == 1 and "meta" in obj:
            doc.meta = dict(obj["meta"])
            doc.window = float(obj.get("window", 0.0))
        elif "instrument" in obj:
            doc.instruments[obj["instrument"]] = obj
        else:
            kind = obj.get("kind")
            missing = [k for k in ("name", "kind", "labels", *_ROW_KEYS.get(kind, ()))
                       if k not in obj]
            if missing or kind not in _ROW_KEYS:
                raise ValueError(
                    f"{path}:{lineno}: expected a counter / gauge / histogram series row"
                    + (f", missing {missing}" if missing else f", got kind {kind!r}"))
            if kind == "histogram" and not _samples_ok(obj["values"], obj["count"]):
                raise ValueError(
                    f"{path}:{lineno}: expected a histogram row whose values are "
                    f"its {obj['count']!r} finite samples")
            doc.rows.append(obj)
    return doc


def _samples_ok(values, count) -> bool:
    return (isinstance(values, list) and len(values) == count
            and all(isinstance(v, (int, float)) and math.isfinite(v) for v in values))
