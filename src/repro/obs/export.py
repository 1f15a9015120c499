"""JSONL import/export of frame traces.

Schema (one JSON object per line):

- line 1 — header: ``{"meta": {...}}``; free-form run metadata (scheme,
  clip, bandwidth label, config), always present even when empty.
- every further line — one frame record:
  ``{"index": int, "spans": {path: seconds}, "counters": {name: value}}``.
  Span paths are slash-joined stage names (``"encode/dct"``); span values
  are wall-clock seconds, counter values are floats.  An ``index`` of
  ``-1`` marks the orphan record (measurements taken outside any frame
  context), emitted last when non-empty.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.metrics.export import json_lines
from repro.obs.tracer import FrameTrace, Tracer

__all__ = ["read_jsonl", "write_jsonl"]


def write_jsonl(path: str | Path, tracer: Tracer) -> Path:
    """Write a tracer's records to ``path`` (JSONL); returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": tracer.meta}, sort_keys=True) + "\n")
        for record in tracer.all_records():
            fh.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
    return path


def read_jsonl(path: str | Path) -> tuple[dict[str, Any], list[FrameTrace]]:
    """Read a trace file back as ``(meta, frame_records)``.

    Malformed input is a :class:`ValueError` naming the path, the 1-based
    line and what was expected there.
    """
    meta: dict[str, Any] = {}
    frames: list[FrameTrace] = []
    for lineno, obj in json_lines(path):
        if lineno == 1 and "meta" in obj:
            meta = obj["meta"]
            continue
        try:
            frames.append(FrameTrace.from_json(obj))
        except (AttributeError, KeyError, TypeError, ValueError):
            raise ValueError(
                f'{path}:{lineno}: expected a frame record '
                f'{{"index": int, "spans": {{path: seconds}}, "counters": {{name: value}}}}'
            ) from None
    return meta, frames
