"""Observability: frame-level tracing, JSONL export and aggregation.

The measurement substrate behind every perf claim in this repo: a
:class:`Tracer` collects nestable wall-clock spans and per-frame
counters/gauges along the Fig-5 pipeline (ME → rotation removal →
foreground → QP map → CBR encode → uplink → server), exports them as
JSONL, and :func:`summarize` reduces a trace to per-stage p50/p95/mean
tables.  :func:`run_report` joins a trace with a metrics JSONL into the
markdown / text document ``repro report`` prints.  The default
:data:`NULL_TRACER` is a no-op, so untraced runs pay nothing.  See the
"Observability" section of README.md / API.md.
"""

from repro.obs.aggregate import (
    StageStats,
    TraceSummary,
    counter_rows,
    span_rows,
    summarize,
)
from repro.obs.export import read_jsonl, write_jsonl
from repro.obs.report import run_report
from repro.obs.tracer import NULL_TRACER, FrameTrace, NullTracer, Tracer

__all__ = [
    "FrameTrace",
    "NULL_TRACER",
    "NullTracer",
    "StageStats",
    "TraceSummary",
    "Tracer",
    "counter_rows",
    "read_jsonl",
    "run_report",
    "span_rows",
    "summarize",
    "write_jsonl",
]
