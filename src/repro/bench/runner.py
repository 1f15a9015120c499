"""Suite execution and the schema-versioned ``BENCH_*.json`` document.

:func:`run_suite` builds and measures every registered benchmark of a
suite and returns one JSON-serialisable document::

    {
      "schema": 1,
      "suite": "micro" | "macro" | "all",
      "created": "2026-08-06T12:00:00Z",
      "host": {"python": ..., "numpy": ..., "scipy": ..., "platform": ..., "machine": ...,
               "kernel_backend": ...},
      "config": {... BenchScale echo ...},
      "benchmarks": [
        {
          "name": "me/hex", "suite": "micro", "group": "me",
          "warmup": 1, "repeats": 3,
          "times_s": [...],
          "timing_s": {"min": ..., "median": ..., "p95": ..., "mean": ..., "total": ...},
          "memory": {"peak_bytes": ...},
          "work": {"frames": ..., "macroblocks": ..., ...},
          "throughput": {"frames_per_s": ..., "macroblocks_per_s": ..., ...},
          # macro benchmarks additionally:
          "spans_ms": {"me": {"count": ..., "mean": ..., "p50": ..., "p95": ..., "total": ...}, ...},
          "counters": {"bits": {...}, ...},
        }, ...
      ]
    }

Everything except ``created``, the timing/memory figures and the
timing-derived ``throughput`` values is deterministic for a given
:class:`BenchScale` — that is the contract the determinism test and the
:mod:`repro.bench.compare` comparator rely on.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro.bench.measure import measure
from repro.bench.registry import Benchmark, all_benchmarks
from repro.experiments.config import BenchScale
from repro.obs.aggregate import StageStats, merge, summarize

__all__ = ["SCHEMA_VERSION", "host_fingerprint", "load_doc", "run_benchmark", "run_suite", "write_doc"]

SCHEMA_VERSION = 1


def host_fingerprint() -> dict[str, str]:
    """Interpreter/library/host identity echoed into every document."""
    import numpy
    import scipy

    from repro import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        # Timings are only comparable between runs on the same backend.
        "kernel_backend": kernels.active().name,
    }


def _stats_json(stats: StageStats, scale: float = 1.0) -> dict[str, float]:
    return {
        "count": stats.count,
        "mean": stats.mean * scale,
        "p50": stats.p50 * scale,
        "p95": stats.p95 * scale,
        "total": stats.total * scale,
    }


def run_benchmark(bench: Benchmark, scale: BenchScale) -> dict[str, Any]:
    """Build, measure and serialize one benchmark."""
    case = bench.build(scale)
    if bench.suite == "macro":
        warmup, repeats = scale.macro_warmup, scale.macro_repeats
    else:
        warmup, repeats = scale.warmup, scale.repeats
    measurement = measure(case.fn, warmup=warmup, repeats=repeats)
    entry: dict[str, Any] = {"name": bench.name, "suite": bench.suite, "group": bench.group}
    entry.update(measurement.to_json())
    work = dict(case.work)
    if case.tracers:
        # One tracer per fn() call, in order: [warmup..., timed..., memory].
        # Span statistics come from the timed repeats only — the warmup call
        # is a cache-cold outlier and the memory pass runs under tracemalloc.
        timed = case.tracers[warmup : warmup + repeats] or case.tracers
        summary = summarize(merge(t.frames for t in timed))
        bits = sum(record.counters.get("bits", 0.0) for record in timed[0].frames)
        if bits:
            work.setdefault("encoded_kbit", bits / 1e3)
        entry["spans_ms"] = {path: _stats_json(s, 1e3) for path, s in summary.spans.items()}
        entry["counters"] = {name: _stats_json(s) for name, s in summary.counters.items()}
    entry["work"] = work
    median = measurement.median_s
    entry["throughput"] = {
        f"{key}_per_s": value / median for key, value in sorted(work.items()) if median > 0
    }
    return entry


def run_suite(
    suite: str = "all",
    *,
    scale: BenchScale | None = None,
    names: list[str] | None = None,
) -> dict[str, Any]:
    """Measure every benchmark of ``suite`` and return the document.

    ``names`` optionally restricts the run to a subset of benchmark names
    (unknown names raise, so typos fail loudly).  Explicit names resolve
    against the full registry, so ``--only pipeline/stream`` works
    without also passing ``--suite macro``.
    """
    scale = scale if scale is not None else BenchScale()
    benches = all_benchmarks("all" if names is not None else suite)
    if names is not None:
        by_name = {b.name: b for b in benches}
        unknown = [n for n in names if n not in by_name]
        if unknown:
            raise ValueError(f"unknown benchmark names {unknown}; available: {sorted(by_name)}")
        benches = [by_name[n] for n in names]
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_fingerprint(),
        "config": asdict(scale),
        "benchmarks": [run_benchmark(b, scale) for b in benches],
    }


def write_doc(doc: dict[str, Any], path: str | Path) -> Path:
    """Write a bench document as stable, human-diffable JSON."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_doc(path: str | Path) -> dict[str, Any]:
    """Read a bench document back; validates the schema version."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or "benchmarks" not in doc:
        raise ValueError(f"{path} is not a bench document (no 'benchmarks' key)")
    return doc
