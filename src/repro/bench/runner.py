"""Suite execution and the bench document.

:func:`run_suite` builds and measures every registered benchmark and
returns one JSON-serialisable document::

    {
      "created": "2026-08-06T12:00:00Z",
      "host": {"python": ..., "numpy": ..., "scipy": ..., "platform": ..., "machine": ...,
               "kernel_backend": ...},
      "config": {... BenchScale echo ...},
      "benchmarks": [
        {
          "name": "me/hex", "group": "me",
          "warmup": 1, "repeats": 3,
          "times_s": [...],
          "timing_s": {"min": ..., "median": ..., "p95": ..., "mean": ..., "total": ...},
          "memory": {"peak_bytes": ...},
          "work": {"frames": ..., "macroblocks": ..., ...},
          "throughput": {"frames_per_s": ..., "macroblocks_per_s": ..., ...},
        }, ...
      ]
    }

Everything except ``created``, the timing/memory figures and the
timing-derived ``throughput`` values is deterministic for a given
:class:`BenchScale` — the contract the determinism test pins.
"""

from __future__ import annotations

import platform
import time
from dataclasses import asdict
from typing import Any

from repro.bench.measure import measure
from repro.bench.registry import Benchmark, all_benchmarks
from repro.experiments.config import BenchScale

__all__ = ["host_fingerprint", "run_benchmark", "run_suite"]


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


def run_benchmark(bench: Benchmark, scale: BenchScale) -> dict[str, Any]:
    """Build, measure and serialize one benchmark."""
    case = bench.build(scale)
    measurement = measure(case.fn, warmup=scale.warmup, repeats=scale.repeats)
    entry: dict[str, Any] = {"name": bench.name, "group": bench.group}
    entry.update(measurement.to_json())
    entry["work"] = dict(case.work)
    median = measurement.median_s
    entry["throughput"] = {
        f"{key}_per_s": value / median for key, value in sorted(case.work.items()) if median > 0
    }
    return entry


def run_suite(
    *,
    scale: BenchScale | None = None,
    names: list[str] | None = None,
) -> dict[str, Any]:
    """Measure every registered benchmark and return the document.

    ``names`` optionally restricts the run to a subset of benchmark names
    (unknown names raise, so typos fail loudly).
    """
    scale = scale if scale is not None else BenchScale()
    benches = all_benchmarks()
    if names is not None:
        by_name = {b.name: b for b in benches}
        unknown = [n for n in names if n not in by_name]
        if unknown:
            raise ValueError(f"unknown benchmark names {unknown}; available: {sorted(by_name)}")
        benches = [by_name[n] for n in names]
    return {
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_fingerprint(),
        "config": asdict(scale),
        "benchmarks": [run_benchmark(b, scale) for b in benches],
    }
