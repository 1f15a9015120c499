"""Deterministic perf/memory benchmark harness (``repro bench``).

A registry of micro benchmarks, one per hot path (ME search per method,
motion compensation, DCT+quant round trip, rate control, the I-frame
wavefront, a rendered frame, foreground clustering, RANSAC rotation fit,
telemetry recording, the linter), measured with warmup/repeat wall-clock
(:func:`~repro.bench.measure.measure`) and tracemalloc peak memory,
serialised to schema-versioned JSON documents, and compared across runs
with noise-tolerant regression classification
(:func:`~repro.bench.compare.compare_docs`).  End-to-end speed of the
batch, stream and fleet drivers is the job of ``benchmarks/perf/run.py``.

CLI: ``repro bench [--only NAME] [--out PATH] [--compare BASELINE
--fail-on-regress] [--compare-backends] [--format text|json]`` and
``repro report --bench BENCH.json --trace trace.jsonl``.  See the
"Benchmarking & regression tracking" sections of README.md / API.md.
"""

from repro.bench.compare import (
    DEFAULT_TOLERANCES,
    Comparison,
    MetricDelta,
    SchemaMismatchError,
    compare_docs,
    render_comparison,
)
from repro.bench.measure import Measurement, measure
from repro.bench.registry import BenchCase, Benchmark, all_benchmarks, benchmark
from repro.bench.report import render_bench_json, render_bench_text, run_report
from repro.bench.runner import (
    SCHEMA_VERSION,
    host_fingerprint,
    load_doc,
    run_benchmark,
    run_suite,
    write_doc,
)

__all__ = [
    "BenchCase",
    "Benchmark",
    "Comparison",
    "DEFAULT_TOLERANCES",
    "Measurement",
    "MetricDelta",
    "SCHEMA_VERSION",
    "SchemaMismatchError",
    "all_benchmarks",
    "benchmark",
    "compare_docs",
    "host_fingerprint",
    "load_doc",
    "measure",
    "render_bench_json",
    "render_bench_text",
    "render_comparison",
    "run_benchmark",
    "run_report",
    "run_suite",
    "write_doc",
]
