"""Deterministic perf/memory benchmark harness (``repro bench``).

A registry of micro benchmarks, one per hot path (ME search per method,
motion compensation, DCT+quant round trip, rate control, the I-frame
wavefront, a rendered frame, foreground clustering, RANSAC rotation fit,
telemetry recording), measured with warmup/repeat wall-clock
(:func:`~repro.bench.measure.measure`) and tracemalloc peak memory, and
printed as one table (or one JSON document).  End-to-end speed of the
batch, stream and fleet drivers — and every regression verdict — is the
job of ``benchmarks/perf/run.py`` and its ``--compare``.

CLI: ``repro bench [--only NAME] [--list] [--compare-backends]
[--format text|json]`` and ``repro report --trace trace.jsonl --metrics
metrics.jsonl``.  See the "Benchmarking" sections of README.md / API.md.
"""

from repro.bench.measure import Measurement, measure
from repro.bench.registry import BenchCase, Benchmark, all_benchmarks, benchmark
from repro.bench.report import render_bench_json, render_bench_text, run_report
from repro.bench.runner import host_fingerprint, run_benchmark, run_suite

__all__ = [
    "BenchCase",
    "Benchmark",
    "Measurement",
    "all_benchmarks",
    "benchmark",
    "host_fingerprint",
    "measure",
    "render_bench_json",
    "render_bench_text",
    "run_benchmark",
    "run_report",
    "run_suite",
]
