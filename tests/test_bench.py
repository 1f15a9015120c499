"""Tests for the repro.bench harness: measurement, registry, runner
document shape, run reports, the CLI, and the determinism contract."""

import json

import pytest

from repro.bench import (
    all_benchmarks,
    measure,
    render_bench_json,
    render_bench_text,
    run_benchmark,
    run_report,
    run_suite,
)
from repro.bench.registry import benchmark
from repro.experiments.config import BenchScale

#: Scale small enough that every test below runs in seconds.
TINY = BenchScale(
    warmup=0,
    repeats=1,
    frame_width=128,
    frame_height=96,
    exhaustive_search_range=4,
    cluster_grid=(12, 16),
)

#: Cheap micro subset used by the determinism and CLI tests.
CHEAP = ["core/foreground_cluster", "core/ransac_rotation"]


class TestMeasure:
    def test_timing_and_memory(self):
        m = measure(lambda: bytearray(256 * 1024), warmup=1, repeats=3)
        assert m.repeats == 3
        assert len(m.times_s) == 3
        assert m.min_s <= m.median_s <= m.p95_s
        assert m.peak_bytes >= 256 * 1024

    def test_memory_pass_optional(self):
        m = measure(lambda: None, warmup=0, repeats=2, trace_memory=False)
        assert m.peak_bytes == 0

    def test_validates_counts(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            measure(lambda: None, warmup=-1)

    def test_to_json_shape(self):
        doc = measure(lambda: None, warmup=0, repeats=2).to_json()
        assert set(doc) == {"warmup", "repeats", "times_s", "timing_s", "memory"}
        assert set(doc["timing_s"]) == {"min", "median", "p95", "mean", "total"}


class TestRegistry:
    def test_builtin_set_is_complete(self):
        names = {b.name for b in all_benchmarks()}
        assert len(names) >= 8
        for expected in ("me/dia", "me/hex", "me/esa", "codec/dct_quant_roundtrip",
                         "core/foreground_cluster", "core/ransac_rotation", "world/render"):
            assert expected in names
        # End-to-end pipelines are the job of benchmarks/perf/run.py.
        assert not any(name.startswith("pipeline/") for name in names)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            benchmark("me/dia", group="me")(lambda scale: None)


class TestRunner:
    def test_micro_entry_schema(self):
        bench = next(b for b in all_benchmarks() if b.name == "core/ransac_rotation")
        entry = run_benchmark(bench, TINY)
        assert entry["name"] == "core/ransac_rotation"
        assert entry["timing_s"]["median"] > 0
        assert entry["memory"]["peak_bytes"] > 0
        assert entry["work"]["frames"] == 1.0
        assert entry["throughput"]["frames_per_s"] > 0
        assert entry["throughput"]["macroblocks_per_s"] > 0

    def test_document_shape_and_roundtrip(self):
        doc = run_suite(scale=TINY, names=CHEAP)
        assert doc["config"]["frame_width"] == TINY.frame_width
        assert {"python", "numpy", "scipy", "platform", "machine", "kernel_backend"} <= set(
            doc["host"]
        )
        assert [e["name"] for e in doc["benchmarks"]] == CHEAP
        # What `--format json` prints is the document; the round-trip turns
        # the config's tuples into lists, so compare in JSON space.
        assert json.loads(render_bench_json(doc)) == json.loads(json.dumps(doc))

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_suite(scale=TINY, names=["me/nope"])

    def test_render_text(self):
        doc = run_suite(scale=TINY, names=["core/foreground_cluster"])
        text = render_bench_text(doc)
        assert "core/foreground_cluster" in text
        assert text.startswith("python=")


class TestDeterminism:
    def test_two_runs_identical_up_to_timing(self):
        def strip(doc):
            out = {k: v for k, v in doc.items() if k not in ("created", "host")}
            out["benchmarks"] = [
                {k: v for k, v in e.items()
                 if k not in ("times_s", "timing_s", "memory", "throughput")}
                for e in doc["benchmarks"]
            ]
            return out

        a = run_suite(scale=TINY, names=CHEAP)
        b = run_suite(scale=TINY, names=CHEAP)
        assert strip(a) == strip(b)
        assert json.dumps(strip(a), sort_keys=True) == json.dumps(strip(b), sort_keys=True)


class TestRunReport:
    def _trace(self):
        from repro.obs import FrameTrace

        meta = {"scheme": "dive", "dataset": "nuscenes"}
        frames = [
            FrameTrace(index=i, spans={"me": 0.01 * (i + 1)}, counters={"bits": 100.0})
            for i in range(3)
        ]
        return meta, frames

    def _metrics(self, tmp_path):
        from repro.metrics import MetricsRegistry, read_metrics_jsonl, write_metrics_jsonl

        registry = MetricsRegistry()
        registry.counter("frames").inc(2.0, at=0.1)
        registry.histogram("lat", unit="s").observe(0.15, at=0.1)
        return read_metrics_jsonl(write_metrics_jsonl(tmp_path / "m.jsonl", registry))

    def test_joined_report(self, tmp_path):
        meta, frames = self._trace()
        text = run_report(meta, frames, metrics=self._metrics(tmp_path))
        assert "# Run report" in text
        assert "Traced per-stage latency" in text
        assert "scheme=dive" in text
        assert "Metric quantiles" in text and "Metric counters" in text

    def test_text_format_and_empty(self):
        meta, frames = self._trace()
        assert "=== Run report ===" in run_report(meta, frames, fmt="text")
        assert "nothing to report" in run_report(None, None)
        with pytest.raises(ValueError):
            run_report(fmt="html")


class TestCli:
    def test_bench_list(self, capsys):
        from repro.cli import main

        rc = main(["bench", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "world/render" in out
        assert "me/tesa" in out

    def test_report_cli_joins_trace_and_metrics(self, tmp_path, capsys):
        from repro.cli import main
        from repro.metrics import MetricsRegistry, write_metrics_jsonl
        from repro.obs import Tracer, write_jsonl

        tracer = Tracer(meta={"scheme": "dive"})
        with tracer.frame(0):
            with tracer.span("me"):
                pass
            tracer.gauge("bits", 10.0)
        trace_path = write_jsonl(tmp_path / "trace.jsonl", tracer)
        registry = MetricsRegistry()
        registry.counter("frames").inc(1.0, at=0.0)
        metrics_path = write_metrics_jsonl(tmp_path / "metrics.jsonl", registry)
        out_path = tmp_path / "report.md"
        rc = main([
            "report", "--trace", str(trace_path), "--metrics", str(metrics_path),
            "--out", str(out_path),
        ])
        assert rc == 0
        text = out_path.read_text()
        assert "# Run report" in text
        assert "Traced per-stage latency" in text
        assert "Metric counters" in text


class TestBenchmarksConftestFallback:
    def test_bench_once_defined_without_pytest_benchmark(self, tmp_path):
        """benchmarks/conftest.py must import cleanly when pytest-benchmark
        is absent and fall back to a plain call-once fixture."""
        import importlib.util
        import sys
        from pathlib import Path

        conftest = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"
        saved = {k: sys.modules.pop(k) for k in list(sys.modules) if k.startswith("pytest_benchmark")}
        sys.modules["pytest_benchmark"] = None  # force ImportError
        try:
            spec = importlib.util.spec_from_file_location("bench_conftest_fallback", conftest)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        finally:
            del sys.modules["pytest_benchmark"]
            sys.modules.update(saved)
        assert module._HAVE_PYTEST_BENCHMARK is False
        fixture_fn = module.bench_once.__wrapped__
        run = fixture_fn()
        assert run(lambda x: x + 1, 41) == 42
