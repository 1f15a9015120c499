"""Tests for the repro.bench harness: measurement, registry, runner
document schema, comparator classification, run reports, the CLI, and the
determinism contract."""

import json

import pytest

from repro.bench import (
    DEFAULT_TOLERANCES,
    SCHEMA_VERSION,
    SchemaMismatchError,
    all_benchmarks,
    compare_docs,
    load_doc,
    measure,
    render_bench_text,
    render_comparison,
    run_benchmark,
    run_report,
    run_suite,
    write_doc,
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

    def test_document_shape_and_roundtrip(self, tmp_path):
        doc = run_suite(scale=TINY, names=CHEAP)
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["config"]["frame_width"] == TINY.frame_width
        assert {"python", "numpy", "scipy", "platform", "machine", "kernel_backend"} <= set(
            doc["host"]
        )
        assert [e["name"] for e in doc["benchmarks"]] == CHEAP
        path = write_doc(doc, tmp_path / "BENCH_t.json")
        # JSON round-trip turns the config's tuples into lists; compare in
        # JSON space.
        assert load_doc(path) == json.loads(json.dumps(doc))

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_suite(scale=TINY, names=["me/nope"])

    def test_load_doc_rejects_non_bench_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{}")
        with pytest.raises(ValueError):
            load_doc(p)

    def test_render_text(self):
        doc = run_suite(scale=TINY, names=["core/foreground_cluster"])
        text = render_bench_text(doc)
        assert "core/foreground_cluster" in text
        assert f"schema=v{SCHEMA_VERSION}" in text


def _doc(benchmarks):
    return {"schema": SCHEMA_VERSION, "benchmarks": benchmarks}


def _entry(name, median=1.0, peak=1000, fps=10.0):
    return {
        "name": name,
        "timing_s": {"min": median * 0.9, "median": median, "p95": median * 1.1},
        "memory": {"peak_bytes": peak},
        "throughput": {"frames_per_s": fps},
    }


class TestComparator:
    def test_unchanged_within_tolerance(self):
        cmp = compare_docs(_doc([_entry("a")]), _doc([_entry("a", median=1.2, fps=12.0)]))
        assert cmp.ok
        assert {d.status for d in cmp.deltas} == {"unchanged"}

    def test_time_regression_detected(self):
        cmp = compare_docs(_doc([_entry("a")]), _doc([_entry("a", median=2.0)]))
        assert not cmp.ok
        regressed = {d.metric for d in cmp.regressed}
        assert "time_median_s" in regressed

    def test_throughput_direction_flipped(self):
        # Throughput *dropping* is the regression; timings here are unchanged.
        cmp = compare_docs(_doc([_entry("a")]), _doc([_entry("a", fps=2.0)]))
        assert [d.metric for d in cmp.regressed] == ["frames_per_s"]
        cmp = compare_docs(_doc([_entry("a")]), _doc([_entry("a", fps=50.0)]))
        assert [d.metric for d in cmp.improved] == ["frames_per_s"]

    def test_memory_tolerance_tighter(self):
        grown = _entry("a", peak=int(1000 * (1 + DEFAULT_TOLERANCES["memory"] + 0.05)))
        cmp = compare_docs(_doc([_entry("a")]), _doc([grown]))
        assert [d.metric for d in cmp.regressed] == ["mem_peak_bytes"]

    def test_improvement_detected(self):
        cmp = compare_docs(_doc([_entry("a")]), _doc([_entry("a", median=0.5)]))
        assert cmp.ok
        assert {d.metric for d in cmp.improved} >= {"time_median_s"}

    def test_missing_benchmark_fails(self):
        cmp = compare_docs(_doc([_entry("a"), _entry("b")]), _doc([_entry("a")]))
        assert not cmp.ok
        assert [(d.benchmark, d.status) for d in cmp.missing] == [("b", "missing")]

    def test_missing_metric_fails_added_does_not(self):
        base = _entry("a")
        cur = _entry("a")
        del cur["throughput"]["frames_per_s"]
        cur["throughput"]["macroblocks_per_s"] = 5.0
        cmp = compare_docs(_doc([base]), _doc([cur]))
        assert [d.metric for d in cmp.missing] == ["frames_per_s"]
        assert [d.metric for d in cmp.by_status("added")] == ["macroblocks_per_s"]
        assert not cmp.ok

    def test_schema_mismatch_raises(self):
        with pytest.raises(SchemaMismatchError):
            compare_docs({"schema": 0, "benchmarks": []}, _doc([]))

    def test_custom_tolerance(self):
        cmp = compare_docs(
            _doc([_entry("a")]), _doc([_entry("a", median=1.2, fps=12.0)]), tolerances={"time": 0.05}
        )
        assert "time_median_s" in {d.metric for d in cmp.regressed}

    def test_render_names_regressed_metrics(self):
        cmp = compare_docs(_doc([_entry("a")]), _doc([_entry("a", median=2.0)]))
        text = render_comparison(cmp)
        assert "REGRESSED:" in text
        assert "a:time_median_s" in text


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

    def test_joined_report(self):
        doc = _doc([_entry("me/hex")])
        meta, frames = self._trace()
        text = run_report(doc, meta, frames)
        assert "# Run report" in text
        assert "me/hex" in text
        assert "Traced per-stage latency" in text
        assert "scheme=dive" in text

    def test_text_format_and_empty(self):
        meta, frames = self._trace()
        assert "=== Run report ===" in run_report(None, meta, frames, fmt="text")
        assert "nothing to report" in run_report(None, None, None)
        with pytest.raises(ValueError):
            run_report(None, fmt="html")


class TestCli:
    def _write_docs(self, tmp_path, perturb=1.0):
        base = run_suite(scale=TINY, names=CHEAP)
        cur = json.loads(json.dumps(base))
        for e in cur["benchmarks"]:
            for key in e["timing_s"]:
                e["timing_s"][key] *= perturb
        base_path = tmp_path / "BENCH_base.json"
        cur_path = tmp_path / "BENCH_cur.json"
        write_doc(base, base_path)
        write_doc(cur, cur_path)
        return base_path, cur_path

    def test_compare_clean_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        base, cur = self._write_docs(tmp_path, perturb=1.0)
        rc = main(["bench", "--load", str(cur), "--compare", str(base), "--fail-on-regress"])
        assert rc == 0

    def test_compare_regression_exits_nonzero_and_names_metrics(self, tmp_path, capsys):
        from repro.cli import main

        base, cur = self._write_docs(tmp_path, perturb=10.0)
        rc = main(["bench", "--load", str(cur), "--compare", str(base), "--fail-on-regress"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "REGRESSED:" in out
        assert "core/foreground_cluster:time_median_s" in out

    def test_compare_without_gate_reports_only(self, tmp_path, capsys):
        from repro.cli import main

        base, cur = self._write_docs(tmp_path, perturb=10.0)
        rc = main(["bench", "--load", str(cur), "--compare", str(base)])
        assert rc == 0
        assert "regressed" in capsys.readouterr().out

    def test_schema_mismatch_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        base, cur = self._write_docs(tmp_path)
        doc = load_doc(base)
        doc["schema"] = 99
        write_doc(doc, base)
        rc = main(["bench", "--load", str(cur), "--compare", str(base)])
        assert rc == 2
        assert "schema mismatch" in capsys.readouterr().err

    def test_bench_list(self, capsys):
        from repro.cli import main

        rc = main(["bench", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "world/render" in out
        assert "me/tesa" in out

    def test_report_cli_joins_bench_and_trace(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import Tracer, write_jsonl

        base, _ = self._write_docs(tmp_path)
        tracer = Tracer(meta={"scheme": "dive"})
        with tracer.frame(0):
            with tracer.span("me"):
                pass
            tracer.gauge("bits", 10.0)
        trace_path = write_jsonl(tmp_path / "trace.jsonl", tracer)
        out_path = tmp_path / "report.md"
        rc = main([
            "report", "--bench", str(base), "--trace", str(trace_path), "--out", str(out_path)
        ])
        assert rc == 0
        text = out_path.read_text()
        assert "# Run report" in text
        assert "core/ransac_rotation" in text
        assert "Traced per-stage latency" in text


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
