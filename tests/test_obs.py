"""Tests for the observability layer: spans, JSONL round-trip, aggregation,
the no-overhead guarantee of the default no-op tracer, and the run report."""

import json
import time

import numpy as np
import pytest

from repro import kernels
from repro.codec.encoder import EncoderConfig, VideoEncoder
from repro.obs import (
    NULL_TRACER,
    FrameTrace,
    NullTracer,
    Tracer,
    counter_rows,
    read_jsonl,
    run_report,
    span_rows,
    summarize,
    write_jsonl,
)
from repro.obs.aggregate import StageStats

pytestmark = pytest.mark.kernels


def busy(seconds=0.001):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TestSpans:
    def test_span_records_elapsed(self):
        tr = Tracer()
        with tr.frame(0):
            with tr.span("work"):
                busy(0.002)
        assert len(tr.frames) == 1
        assert tr.frames[0].spans["work"] >= 0.002

    def test_nested_spans_use_slash_paths(self):
        tr = Tracer()
        with tr.frame(0):
            with tr.span("encode"):
                with tr.span("dct"):
                    busy(0.001)
                with tr.span("quant"):
                    busy(0.001)
        spans = tr.frames[0].spans
        assert set(spans) == {"encode", "encode/dct", "encode/quant"}
        # The outer span covers both inner ones.
        assert spans["encode"] >= spans["encode/dct"] + spans["encode/quant"]

    def test_repeated_span_accumulates(self):
        tr = Tracer()
        with tr.frame(0):
            for _ in range(3):
                with tr.span("step"):
                    busy(0.0005)
        assert tr.frames[0].spans["step"] >= 0.0015

    def test_frame_contexts_do_not_nest(self):
        tr = Tracer()
        with tr.frame(0):
            with pytest.raises(RuntimeError):
                with tr.frame(1):
                    pass

    def test_span_outside_frame_goes_to_orphan(self):
        tr = Tracer()
        with tr.span("setup"):
            busy(0.0005)
        assert not tr.frames
        assert "setup" in tr.orphan.spans
        assert list(tr.all_records())[-1].index == -1

    def test_counters_and_gauges(self):
        tr = Tracer()
        with tr.frame(7):
            tr.count("drops")
            tr.count("drops")
            tr.count("bits", 100.0)
            tr.gauge("qp", 30.0)
            tr.gauge("qp", 32.0)  # gauge overwrites
        c = tr.frames[0].counters
        assert c["drops"] == 2.0
        assert c["bits"] == 100.0
        assert c["qp"] == 32.0

    def test_frame_record_without_context_creates_closed_record(self):
        tr = Tracer()
        rec = tr.frame_record(4)
        rec.counters["bytes_sent"] = 123.0
        assert tr.frames[0].index == 4
        assert tr.frames[0].counters["bytes_sent"] == 123.0

    def test_frame_record_with_context_returns_active(self):
        tr = Tracer()
        with tr.frame(5):
            rec = tr.frame_record(5)
            rec.counters["x"] = 1.0
        assert len(tr.frames) == 1
        assert tr.frames[0].counters["x"] == 1.0


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        tr = Tracer(meta={"scheme": "DiVE", "bandwidth_mbps": 2.0})
        for i in range(3):
            with tr.frame(i):
                with tr.span("me"):
                    busy(0.0002)
                tr.gauge("bits", 1000.0 + i)
        path = write_jsonl(tmp_path / "trace.jsonl", tr)
        meta, frames = read_jsonl(path)
        assert meta == {"scheme": "DiVE", "bandwidth_mbps": 2.0}
        assert [f.index for f in frames] == [0, 1, 2]
        for orig, loaded in zip(tr.frames, frames):
            assert loaded.spans == pytest.approx(orig.spans)
            assert loaded.counters == orig.counters

    def test_file_is_one_json_object_per_line(self, tmp_path):
        tr = Tracer()
        with tr.frame(0):
            tr.gauge("bits", 1.0)
        path = write_jsonl(tmp_path / "t.jsonl", tr)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2  # header + one frame
        assert "meta" in json.loads(lines[0])
        assert json.loads(lines[1])["index"] == 0

    def test_orphan_exported_only_when_nonempty(self, tmp_path):
        tr = Tracer()
        with tr.frame(0):
            pass
        _, frames = read_jsonl(write_jsonl(tmp_path / "a.jsonl", tr))
        assert [f.index for f in frames] == [0]
        with tr.span("loose"):
            pass
        _, frames = read_jsonl(write_jsonl(tmp_path / "b.jsonl", tr))
        assert [f.index for f in frames] == [0, -1]


class TestMalformedTrace:
    """A trace file comes from outside the program: bad input is a
    ValueError naming the path, the 1-based line and what was expected."""

    def test_truncated_last_line(self, tmp_path):
        tr = Tracer()
        for i in range(3):
            with tr.frame(i):
                tr.gauge("bits", 1000.0 + i)
        whole = write_jsonl(tmp_path / "trace.jsonl", tr)
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(whole.read_bytes()[:-20])
        with pytest.raises(ValueError, match=r"cut\.jsonl:4: expected one JSON object per line"):
            read_jsonl(cut)

    def test_not_jsonl(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("frame 0 took 12 ms\n")
        with pytest.raises(ValueError, match=r"notes\.txt:1: expected one JSON object per line"):
            read_jsonl(path)
        path.write_text('{"meta": {}}\n[0, 1]\n')
        with pytest.raises(ValueError, match=r"notes\.txt:2: .* got a list"):
            read_jsonl(path)

    def test_record_without_index(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"meta": {}}\n\n{"name": "frames", "kind": "counter"}\n')
        with pytest.raises(ValueError, match=r"foreign\.jsonl:3: expected a frame record"):
            read_jsonl(path)


class TestAggregation:
    def test_summary_math(self):
        frames = [
            FrameTrace(index=i, spans={"me": float(i + 1)}, counters={"bits": 10.0 * (i + 1)})
            for i in range(4)
        ]  # me: 1,2,3,4 s; bits: 10,20,30,40
        s = summarize(frames)
        assert s.n_frames == 4
        me = s.spans["me"]
        assert me.count == 4
        assert me.mean == pytest.approx(2.5)
        assert me.p50 == pytest.approx(2.5)
        assert me.p95 == pytest.approx(np.percentile([1, 2, 3, 4], 95))
        assert me.p99 == np.percentile([1.0, 2.0, 3.0, 4.0], 99)
        assert me.total == pytest.approx(10.0)
        bits = s.counters["bits"]
        assert bits.mean == pytest.approx(25.0)
        assert bits.total == pytest.approx(100.0)

    def test_absent_stage_not_counted_as_zero(self):
        frames = [
            FrameTrace(index=0, spans={"mc": 1.0}),
            FrameTrace(index=1, spans={}),  # I-frame: no mc at all
        ]
        s = summarize(frames)
        assert s.spans["mc"].count == 1
        assert s.spans["mc"].mean == pytest.approx(1.0)

    def test_empty_trace_summarizes_to_empty_summary(self):
        s = summarize([])
        assert s.n_frames == 0
        assert s.spans == {}
        assert s.counters == {}
        assert span_rows(s) == []
        assert counter_rows(s) == []

    def test_zero_sample_stage_stats(self):
        s = StageStats.from_values([])
        assert s == StageStats(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, total=0.0)

    def test_rows_scaled_to_ms(self):
        frames = [FrameTrace(index=0, spans={"me": 0.25}, counters={"bits": 5.0})]
        s = summarize(frames)
        rows = span_rows(s)
        assert rows[0][0] == "me"
        assert rows[0][2] == pytest.approx(250.0)
        crows = counter_rows(s)
        assert crows[0][0] == "bits"
        assert crows[0][2] == pytest.approx(5.0)


class TestNullTracerOverhead:
    def _frames(self, n=6, shape=(64, 64), seed=0):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0, 255, size=shape).astype(np.float32)
        return [np.clip(base + rng.normal(0, 2, size=shape), 0, 255).astype(np.float32) for _ in range(n)]

    def _encode_loop(self, frames, tracer):
        enc = VideoEncoder(EncoderConfig(gop=4, search_range=4), tracer=tracer)
        for i, f in enumerate(frames):
            with tracer.frame(i):
                with tracer.span("pipeline"):
                    enc.encode(f, target_bits=20000.0)

    def test_null_tracer_is_shared_and_disabled(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.span("x") is NULL_TRACER.span("y") is NULL_TRACER.frame(0)

    def test_null_primitives_are_cheap(self):
        """100k no-op span/counter calls must cost well under a millisecond
        each — i.e. nothing on the scale of a single frame encode."""
        t0 = time.perf_counter()
        for _ in range(100_000):
            with NULL_TRACER.span("me"):
                pass
            NULL_TRACER.gauge("bits", 1.0)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5

    def test_null_tracer_encode_throughput(self):
        """A scheme run with tracing disabled (the default) must keep >95%
        of untraced throughput: the fully-instrumented encode loop under
        the no-op tracer may not be measurably slower than the bare loop."""
        frames = self._frames()

        def bare():
            enc = VideoEncoder(EncoderConfig(gop=4, search_range=4))
            for f in frames:
                enc.encode(f, target_bits=20000.0)

        def instrumented():
            self._encode_loop(frames, NULL_TRACER)

        bare()  # warm caches
        instrumented()
        for attempt in range(3):
            t_bare = min(self._time(bare) for _ in range(3))
            t_inst = min(self._time(instrumented) for _ in range(3))
            if t_inst <= t_bare / 0.95:
                break
        assert t_inst <= t_bare / 0.95, (
            f"no-op tracing cost {t_inst / t_bare - 1:.1%} "
            f"(bare {t_bare * 1e3:.1f} ms vs instrumented {t_inst * 1e3:.1f} ms)"
        )

    @staticmethod
    def _time(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    def test_live_tracer_records_encode_stages(self):
        frames = self._frames(n=3)
        traced = {}
        for name in kernels.BACKENDS:
            if kernels.backend(name).available():
                with kernels.use_backend(name):
                    traced[name] = Tracer()
                    self._encode_loop(frames, traced[name])
        tr = traced["numpy"]
        assert len(tr.frames) == 3
        # I-frame (gop=4, frame 0) has no me span; P-frames do.
        assert "pipeline/encode" in tr.frames[0].spans
        assert "pipeline/encode/me" not in tr.frames[0].spans
        assert "pipeline/encode/me" in tr.frames[1].spans
        for f in tr.frames:
            assert f.counters["bits"] > 0
            assert 0 <= f.counters["qp_mean"] <= 51
            assert f.counters["rate_probes"] >= 1
        # Every backend records the same span paths and the same gauges —
        # bits, QPs, probes — frame by frame.
        for other in traced.values():
            assert [sorted(f.spans) for f in other.frames] == [sorted(f.spans) for f in tr.frames]
            assert [f.counters for f in other.frames] == [f.counters for f in tr.frames]


class TestSchemeTracing:
    """Every scheme threads the tracer through its encoder and ME, and a
    traced run returns exactly what an untraced one does."""

    N_FRAMES = 3

    @pytest.mark.parametrize("scheme_key", ["dive", "dds", "eaar", "o3"])
    def test_traced_run_is_complete_and_unperturbed(self, scheme_key):
        from repro.experiments import ground_truth_for, run_scheme, scaled_bandwidth
        from repro.fleet import SCHEMES
        from repro.network import constant_trace
        from repro.world import nuscenes_like

        clip = nuscenes_like(0, n_frames=self.N_FRAMES, resolution=(320, 192)).preload()
        trace = constant_trace(scaled_bandwidth(2.0, clip))
        truth = ground_truth_for(clip)

        def outcome(**kwargs):
            run = run_scheme(SCHEMES[scheme_key](), clip, trace, ground_truth=truth, **kwargs).run
            return [(f.index, f.bytes_sent, f.source, len(f.detections), f.response_time) for f in run.frames]

        tracer = Tracer()
        assert outcome(tracer=tracer) == outcome()
        summary = summarize(tracer.frames)
        # On a link that drops nothing, DDS's one motion search is its encoder's.
        assert {"encode/me" if scheme_key == "dds" else "me", "encode"} <= set(summary.spans)
        if scheme_key == "dive":
            # Frame 0 has no reference frame, so ME fires on n-1 frames.
            for stage in ("me", "foreground", "qp_map"):
                assert 1 <= summary.spans[stage].count <= self.N_FRAMES, stage
            assert summary.spans["encode"].count == self.N_FRAMES
            assert summary.counters["bits"].total > 0


class TestRunReport:
    def _trace(self):
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
