"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("demo", "table1", "fig06", "fig07", "fig09", "fig10", "fig11",
                    "fig12", "fig13", "fig14", "fig16", "fig17", "ablation", "scalability"):
            args = parser.parse_args([cmd, "--clips", "1", "--frames", "8"])
            assert args.command == cmd
            assert args.clips == 1
            assert args.frames == 8

    def test_demo_options(self):
        args = build_parser().parse_args(["demo", "--dataset", "robotcar", "--bandwidth", "3.5"])
        assert args.dataset == "robotcar"
        assert args.bandwidth == 3.5

    def test_fig06_defaults_to_clips_that_fit_a_stop(self):
        from repro.experiments.fig06 import MIN_FRAMES

        assert build_parser().parse_args(["fig06"]).frames == 60 >= MIN_FRAMES
        assert build_parser().parse_args(["fig07"]).frames == 24

    def test_fig16_vs_17_dataset(self):
        assert build_parser().parse_args(["fig16"]).figure == 16
        assert build_parser().parse_args(["fig17"]).figure == 17

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["demo", "--frames", "0"], "--frames"),
            (["demo", "--bandwidth", "-1"], "--bandwidth"),
            (["table1", "--clips", "0"], "--clips"),
            (["top", "--once", "--frames", "0"], "--frames"),
            (["top", "--once", "--bandwidth", "-1"], "--bandwidth"),
        ],
        ids=["demo-frames", "demo-bandwidth", "table1-clips", "top-frames", "top-bandwidth"],
    )
    def test_out_of_range_input_is_a_usage_error(self, capsys, argv, flag):
        """A count below one or a negative bandwidth exits 2 with argparse's
        usage line before anything runs — no score, no traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: repro ")
        assert f"error: argument {flag}: expected a " in captured.err

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_top_deadline_out_of_range_is_an_error_line(self, capsys, value):
        """``StreamConfig.validate`` refuses the deadline before the run
        starts: one ``error:`` line and exit 2, as ``repro fleet`` does."""
        assert main(["top", "--once", "--frames", "4", "--deadline", value]) == 2
        assert capsys.readouterr().err == f"error: deadline must be positive or None, got {float(value)}\n"


class TestMain:
    def test_demo_runs(self, capsys):
        # Tiny demo: 1 clip, few frames at reduced effort via frames flag.
        rc = main(["demo", "--frames", "6", "--clips", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        # The header names the kernel backend `auto` resolved to.
        header = out.splitlines()[0]
        assert header == "kernel backend: cext" or header.startswith(
            "kernel backend: numpy (cext unavailable: "
        )
        assert "mAP" in out
        assert "response time" in out

    def test_demo_scores_with_the_detector_seed(self, capsys):
        """``--detector-seed`` reaches the run and its ground truth: the
        printed mAP is ``run_scheme(..., detector_seed=3)``'s, not seed 7's."""
        from repro.core import DiVEScheme
        from repro.experiments import run_scheme, scaled_bandwidth
        from repro.network import constant_trace
        from repro.world import nuscenes_like

        clip = nuscenes_like(0, n_frames=6)
        trace = constant_trace(scaled_bandwidth(2.0, clip))
        maps = {seed: run_scheme(DiVEScheme(), clip, trace, detector_seed=seed).map for seed in (3, 7)}
        assert f"{maps[3]:.3f}" != f"{maps[7]:.3f}"
        assert main(["demo", "--frames", "6", "--detector-seed", "3"]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("mAP "))
        assert row.split()[1] == f"{maps[3]:.3f}"

    def test_analyze_runs_with_the_detector_seed(self, capsys, monkeypatch):
        import repro.cli

        seen = []
        original = repro.cli.run_scheme

        def spy(*args, **kwargs):
            seen.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(repro.cli, "run_scheme", spy)
        assert main(["analyze", "--frames", "6", "--detector-seed", "3"]) == 0
        assert [kwargs.get("detector_seed") for kwargs in seen] == [3]
        assert "ground_truth" not in seen[0]
        assert "end-to-end: mAP=" in capsys.readouterr().out

    def test_analyze_renders_each_frame_once_per_pass(self, capsys, render_calls):
        """The foreground report walks the clip once and the run once; the
        run scores its ground truth on the frames it fetches."""
        assert main(["analyze", "--frames", "8"]) == 0
        assert sorted(render_calls) == sorted(list(range(8)) * 2)

    def test_fig06_too_short_for_a_stop_is_one_error_line(self, capsys):
        from repro.experiments.fig06 import MIN_FRAMES

        assert main(["fig06", "--clips", "1", "--frames", str(MIN_FRAMES - 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: Fig 6 needs --frames {MIN_FRAMES} or more for its clips to fit a stop, got {MIN_FRAMES - 1}\n"
        )

    def test_fig06_at_the_minimum_prints_the_figure(self, capsys):
        from repro.experiments.fig06 import MIN_FRAMES

        assert main(["fig06", "--clips", "1", "--frames", str(MIN_FRAMES)]) == 0
        assert "judgement accuracy" in capsys.readouterr().out

    def test_table1_runs(self, capsys):
        rc = main(["table1", "--clips", "1", "--frames", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "nuscenes" in out and "robotcar" in out

    def test_trace_writes_jsonl_and_prints_summary(self, capsys, tmp_path):
        from repro.obs import read_jsonl

        out_path = tmp_path / "trace.jsonl"
        rc = main(["trace", "--clips", "1", "--frames", "6", "--output", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "per-stage wall-clock latency" in out
        assert "me" in out and "encode" in out and "bits" in out
        meta, frames = read_jsonl(out_path)
        assert meta["scheme"] == "dive"
        assert len(frames) == 6
        assert all("bits" in f.counters for f in frames)

    @pytest.mark.timeout(180)
    def test_top_once_writes_metrics_and_flight_jsonl(self, capsys, tmp_path):
        from repro.metrics import read_metrics_jsonl

        metrics_path = tmp_path / "metrics.jsonl"
        flight_path = tmp_path / "flight.jsonl"
        rc = main([
            "top", "--once", "--frames", "8",
            "--metrics-out", str(metrics_path),
            "--flight-out", str(flight_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro top" in out and "series" in out
        assert "stream_frames_captured" in out
        assert "metrics digest" in out
        doc = read_metrics_jsonl(metrics_path)
        assert doc.window == 0.25
        assert any(r["name"] == "stream_frames_captured" for r in doc.rows)
        assert flight_path.exists()

    @pytest.mark.timeout(180)
    def test_report_metrics_section(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.jsonl"
        rc = main(["top", "--once", "--frames", "8", "--metrics-out", str(metrics_path)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["report", "--metrics", str(metrics_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Metric quantiles" in out
        assert "Metric counters" in out
        assert "stream_response_seconds" in out
        # A cut-short artefact is a named error on stderr, exit 2 — not a
        # decoder traceback.
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(metrics_path.read_bytes()[:-20])
        n_lines = len(metrics_path.read_text().splitlines())
        rc = main(["report", "--metrics", str(cut)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"cut.jsonl:{n_lines}: expected one JSON object per line" in captured.err
        assert main(["report", "--trace", str(tmp_path / "absent.jsonl")]) == 2
        assert "absent.jsonl" in capsys.readouterr().err

    @pytest.mark.timeout(180)
    def test_top_and_report_print_the_same_percentiles(self, capsys, tmp_path):
        """Both commands print np.percentile over a series' pooled samples."""
        import json

        import numpy as np

        from repro.metrics.top import _fmt

        metrics_path = tmp_path / "metrics.jsonl"
        assert main(["top", "--once", "--frames", "8", "--metrics-out", str(metrics_path)]) == 0
        top_out = capsys.readouterr().out
        assert main(["report", "--metrics", str(metrics_path)]) == 0
        report_out = capsys.readouterr().out
        rows = [json.loads(line) for line in metrics_path.read_text().splitlines()[1:]]
        for name in ("stream_response_seconds", "stream_queue_wait_seconds", "edge_detections"):
            pooled = [v for r in rows if r.get("name") == name for v in r["values"]]
            want = [float(np.percentile(pooled, q)) for q in (50, 95, 99)]
            (top_line,) = [ln for ln in top_out.splitlines() if ln.startswith(name + " ")]
            assert top_line.endswith(
                f"p50={_fmt(want[0])}  p95={_fmt(want[1])}  p99={_fmt(want[2])}")
            (report_line,) = [ln for ln in report_out.splitlines() if ln.startswith(f"| {name} |")]
            cells = [c.strip() for c in report_line.strip("|").split("|")]
            assert cells[1] == str(len(pooled))
            assert cells[3:6] == [f"{w:.4g}" for w in want]

    def test_report_cli_joins_trace_and_metrics(self, tmp_path, capsys):
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
