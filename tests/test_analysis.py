"""Tests for the analysis subpackage."""

import numpy as np
import pytest

from repro.analysis import (
    foreground_quality,
    render_series,
    response_time_series,
    sparkline,
)
from repro.baselines.base import FrameResult, SchemeRun
from repro.world import nuscenes_like


class TestResponseSeries:
    def test_series(self):
        frames = [
            FrameResult(index=i, capture_time=i / 10, detections=[], response_time=0.05 * (i + 1), source="edge")
            for i in range(3)
        ]
        run = SchemeRun(scheme="x", clip_name="c", frames=frames)
        t, r, s = response_time_series(run)
        assert list(t) == [0.0, 0.1, 0.2]
        assert r[2] == pytest.approx(0.15)
        assert s == ["edge", "edge", "edge"]


class TestSparkline:
    def test_basic(self):
        s = sparkline([0, 1, 2, 3])
        assert len(s) == 4
        assert s[0] == "▁" and s[-1] == "█"

    def test_constant(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_gaps_for_nan(self):
        assert sparkline([0.0, float("nan"), 1.0])[1] == " "

    def test_empty(self):
        assert sparkline([]) == ""

    def test_pinned_scale(self):
        s = sparkline([0.5], lo=0.0, hi=1.0)
        assert s in "▃▄▅"

    def test_render_series_downsamples(self):
        row = render_series("metric", np.linspace(0, 1, 500), width=20)
        assert "metric" in row
        # Range endpoints are bin means, so slightly inside [0, 1].
        label_part, range_part = row.rsplit("  ", 1)
        lo, hi = (float(v) for v in range_part.split(".."))
        assert 0.0 <= lo < 0.1 and 0.9 < hi <= 1.0
        # The sparkline itself is width-limited.
        assert len(label_part.split(" ")[-1]) <= 20

    def test_render_series_all_nan(self):
        row = render_series("x", [float("nan")] * 3)
        assert "n/a" in row


class TestForegroundQuality:
    def test_report_on_clip(self):
        clip = nuscenes_like(0, n_frames=8, resolution=(320, 192))
        report = foreground_quality(clip, max_frames=8)
        assert 0.0 <= report.mean_object_coverage <= 1.0
        assert 0.0 <= report.full_coverage_rate <= 1.0
        assert 0.0 <= report.mean_foreground_fraction <= 1.0
        assert 0.0 <= report.mask_precision <= 1.0
        assert len(report.per_frame_coverage) >= 1

    def test_max_frames_respected(self):
        clip = nuscenes_like(1, n_frames=12, resolution=(320, 192))
        report = foreground_quality(clip, max_frames=4)
        assert len(report.per_frame_coverage) <= 3  # first frame has no MVs
