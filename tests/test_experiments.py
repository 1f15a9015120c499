"""Tests for the per-figure experiment entry points (small configurations).

These validate that every harness runs end-to-end, returns the structure
the benchmarks print, and — where cheap enough — that the paper's headline
*shape* holds even at test scale.
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    collect_fields,
    format_table,
    run_fig06,
    run_fig07,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig16_17,
    run_table1,
    scaled_bandwidth,
)
from conftest import run_streamed
from repro.experiments.config import dataset_clips
from repro.world import nuscenes_like

TINY = ExperimentConfig(n_clips=1, n_frames=10)


class TestConfig:
    def test_dataset_clips(self):
        clips = dataset_clips("nuscenes", TINY)
        assert len(clips) == 1
        assert clips[0].n_frames == 10

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            dataset_clips("waymo", TINY)

    def test_scaled_bandwidth_monotone(self):
        clip = nuscenes_like(0, n_frames=2)
        assert scaled_bandwidth(2.0, clip) == 2 * scaled_bandwidth(1.0, clip)


class TestTable1:
    def test_rows(self):
        rows = run_table1(TINY)
        assert {r.dataset for r in rows} == {"nuscenes", "robotcar"}
        for r in rows:
            assert r.frames == 10
            assert r.cars >= 0 and r.pedestrians >= 0

    def test_traffic_mix_shape(self):
        """nuScenes is car-heavy; RobotCar is pedestrian-heavy (Table I)."""
        cfg = ExperimentConfig(n_clips=2, n_frames=10)
        rows = {r.dataset: r for r in run_table1(cfg)}
        nus, rob = rows["nuscenes"], rows["robotcar"]
        assert nus.cars_per_frame > nus.pedestrians_per_frame
        assert rob.pedestrians_per_frame > rob.cars_per_frame


class TestFig06:
    def test_separation(self):
        cfg = ExperimentConfig(n_clips=1, n_frames=48)
        study = run_fig06(cfg)
        assert study.accuracy > 0.9
        assert np.median(study.eta_moving) > study.threshold
        assert np.median(study.eta_stopped) < study.threshold

    def test_cdf_monotone(self):
        cfg = ExperimentConfig(n_clips=1, n_frames=48)
        study = run_fig06(cfg)
        xs, ys = study.cdf("moving")
        assert (np.diff(ys) >= 0).all()
        assert ys[-1] == pytest.approx(1.0)

    def test_series_present(self):
        cfg = ExperimentConfig(n_clips=1, n_frames=48)
        study = run_fig06(cfg)
        times, etas, moving = study.series
        assert len(times) == len(etas) == len(moving)

    def test_clips_too_short_for_a_stop_are_refused_before_rendering(self):
        from repro.experiments.fig06 import MIN_FRAMES

        with pytest.raises(ValueError, match=f"at least {MIN_FRAMES} frames"):
            run_fig06(ExperimentConfig(n_clips=1, n_frames=MIN_FRAMES - 1))


class TestFig07And10:
    @pytest.fixture(scope="class")
    def data(self):
        return collect_fields(ExperimentConfig(n_clips=1, n_frames=16))

    def test_fig07_strategies(self, data):
        study = run_fig07(data=data)
        assert set(study.errors_y) == {"r30", "rand30", "rand500"}
        for errs in study.errors_y.values():
            assert (errs >= 0).all()
        assert study.series is not None

    def test_fig07_r_sampling_reasonable(self, data):
        study = run_fig07(data=data)
        # Estimated yaw speed tracks ground truth within a coarse bound.
        assert np.median(study.errors_y["r30"]) < 0.05  # rad/s

    def test_fig10_structure(self, data):
        sweep = run_fig10(ks=[10, 40], data=data)
        assert sweep.ks == [10, 40]
        assert len(sweep.errors) == 2
        assert all(t > 0 for t in sweep.times)


class TestFig09:
    def test_structure_and_time_order(self):
        cfg = ExperimentConfig(n_clips=1, n_frames=8)
        rows = run_fig09(cfg, methods=("dia", "hex"), datasets=("nuscenes",))
        by_method = {r.method: r for r in rows}
        assert set(by_method) == {"dia", "hex"}
        for r in rows:
            assert 0 <= r.map <= 1
            assert r.me_time_per_frame > 0


class TestFig11:
    def test_structure(self):
        rows = run_fig11(TINY, deltas=(5.0, None), bandwidths=(2.0,), datasets=("nuscenes",))
        labels = {r.delta for r in rows}
        assert labels == {"5", "adaptive"}
        for r in rows:
            assert 0 <= r.map <= 1


class TestFig12:
    def test_ap_decreases_with_background_qp(self):
        cfg = ExperimentConfig(n_clips=1, n_frames=8)
        rows = run_fig12(cfg, background_qps=(4.0, 44.0), datasets=("nuscenes",))
        by_qp = {r.background_qp: r for r in rows}
        assert by_qp[4.0].ap_car >= by_qp[44.0].ap_car - 1e-9


class TestFig13:
    def test_structure(self):
        cfg = ExperimentConfig(n_clips=1, n_frames=12)
        rows = run_fig13(cfg, intervals=(2.0,), datasets=("nuscenes",))
        assert len(rows) == 2  # MOT on/off
        assert {r.mot_enabled for r in rows} == {True, False}


class TestFig14:
    def test_structure(self):
        cfg = ExperimentConfig(n_clips=1, n_frames=48)
        rows = run_fig14(cfg, datasets=("nuscenes",))
        states = {r.state for r in rows}
        assert "straight" in states
        for r in rows:
            assert 0 <= r.ap_car <= 1


class TestFig16:
    def test_dive_vs_one_baseline(self):
        from repro.baselines import O3Scheme
        from repro.core import DiVEScheme

        cfg = ExperimentConfig(n_clips=1, n_frames=10)
        rows = run_fig16_17(
            cfg, bandwidths=(3.0,), datasets=("nuscenes",), scheme_factories=(DiVEScheme, O3Scheme)
        )
        by_scheme = {r.scheme: r for r in rows}
        assert by_scheme["DiVE"].map > by_scheme["O3"].map


class TestGroundTruthAtCapture:
    """``run_scheme`` scores ground truth on the frames the run fetches
    (``truth_clip``), so an un-preloaded clip is rendered exactly once."""

    N = 6

    @staticmethod
    def _run(stream, *args, **kwargs):
        """``run_scheme``, or with ``stream`` the same run through a relaxed
        ``StreamRunner``."""
        from repro.experiments import run_scheme

        return run_scheme(*args, **kwargs) if stream is None else run_streamed(*args, **kwargs)[0]

    def _inputs(self):
        from repro.network import constant_trace

        clip = nuscenes_like(3, n_frames=self.N, resolution=(192, 96))
        return clip, constant_trace(scaled_bandwidth(2.0, clip))

    @pytest.mark.parametrize("scheme", ["dive", "dds", "eaar", "o3"])
    @pytest.mark.parametrize("stream", [None, True])
    def test_renders_each_frame_once(self, render_calls, scheme, stream):
        from repro.experiments import ground_truth_for
        from repro.fleet import SCHEMES

        clip, trace = self._inputs()
        result = self._run(stream, SCHEMES[scheme](), clip, trace)
        assert sorted(render_calls) == list(range(self.N))
        reference = self._run(
            stream, SCHEMES[scheme](), clip, trace, ground_truth=ground_truth_for(self._inputs()[0]))
        assert result.ap == reference.ap

    def test_collected_truth_and_map_match_the_two_pass_values(self):
        from repro.core import DiVEScheme
        from repro.experiments import ground_truth_for, truth_clip

        clip, trace = self._inputs()
        scored = truth_clip(clip)
        DiVEScheme().run(scored, trace, _server())
        assert scored.scores() == ground_truth_for(self._inputs()[0])
        # mAP of this run at the commit before truth moved to capture.
        for stream in (None, True):
            fresh, _ = self._inputs()
            assert self._run(stream, DiVEScheme(), fresh, trace).map == 0.41666666666666663

    def test_passed_ground_truth_bypasses_the_facade(self, render_calls):
        from repro.core import DiVEScheme
        from repro.experiments import ground_truth_for, run_scheme
        from repro.world import ScoredClip

        class Spy(DiVEScheme):
            def run(self, clip, trace, server):
                self.clip = clip
                return super().run(clip, trace, server)

        clip, trace = self._inputs()
        clip.preload()
        truth = ground_truth_for(clip)
        del render_calls[:]
        spy = Spy()
        run_scheme(spy, clip, trace, ground_truth=truth)
        assert spy.clip is clip
        assert render_calls == []
        run_scheme(spy, clip, trace)
        assert isinstance(spy.clip, ScoredClip)
        assert render_calls == []

    def test_scored_clip_keeps_scores_not_records(self):
        from repro.world import FrameRecord, ScoredClip

        clip, _ = self._inputs()
        scored = ScoredClip(clip, lambda record: record.index * 10)
        assert isinstance(scored.render_at(2), FrameRecord)
        assert scored.scores() == [0, 10, 20, 30, 40, 50]
        assert scored.name == clip.name and scored.n_frames == self.N
        assert not any(isinstance(v, FrameRecord) for v in vars(scored).values())
        assert not any(isinstance(v, FrameRecord) for v in scored._scores.values())

    @pytest.mark.timeout(60)
    def test_scored_clip_under_racing_fetchers(self):
        """More fetchers than cores on one facade, with a short switch
        interval: every index ends up with exactly its own score."""
        import sys
        import threading

        from repro.world import ScoredClip

        clip, _ = self._inputs()
        clip.preload()
        scored = ScoredClip(clip, lambda record: [record.index] * 3)
        start = threading.Barrier(8)

        def fetch(k):
            start.wait(timeout=30)
            for i in range(200):
                index = (i * (k + 1)) % self.N
                (scored.frame, scored.render_at)[i % 2](index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fetch, args=(k,)) for k in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert scored.scores() == [[i] * 3 for i in range(self.N)]


def _server():
    from repro.edge import EdgeServer, QualityAwareDetector

    return EdgeServer(QualityAwareDetector(seed=7))


class TestReporting:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.0], ["x", 3.14159]], title="T")
        assert "T" in out
        assert "3.142" in out
        assert out.count("\n") == 4

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out


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
