"""Integration tests: the four analytics schemes end-to-end on small clips."""

import numpy as np
import pytest

from repro.baselines import DDSScheme, EAARScheme, O3Scheme
from repro.baselines.base import PendingResults
from repro.core import DiVEConfig, DiVEScheme
from repro.experiments import ground_truth_for, run_scheme, scaled_bandwidth
from repro.network import BandwidthTrace, constant_trace, with_outages
from repro.world import nuscenes_like

RES = (320, 192)  # small resolution keeps these integration tests quick
N_FRAMES = 10


@pytest.fixture(scope="module")
def clip():
    return nuscenes_like(1, n_frames=N_FRAMES, resolution=RES, with_stop=False)


@pytest.fixture(scope="module")
def gt(clip):
    return ground_truth_for(clip, detector_seed=3)


def good_trace(clip):
    return constant_trace(scaled_bandwidth(4.0, clip))


ALL_SCHEMES = [DiVEScheme, DDSScheme, EAARScheme, O3Scheme]


class TestSchemeContracts:
    @pytest.mark.parametrize("factory", ALL_SCHEMES)
    def test_one_result_per_frame(self, factory, clip, gt):
        res = run_scheme(factory(), clip, good_trace(clip), detector_seed=3, ground_truth=gt)
        assert len(res.run.frames) == clip.n_frames
        indices = [f.index for f in res.run.frames]
        assert indices == list(range(clip.n_frames))

    @pytest.mark.parametrize("factory", ALL_SCHEMES)
    def test_metrics_in_range(self, factory, clip, gt):
        res = run_scheme(factory(), clip, good_trace(clip), detector_seed=3, ground_truth=gt)
        assert 0.0 <= res.map <= 1.0
        assert res.mean_response_time > 0
        assert res.total_bytes > 0

    @pytest.mark.parametrize("factory", ALL_SCHEMES)
    def test_deterministic(self, factory, clip, gt):
        a = run_scheme(factory(), clip, good_trace(clip), detector_seed=3, ground_truth=gt)
        b = run_scheme(factory(), clip, good_trace(clip), detector_seed=3, ground_truth=gt)
        assert a.map == b.map
        assert a.mean_response_time == b.mean_response_time
        assert a.total_bytes == b.total_bytes

    @pytest.mark.parametrize("factory", ALL_SCHEMES)
    def test_survives_outages(self, factory, clip, gt):
        trace = with_outages(
            constant_trace(scaled_bandwidth(2.0, clip)),
            outage_duration=0.3,
            interval=0.7,
            horizon=5.0,
        )
        res = run_scheme(factory(), clip, trace, detector_seed=3, ground_truth=gt)
        assert len(res.run.frames) == clip.n_frames

    @pytest.mark.parametrize("factory", ALL_SCHEMES)
    def test_total_outage_no_crash(self, factory, clip, gt):
        # The link dies permanently after 0.3 s.
        trace = BandwidthTrace(
            np.array([0.0, 0.3]), np.array([scaled_bandwidth(3.0, clip), 0.0])
        )
        res = run_scheme(factory(), clip, trace, detector_seed=3, ground_truth=gt)
        assert len(res.run.frames) == clip.n_frames
        assert res.run.drop_rate > 0


class TestBaselineMotionSearch:
    @pytest.mark.parametrize("factory", [DDSScheme, EAARScheme, O3Scheme])
    def test_raw_motion_is_estimated_only_for_tracked_frames(self, factory, clip, gt, monkeypatch):
        """The raw-to-raw motion search runs once per frame whose result the
        tracker gives — dropped uploads included — and on no frame the edge
        answered (the encoder's own search is not this one)."""
        import repro.baselines.base as base

        calls = []
        real = base.estimate_motion

        def counted(*args, **kwargs):
            calls.append(kwargs["method"])
            return real(*args, **kwargs)

        monkeypatch.setattr(base, "estimate_motion", counted)
        dies = BandwidthTrace(np.array([0.0, 0.3]), np.array([scaled_bandwidth(3.0, clip), 0.0]))
        counts, dropped = [], []
        for trace in (dies, good_trace(clip)):
            calls.clear()
            frames = run_scheme(factory(), clip, trace, detector_seed=3, ground_truth=gt).run.frames
            assert len(calls) == sum(f.index > 0 and f.source != "edge" for f in frames)
            counts.append(len(calls))
            dropped.append(sum(f.dropped for f in frames))
        assert dropped[0] > 0  # the drop branch searches too
        assert min(counts) < clip.n_frames - 1  # ... and an answered frame does not


class TestDiVE:
    def test_sources_are_edge_on_good_link(self, clip, gt):
        res = run_scheme(DiVEScheme(), clip, good_trace(clip), detector_seed=3, ground_truth=gt)
        assert all(f.source == "edge" for f in res.run.frames)

    def test_mot_fallback_on_outage(self, clip, gt):
        trace = BandwidthTrace(np.array([0.0, 0.35]), np.array([scaled_bandwidth(3.0, clip), 0.0]))
        res = run_scheme(DiVEScheme(), clip, trace, detector_seed=3, ground_truth=gt)
        sources = {f.source for f in res.run.frames}
        assert "tracked" in sources or "cached" in sources

    def test_accuracy_improves_with_bandwidth(self, clip, gt):
        low = run_scheme(
            DiVEScheme(), clip, constant_trace(scaled_bandwidth(0.6, clip)), detector_seed=3, ground_truth=gt
        )
        high = run_scheme(
            DiVEScheme(), clip, constant_trace(scaled_bandwidth(6.0, clip)), detector_seed=3, ground_truth=gt
        )
        assert high.map >= low.map
        assert high.total_bytes > low.total_bytes

    def test_adaptive_bitrate_uses_bandwidth(self, clip, gt):
        res = run_scheme(
            DiVEScheme(), clip, constant_trace(scaled_bandwidth(3.0, clip)), detector_seed=3, ground_truth=gt
        )
        duration = clip.n_frames / clip.fps
        used_bps = res.total_bytes * 8 / duration
        available = scaled_bandwidth(3.0, clip)
        assert used_bps < available * 1.1  # compliant
        assert used_bps > available * 0.3  # actually using the link

    def test_disable_rotation_removal_runs(self, clip, gt):
        cfg = DiVEConfig(enable_rotation_removal=False)
        res = run_scheme(DiVEScheme(cfg), clip, good_trace(clip), detector_seed=3, ground_truth=gt)
        assert 0.0 <= res.map <= 1.0


class TestBaselines:
    def test_o3_uploads_only_key_frames(self, clip, gt):
        res = run_scheme(O3Scheme(), clip, good_trace(clip), detector_seed=3, ground_truth=gt)
        uploaded = [f for f in res.run.frames if f.bytes_sent > 0]
        assert len(uploaded) == len([i for i in range(clip.n_frames) if i % 5 == 0])

    def test_eaar_tracks_non_key_frames(self, clip, gt):
        res = run_scheme(EAARScheme(), clip, good_trace(clip), detector_seed=3, ground_truth=gt)
        sources = [f.source for f in res.run.frames]
        assert sources.count("edge") == len([i for i in range(clip.n_frames) if i % 4 == 0])
        assert "tracked" in sources

    def test_dds_pays_two_uplink_trips(self, clip, gt):
        dds = run_scheme(DDSScheme(), clip, good_trace(clip), detector_seed=3, ground_truth=gt)
        dive = run_scheme(DiVEScheme(), clip, good_trace(clip), detector_seed=3, ground_truth=gt)
        assert dds.mean_response_time > dive.mean_response_time

    def test_dds_bandwidth_compliant(self, clip, gt):
        # At very low rates every scheme sits on the codec's per-frame bit
        # floor, so compliance is asserted at a non-degenerate point.
        mbps = 3.0
        res = run_scheme(
            DDSScheme(), clip, constant_trace(scaled_bandwidth(mbps, clip)), detector_seed=3, ground_truth=gt
        )
        duration = clip.n_frames / clip.fps
        assert res.total_bytes * 8 / duration < scaled_bandwidth(mbps, clip) * 1.2

    def test_pending_results_ordering(self):
        pending = PendingResults()
        pending.add(2.0, 1, [])
        pending.add(1.0, 0, [])
        due = pending.due(1.5)
        assert [d[1] for d in due] == [0]
        assert [d[1] for d in pending.due(10.0)] == [1]


class TestRunnerEvaluation:
    def test_gt_shared_across_schemes(self, clip):
        gt1 = ground_truth_for(clip, detector_seed=3)
        gt2 = ground_truth_for(clip, detector_seed=3)
        assert gt1 == gt2

    def test_gt_differs_across_seeds(self, clip):
        gt1 = ground_truth_for(clip, detector_seed=3)
        gt2 = ground_truth_for(clip, detector_seed=4)
        assert gt1 != gt2

    def test_mismatched_gt_length_rejected(self, clip, gt):
        from repro.experiments import evaluate_run

        res = run_scheme(DiVEScheme(), clip, good_trace(clip), detector_seed=3, ground_truth=gt)
        with pytest.raises(ValueError):
            evaluate_run(res.run, clip, detector_seed=3, ground_truth=gt[:-1])

    def test_scaled_bandwidth(self, clip):
        from repro.experiments.config import CODEC_EFFICIENCY_FACTOR

        bw = scaled_bandwidth(1.0, clip)
        pixels = clip.intrinsics.width * clip.intrinsics.height
        assert bw == pytest.approx(1e6 * CODEC_EFFICIENCY_FACTOR * pixels / (1600 * 900))
