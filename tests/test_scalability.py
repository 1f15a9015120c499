"""Tests for the multi-agent edge-server scalability study."""

import pytest

from repro.baselines.base import FrameResult, SchemeRun
from repro.experiments import replay_shared_server


def make_run(n_frames, *, fps=10.0, response=0.05, source="edge", scheme="DiVE"):
    frames = [
        FrameResult(
            index=i,
            capture_time=i / fps,
            detections=[],
            response_time=response,
            source=source,
        )
        for i in range(n_frames)
    ]
    return SchemeRun(scheme=scheme, clip_name="c", frames=frames)


class TestReplaySharedServer:
    def test_single_agent_unchanged(self):
        """One agent with spaced-out requests sees no queueing: response
        times reproduce the originals."""
        run = make_run(10, response=0.05)
        rt = replay_shared_server([run], workers=1, inference_latency=0.02, downlink_latency=0.01)
        assert rt == pytest.approx(0.05, abs=1e-9)

    def test_contention_raises_response(self):
        # Many agents capturing at the same instants: the single worker
        # serialises their inferences.
        runs = [make_run(10, response=0.05) for _ in range(8)]
        rt = replay_shared_server(runs, workers=1, inference_latency=0.02, downlink_latency=0.01)
        assert rt > 0.05

    def test_more_workers_reduce_contention(self):
        runs = [make_run(10, response=0.05) for _ in range(8)]
        rt1 = replay_shared_server(runs, workers=1, inference_latency=0.02, downlink_latency=0.01)
        rt8 = replay_shared_server(runs, workers=8, inference_latency=0.02, downlink_latency=0.01)
        assert rt8 < rt1
        assert rt8 == pytest.approx(0.05, abs=1e-9)

    def test_local_frames_keep_their_times(self):
        run = make_run(10, response=0.003, source="tracked")
        rt = replay_shared_server([run], workers=1)
        assert rt == pytest.approx(0.003)

    def test_key_frame_scheme_loads_less(self):
        """A scheme inferring 1-in-5 frames suffers less under contention
        than one inferring every frame."""
        def mixed_run():
            frames = []
            for i in range(20):
                src = "edge" if i % 5 == 0 else "tracked"
                frames.append(
                    FrameResult(
                        index=i, capture_time=i / 10.0, detections=[],
                        response_time=0.05 if src == "edge" else 0.004, source=src,
                    )
                )
            return SchemeRun(scheme="O3", clip_name="c", frames=frames)

        heavy = [make_run(20, response=0.05) for _ in range(10)]
        light = [mixed_run() for _ in range(10)]
        rt_heavy = replay_shared_server(heavy, workers=1, inference_latency=0.02, downlink_latency=0.01)
        rt_light = replay_shared_server(light, workers=1, inference_latency=0.02, downlink_latency=0.01)
        # Heavy (every-frame) schemes degrade much more; normalise by the
        # uncontended response of their edge frames.
        assert (rt_heavy - 0.05) > (rt_light - 0.05)

    def test_empty(self):
        assert replay_shared_server([SchemeRun(scheme="x", clip_name="c")]) == float("inf")


class TestRunScalability:
    @pytest.mark.timeout(600)
    def test_renders_only_in_the_agent_phase(self, render_calls):
        """Every prefix fleet is settled from truth carried on the forked
        agent runs: the study renders max(agent_counts) x n_frames frames,
        not once more per settled prefix."""
        from repro.core import DiVEScheme
        from repro.experiments import ExperimentConfig, run_scalability

        rows = run_scalability(
            ExperimentConfig(n_frames=4), agent_counts=(1, 2, 3),
            scheme_factories=(DiVEScheme,))
        assert [r.n_agents for r in rows] == [1, 2, 3]
        assert len(render_calls) == 3 * 4
