"""Differential tests: streaming runtime vs synchronous batch runner.

With relaxed limits — unbounded queue, no deadline — the streaming
runtime must be *bit-identical* to the batch path: same detections, same
bytes, same QP trace, same golden digest.  Anything less means the
runner's interposers leaked into the scheme's arithmetic.
"""

import pytest

from conftest import GOLDEN_BANDWIDTH_MBPS, e2e_digest, run_streamed
from repro.baselines import O3Scheme
from repro.core import DiVEScheme
from repro.experiments import run_scheme, scaled_bandwidth
from repro.network import constant_trace
from repro.obs import Tracer
from repro.stream import StreamConfig, StreamRunner
from test_golden_e2e import GOLDEN_DIGEST


def _frame_key(f):
    return (
        f.index,
        f.bytes_sent,
        f.source,
        f.dropped,
        f.response_time,
        [(d.object_id, d.kind, d.bbox, d.confidence) for d in f.detections],
    )


@pytest.mark.timeout(600)
def test_stream_matches_golden_digest(golden_clips, golden_ground_truth):
    """A relaxed StreamRunner run reproduces the exact golden digest."""
    tracer = Tracer()
    results, stats = [], []
    for clip, gt in zip(golden_clips, golden_ground_truth):
        trace = constant_trace(scaled_bandwidth(GOLDEN_BANDWIDTH_MBPS, clip))
        result, stat = run_streamed(DiVEScheme(), clip, trace, ground_truth=gt, tracer=tracer)
        results.append(result)
        stats.append(stat)
    assert e2e_digest(results, tracer) == GOLDEN_DIGEST
    for clip, stat in zip(golden_clips, stats):
        assert stat.frames == clip.n_frames
        # Relaxed limits: truth never diverges from belief.
        assert stat.degraded == 0
        assert stat.late == 0
        assert stat.blocked_time == 0.0


@pytest.mark.timeout(600)
def test_stream_matches_batch_per_frame_o3(golden_clips, golden_ground_truth):
    """A baseline scheme (O3) is frame-for-frame identical batch vs stream."""
    clip, gt = golden_clips[0], golden_ground_truth[0]
    trace = constant_trace(scaled_bandwidth(GOLDEN_BANDWIDTH_MBPS, clip))
    batch = run_scheme(O3Scheme(), clip, trace, ground_truth=gt)
    stream, _ = run_streamed(O3Scheme(), clip, trace, ground_truth=gt)
    assert [_frame_key(f) for f in batch.run.frames] == [
        _frame_key(f) for f in stream.run.frames
    ]
    assert batch.ap == stream.ap


@pytest.mark.timeout(600)
def test_stream_runner_restores_scheme(golden_clips):
    """The uplink factory seam is removed again after a streaming run."""
    clip = golden_clips[0]
    trace = constant_trace(scaled_bandwidth(GOLDEN_BANDWIDTH_MBPS, clip))
    scheme = DiVEScheme()
    from repro.edge.detector import QualityAwareDetector
    from repro.edge.server import EdgeServer

    StreamRunner(scheme, StreamConfig()).run(
        clip, trace, EdgeServer(QualityAwareDetector(seed=7))
    )
    assert scheme.uplink_factory is None
