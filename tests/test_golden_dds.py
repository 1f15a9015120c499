"""DDS's two passes, pinned.

Only the small fleet digest covered DDS before (two agents, five frames
each).  This runs ``DDSScheme`` over the golden clip set (2 nuScenes-like
clips x 12 frames, ``tests/conftest.py``) on a constant 0.5 Mbps paper-scale
uplink — tight enough that the second pass climbs the region-QP ladder on
most frames and trims the region set on some — and pins a digest of every
frame's bytes sent, source, drop flag, response time and detections,
recorded at 04affcf, on the ``numpy`` reference and on ``cext``.

``python tests/test_golden_dds.py`` prints the values below for the
checkout on ``PYTHONPATH``.
"""

import hashlib

import pytest
from conftest import GOLDEN_CLIP_SEEDS, GOLDEN_N_FRAMES

from repro.baselines import DDSConfig, DDSScheme
from repro.codec.encoder import RegionUpdate
from repro.experiments import ground_truth_for, run_scheme, scaled_bandwidth
from repro.network import constant_trace
from repro.world import nuscenes_like

pytestmark = pytest.mark.kernels

BANDWIDTH_MBPS = 0.5

#: Recorded at 04affcf (numpy and cext agreed there too).
GOLDEN_DIGEST = "6186d13feabed26bc41a97ec909b484ec1f658a6d88bb8b08be51c0df469cb19"
#: How often the second pass re-quantised, over both clips: ladder steps
#: above ``DDSConfig.region_qp`` on the whole region, and trimmed regions.
GOLDEN_STEPS = {"ladder": 94, "trims": 34}


def run_dds(clips, ground_truths):
    return [
        run_scheme(DDSScheme(), clip, constant_trace(scaled_bandwidth(BANDWIDTH_MBPS, clip)), ground_truth=gt)
        for clip, gt in zip(clips, ground_truths)
    ]


def dds_digest(results):
    parts = []
    for result in results:
        for f in result.run.frames:
            dets = ",".join(
                f"{d.kind}:{[float(v) for v in d.bbox]}:{float(d.confidence)!r}:{int(d.object_id)}"
                for d in f.detections
            )
            parts.append(
                f"{result.clip_name}/{f.index}:bytes={f.bytes_sent}:src={f.source}:dropped={f.dropped}"
                f":rt={float(f.response_time)!r}:dets=[{dets}]"
            )
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


def count_steps(monkeypatch):
    """Count the second pass's re-quantisations from here on."""
    steps = {"ladder": 0, "trims": 0}
    bits = RegionUpdate.bits

    def counted(self, qp, region_mask=None):
        if region_mask is not None:
            steps["trims"] += 1
        elif qp > DDSConfig().region_qp:
            steps["ladder"] += 1
        return bits(self, qp, region_mask)

    monkeypatch.setattr(RegionUpdate, "bits", counted)
    return steps


def test_dds_run_matches_the_parent_commit(kernel_backend, golden_clips, golden_ground_truth, monkeypatch):
    steps = count_steps(monkeypatch)
    results = run_dds(golden_clips, golden_ground_truth)
    assert steps == GOLDEN_STEPS
    assert dds_digest(results) == GOLDEN_DIGEST


if __name__ == "__main__":
    clips = [nuscenes_like(seed, n_frames=GOLDEN_N_FRAMES).preload() for seed in GOLDEN_CLIP_SEEDS]
    truths = [ground_truth_for(clip) for clip in clips]
    with pytest.MonkeyPatch.context() as patch:
        steps = count_steps(patch)
        print(f"GOLDEN_DIGEST = {dds_digest(run_dds(clips, truths))!r}")
    print(f"GOLDEN_STEPS = {steps!r}")
