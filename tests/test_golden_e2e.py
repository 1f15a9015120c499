"""Golden end-to-end regression test.

A seeded fig16-scale DiVE run (2 nuScenes-like clips, constant 2 Mbps
paper-scale uplink) locks a digest of per-frame coded bytes, per-frame mean
QP (from the frame trace) and per-frame detection counts.  Any silent
behaviour drift in the codec, core pipeline, network model or detector —
however small — changes the digest and fails this test loudly.

The run itself (clip set, fixture, digest function) lives in
``tests/conftest.py`` so the streaming differential tests
(``test_stream_equivalence.py``) can assert bit-identity against the same
digest without re-rendering anything.

If a change *intentionally* alters behaviour (a codec fix, a new QP
policy, a detector recalibration), rerun with ``-s`` to print the new
digest and update ``GOLDEN_DIGEST`` in the same PR, stating why.
"""

import pytest
from conftest import GOLDEN_CLIP_SEEDS, GOLDEN_N_FRAMES, e2e_digest, run_golden_batch

pytestmark = pytest.mark.kernels

N_CLIPS = len(GOLDEN_CLIP_SEEDS)
N_FRAMES = GOLDEN_N_FRAMES

GOLDEN_DIGEST = "815bb9730b7fac3d9c5ddab631064d6047b11e0a4fd32891684d956362f2cf52"


def test_run_shape(golden_batch_run):
    results, tracer = golden_batch_run
    assert len(results) == N_CLIPS
    assert all(len(r.run.frames) == N_FRAMES for r in results)
    # Every frame of every clip produced a trace record with QP + bits.
    assert len(tracer.frames) == N_CLIPS * N_FRAMES
    for record in tracer.frames:
        assert record.counters["bits"] > 0
        assert 0.0 <= record.counters["qp_mean"] <= 51.0


def test_golden_digest(golden_batch_run):
    results, tracer = golden_batch_run
    digest = e2e_digest(results, tracer)
    print(f"\ngolden e2e digest: {digest}")
    assert digest == GOLDEN_DIGEST, (
        "end-to-end behaviour drifted: the seeded DiVE run no longer "
        "reproduces the locked per-frame bytes/QP/detections. If the "
        f"change is intentional, update GOLDEN_DIGEST to {digest!r} and "
        "explain the drift in the PR."
    )


def test_golden_digest_every_backend(kernel_backend, golden_clips, golden_ground_truth):
    """Kernel backends are bit-exact by contract: the *same* golden digest
    must fall out of the full pipeline under both of them — the
    ``numpy`` reference included, now that ``test_golden_digest`` above
    (no activation at all) runs on whatever default the host resolves."""
    results, tracer = run_golden_batch(golden_clips, golden_ground_truth)
    assert e2e_digest(results, tracer) == GOLDEN_DIGEST, (
        f"kernel backend {kernel_backend!r} broke bit-exactness: its golden "
        "digest differs from the locked one"
    )
