"""The P-frame itself, pinned.

P-frame bytes used to be fixed only through detection counts and ``qp_mean``
rounded to three places.  These goldens were recorded at ddde004 — the
commit before the P-frame's transform tail (fused quantise + bit cost, the
warm-started rate-control search, the shared skip-aware ``reconstruct``)
moved under the ``cext`` contract — and are asserted on the ``numpy``
reference and on ``cext``: frames 1-4 of three clips under a fractional
two-level DiVE offset map, offsets that saturate at QP 51 and a CRF encode,
each one's levels, per-macroblock bits, reconstruction, coded size and
*chosen base QP*, the decoder's frame, and one DDS-style region update.

``python tests/test_golden_pframes.py`` prints the table for the checkout on
``PYTHONPATH`` (how the values below were produced).
"""

import functools
import hashlib

import numpy as np
import pytest

from repro import kernels
from repro.codec import VideoDecoder, VideoEncoder, encode_region_update
from repro.core import DiVEScheme
from repro.experiments import run_scheme, scaled_bandwidth
from repro.network import constant_trace
from repro.network.trace import with_outages
from repro.obs import Tracer
from repro.world import kitti_like, nuscenes_like, robotcar_like

pytestmark = pytest.mark.kernels

N_FRAMES = 5  # frame 0 is the I-frame; 1-4 are pinned

#: clip -> (builder, CBR target bits, background delta of the two-level map)
CLIPS = {
    "nuscenes": (lambda: nuscenes_like(11, n_frames=N_FRAMES, resolution=(480, 288)), 26_000.0, 284.0 / 27.0),
    "kitti": (lambda: kitti_like(5, n_frames=N_FRAMES, resolution=(640, 192), turning=True), 30_000.0, 14.96),
    "robotcar": (lambda: robotcar_like(11, n_frames=N_FRAMES, resolution=(320, 192)), 14_000.0, 7.3),
}
MODES = ("two_level", "saturated", "crf")


@functools.lru_cache(maxsize=None)
def _frames(clip):
    """The clip's frames, rendered once per session on the host's default
    backend (the renderer's bytes do not depend on the backend —
    ``test_golden_frames`` pins that)."""
    built = CLIPS[clip][0]()
    with kernels.use_backend(kernels.AUTO):
        return tuple(built.frame(i).image for i in range(N_FRAMES))


def _foreground(shape):
    rows, cols = shape[0] // 16, shape[1] // 16
    r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    return (np.abs(r - rows * 0.55) < rows * 0.25) & (np.abs(c - cols * 0.5) < cols * 0.2)


def _encode_args(clip, mode, shape):
    _, target, delta = CLIPS[clip]
    foreground = _foreground(shape)
    if mode == "two_level":  # DiVE: foreground at the base QP, background delta above
        return {"target_bits": target, "qp_offsets": np.where(foreground, 0.0, delta)}
    if mode == "saturated":  # rows of the background pushed past QP 51 at any base the budget allows
        ramp = np.linspace(20.0, 60.0, foreground.shape[0])[:, None]
        return {"target_bits": target, "qp_offsets": np.where(foreground, 0.0, ramp)}
    return {"base_qp": 24.0, "qp_offsets": np.where(foreground, 0.0, delta)}


def _digest(*parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()[:24]


def _pframes(clip, mode):
    """``[(digest, bits, base_qp)]`` of frames 1-4, each checked against a
    decoder of its own first."""
    frames = _frames(clip)
    args = _encode_args(clip, mode, frames[0].shape)
    encoder, decoder = VideoEncoder(), VideoDecoder()
    rows = []
    for frame in frames:
        encoded = encoder.encode(frame, **args)
        decoded = decoder.decode(encoded)
        assert decoded.dtype == np.float32
        assert decoded.tobytes() == encoded.reconstruction.tobytes()
        if encoded.index:
            assert encoded.frame_type == "P"
            rows.append((
                _digest(encoded.levels, encoded.bits_per_mb, encoded.reconstruction),
                encoded.bits, encoded.base_qp,
            ))
    return rows


def _region_update(clip):
    """``(digest of the upgraded image, bits)``: DDS's second pass over the
    foreground box, on top of a QP-40 decode of frame 1."""
    frames = _frames(clip)
    encoder = VideoEncoder()
    for frame in frames[:2]:
        low = encoder.encode(frame, base_qp=40.0)
    bits, updated = encode_region_update(
        low.reconstruction, frames[1], _foreground(frames[1].shape), qp=18.5
    )
    assert updated.dtype == np.float32
    return _digest(updated), bits


#: Recorded at ddde004 (numpy and cext agreed there too).
GOLDEN = {
    ('kitti', 'two_level'): [
        ('6db2a7a0b465bc485abb22d5', 27191.25, 27.0),
        ('fb1389fdcd43d67e815b4c82', 28674.75, 25.0),
        ('e05a20bc7b8f01cc31c68a96', 29577.5, 24.0),
        ('8bca0c943de3369f2471e1f2', 28732.0, 24.0),
    ],
    ('kitti', 'saturated'): [
        ('0eebf4758dfc5400380642dd', 28352.5, 22.0),
        ('2ae8b4eaf52ae59c8efbdea9', 29125.5, 20.0),
        ('251b032d59e72d562d16b97c', 29949.0, 19.0),
        ('49d528801dfd7be366b62bce', 29163.0, 19.0),
    ],
    ('kitti', 'crf'): [
        ('fa9ab4f383586d043ef87f7c', 30660.75, 24.0),
        ('7a0726be6c383d6d53783428', 29662.75, 24.0),
        ('b56d27dd4e36deaf046f3bc6', 28924.25, 24.0),
        ('91e55902ca4ffe8b071dd212', 26901.75, 24.0),
    ],
    ('nuscenes', 'two_level'): [
        ('60249e6242feb5220c1ee651', 22753.5, 32.0),
        ('8d001a699d6230ee8c504c0e', 24294.5, 30.0),
        ('6036955085dca8b2feb31507', 24732.75, 29.0),
        ('d90d7480756deb08c1b7b80b', 23300.5, 29.0),
    ],
    ('nuscenes', 'saturated'): [
        ('b962f0250f47db3996ec71af', 25405.0, 26.0),
        ('b2d0056d7fad441d0c93be6d', 25135.5, 24.0),
        ('f3b2731f5e76d9195fcbac24', 25917.5, 23.0),
        ('9128ae2c71836008f2d88898', 24504.5, 24.0),
    ],
    ('nuscenes', 'crf'): [
        ('7c665fef72498f2d3fbde1a1', 37204.5, 24.0),
        ('0252696930ae2c455e4a1f75', 41533.25, 24.0),
        ('2c3875e3cea925f0020bf6f0', 40989.0, 24.0),
        ('6933de6440d01ba32e60bd11', 40213.0, 24.0),
    ],
    ('robotcar', 'two_level'): [
        ('edd43d3632fcbfdae3c3c3f3', 12420.75, 31.0),
        ('a30c657d276fbd8398f4793d', 12139.25, 29.0),
        ('47519098229424f3467d2202', 11892.25, 29.0),
        ('3d1d261c5cfd818629ce0a55', 13779.25, 27.0),
    ],
    ('robotcar', 'saturated'): [
        ('529c1769dd3c8d58f38ed646', 13386.75, 22.0),
        ('2f800cd52105f17844593bda', 13030.25, 20.0),
        ('c7f33f3af8189fda633c3a52', 13176.5, 20.0),
        ('731cbd11c2eeb0075efd4909', 13327.0, 17.0),
    ],
    ('robotcar', 'crf'): [
        ('c7b6e9daca8cdbdfd892454d', 19491.5, 24.0),
        ('62815f4de2854c50dfb0c667', 19017.0, 24.0),
        ('d25b8f5f6d0bd8719bef33c0', 20930.75, 24.0),
        ('3d553050990def39c83a8546', 17190.25, 24.0),
    ],
}
GOLDEN_REGION = {
    'kitti': ('f5a282b631ad25a0bf68c4c6', 31894.25),
    'nuscenes': ('6c4ac107f9e9f939b02320d2', 40708.0),
    'robotcar': ('c5af2b70e657109ee5956f5f', 16564.0),
}


@pytest.mark.parametrize("kernel_backend", kernels.BACKENDS, indirect=True)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("clip", sorted(CLIPS))
def test_pframes_match_the_parent_commit(clip, mode, kernel_backend):
    assert _pframes(clip, mode) == GOLDEN[clip, mode]


@pytest.mark.parametrize("kernel_backend", kernels.BACKENDS, indirect=True)
@pytest.mark.parametrize("clip", sorted(CLIPS))
def test_region_update_matches_the_parent_commit(clip, kernel_backend):
    assert _region_update(clip) == GOLDEN_REGION[clip]


def test_the_cbr_goldens_exercise_rate_control():
    """The pinned base QPs move from frame to frame and sit mid-range (so a
    search that returned a neighbouring QP would show), and the saturated
    maps really do clip."""
    for clip in CLIPS:
        for mode in ("two_level", "saturated"):
            qps = [qp for _, _, qp in GOLDEN[clip, mode]]
            assert all(4.0 < qp < 47.0 for qp in qps), (clip, mode, qps)
        assert len({qp for mode in ("two_level", "saturated") for _, _, qp in GOLDEN[clip, mode]}) > 1
        offsets = _encode_args(clip, "saturated", _frames(clip)[0].shape)["qp_offsets"]
        assert min(qp for _, _, qp in GOLDEN[clip, "saturated"]) + offsets.max() > 51.0


def _drive_qps(drive):
    """The base QP DiVE's encoder chose for every frame of one of the
    ruler's two drives (``benchmarks/perf/workloads.py``, nominal link)."""
    if drive == "steady":
        clip = nuscenes_like(11, n_frames=24, resolution=(480, 288))
        trace = constant_trace(scaled_bandwidth(2.0, clip))
    else:
        clip = kitti_like(5, n_frames=30, turning=True)
        trace = with_outages(
            constant_trace(scaled_bandwidth(2.0, clip)), outage_duration=0.5, interval=1.0, first_outage=0.35
        )
    tracer = Tracer()
    run_scheme(DiVEScheme(), clip, trace, tracer=tracer)
    return [int(record.counters["base_qp"]) for record in tracer.frames if "base_qp" in record.counters]


#: Recorded at ddde004: the warm-started search may probe other QPs than
#: the cold bisection did, never choose another.
GOLDEN_DRIVE_QPS = {
    "steady": [45, 32, 31, 31, 30, 29, 29, 29, 28, 28, 29, 30, 29, 28, 29, 28, 28, 27, 27, 29, 28, 31, 29, 28],
    "outage": [43, 38, 36, 31, 51, 51, 51, 43, 42, 37, 33, 31, 31, 31, 51, 51, 51, 44, 42, 36, 33, 33, 32, 31,
               51, 51, 51, 42, 42, 35],
}


@pytest.mark.parametrize("drive", ["steady", "outage"])
def test_every_frame_of_both_drives_keeps_its_base_qp(drive):
    """On the host's default backend (the other suites pin numpy == cext)."""
    assert _drive_qps(drive) == GOLDEN_DRIVE_QPS[drive]


if __name__ == "__main__":
    print("GOLDEN = {")
    for clip_name in sorted(CLIPS):
        for mode_name in MODES:
            print(f"    ({clip_name!r}, {mode_name!r}): [")
            for row in _pframes(clip_name, mode_name):
                print(f"        {row!r},")
            print("    ],")
    print("}")
    print("GOLDEN_REGION = {")
    for clip_name in sorted(CLIPS):
        print(f"    {clip_name!r}: {_region_update(clip_name)!r},")
    print("}")
    print("GOLDEN_DRIVE_QPS = {")
    for drive_name in ("steady", "outage"):
        print(f"    {drive_name!r}: {_drive_qps(drive_name)!r},")
    print("}")
