"""The I-frame itself, pinned.

Intra output used to be fixed only indirectly, through detection digests.
These goldens were recorded at f1fb775 — the commit before ``intra_encode``
/ ``intra_decode`` became dispatched kernels — and are asserted on the
``numpy`` reference and on ``cext``: the compiled wavefront has to
reproduce the Python loop's levels, modes, reconstruction and bit counts to
the byte, through the encoder's rate control and its QP bump loop.
"""

import hashlib

import numpy as np
import pytest

import repro.codec.encoder as encoder_module
from repro import kernels
from repro.codec import VideoDecoder, VideoEncoder, intra_encode
from repro.utils.noise import hash_lattice
from repro.world import kitti_like, nuscenes_like, robotcar_like

pytestmark = pytest.mark.kernels


def _dive_offsets(shape, delta):
    """A DiVE-style two-level map: a foreground box at 0, background at ``delta``."""
    rows, cols = shape[0] // 16, shape[1] // 16
    r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    foreground = (np.abs(r - rows * 0.55) < rows * 0.25) & (np.abs(c - cols * 0.5) < cols * 0.2)
    return np.where(foreground, 0.0, delta)


def _white_noise(shape, seed):
    """Noise around mid-gray: flat prediction is already optimal, so the
    mode syntax tips the real cost over what rate control probed."""
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    return (128.0 + 100.0 * (hash_lattice(xx, yy, seed) - 0.5)).astype(np.float32)


#: name -> (frame, target bits, background QP offset or None) and the values
#: recorded at the parent: sha256(levels | modes | reconstruction |
#: bits_per_mb), EncodedFrame.bits, base QP, intra_encode calls.
CASES = {
    "nuscenes": (
        lambda: nuscenes_like(11, n_frames=1, resolution=(480, 288)).frame(0).image, 120_000.0, None,
        "6d16bdc5266049b764cf347f2e363b535cf9a3e24b284f5dd476fd9ac79ff73f", 95745.75, 26.0, 1,
    ),
    "kitti_offsets": (
        lambda: kitti_like(5, n_frames=1, resolution=(640, 192), turning=True).frame(0).image, 90_000.0, 8.0,
        "7c6e63211db61451590c7bd3042babb77db4b9224758e2efe6058dabfc503012", 74770.25, 23.0, 1,
    ),
    "robotcar": (
        lambda: robotcar_like(11, n_frames=1, resolution=(320, 192)).frame(0).image, 60_000.0, None,
        "76edd64279417f76647e86739576b404c7941e91eb440a726ec85418e68501ac", 53047.5, 25.0, 1,
    ),
    # No budget sends one of the rendered frames into the QP bump loop
    # (neighbour prediction beats the flat probe at every QP there); noise
    # does: rate control picks 44, the real cost fits at 45.
    "noise_bump": (
        lambda: _white_noise((192, 320), 16), 19_500.0, None,
        "089d2761a03ef220317981f640a545c5c79296f1f5fb3c0855d1394ccbfcfcf0", 14390.75, 45.0, 2,
    ),
}


@pytest.mark.parametrize("kernel_backend", kernels.BACKENDS, indirect=True)
@pytest.mark.parametrize("name", sorted(CASES))
def test_iframe_matches_the_parent_commit(name, kernel_backend, monkeypatch):
    build, target, delta, want_digest, want_bits, want_qp, want_calls = CASES[name]
    frame = build()
    offsets = None if delta is None else _dive_offsets(frame.shape, delta)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return intra_encode(*args, **kwargs)

    monkeypatch.setattr(encoder_module, "intra_encode", counted)
    encoded = VideoEncoder().encode(frame, target_bits=target, qp_offsets=offsets, force_intra=True)
    decoded = VideoDecoder().decode(encoded)
    digest = hashlib.sha256()
    for part in (encoded.levels, encoded.intra_modes, encoded.reconstruction, encoded.bits_per_mb):
        digest.update(part.tobytes())
    assert encoded.frame_type == "I"
    assert (encoded.bits, encoded.base_qp, len(calls)) == (want_bits, want_qp, want_calls)
    assert digest.hexdigest() == want_digest
    assert decoded.tobytes() == encoded.reconstruction.tobytes()
