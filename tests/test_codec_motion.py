"""Tests for block-matching motion estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import ME_METHODS, estimate_motion, motion_compensate, nonzero_mv_ratio
from repro.utils.integral import shift_with_edge_pad

pytestmark = pytest.mark.kernels


def textured_frame(shape=(64, 96), seed=0):
    from repro.utils.noise import value_noise_2d

    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    # Aperiodic smooth texture with ~5 px correlation length, like real
    # surfaces (periodic textures are ambiguous for any block matcher).
    return (255 * value_noise_2d(xx, yy, seed=seed, scale=5.0, octaves=3)).astype(np.float32)


class TestEstimateMotion:
    @pytest.mark.parametrize("method", ["hex", "umh", "esa", "tesa"])
    def test_recovers_global_shift(self, method):
        ref = textured_frame(seed=1)
        dx, dy = 5, -3
        cur = shift_with_edge_pad(ref, dx, dy)
        me = estimate_motion(cur, ref, method=method, search_range=8)
        # Interior blocks must find the exact shift.
        inner = me.mv[1:-1, 1:-1]
        assert (inner[..., 0] == dx).mean() > 0.9
        assert (inner[..., 1] == dy).mean() > 0.9

    def test_dia_recovers_small_shift(self):
        """DIA has no coarse seeding (the cheap, weak method) but must
        still find small displacements."""
        ref = textured_frame(seed=1)
        cur = shift_with_edge_pad(ref, 2, -1)
        me = estimate_motion(cur, ref, method="dia", search_range=8)
        inner = me.mv[1:-1, 1:-1]
        assert (inner[..., 0] == 2).mean() > 0.9
        assert (inner[..., 1] == -1).mean() > 0.9

    @pytest.mark.parametrize("method", ME_METHODS)
    def test_static_scene_zero_mv(self, method):
        ref = textured_frame(seed=2)
        me = estimate_motion(ref, ref.copy(), method=method, search_range=8)
        assert nonzero_mv_ratio(me.mv) == 0.0
        assert me.sad.max() == 0.0

    def test_identity_has_zero_eta(self):
        ref = textured_frame(seed=3)
        me = estimate_motion(ref, ref, method="hex")
        assert nonzero_mv_ratio(me.mv) == 0.0

    def test_eta_counts_nonzero_blocks(self):
        mv = np.zeros((4, 5, 2), dtype=np.int32)
        mv[0, 0] = (1, 0)
        mv[2, 3] = (0, -2)
        assert nonzero_mv_ratio(mv) == pytest.approx(2 / 20)

    def test_search_range_respected(self):
        ref = textured_frame(seed=4)
        cur = shift_with_edge_pad(ref, 12, 0)
        me = estimate_motion(cur, ref, method="hex", search_range=4)
        assert np.abs(me.mv).max() <= 4

    def test_unknown_method_rejected(self):
        f = textured_frame()
        with pytest.raises(ValueError):
            estimate_motion(f, f, method="zigzag")

    @pytest.mark.parametrize("method", ME_METHODS)
    def test_negative_search_range_rejected(self, method):
        f = textured_frame()
        with pytest.raises(ValueError, match="search_range"):
            estimate_motion(f, f, method=method, search_range=-1)

    @pytest.mark.parametrize("method", ME_METHODS)
    def test_empty_block_rejected(self, method):
        f = textured_frame()
        with pytest.raises(ValueError, match="block"):
            estimate_motion(f, f, method=method, block=0)

    def test_tesa_needs_power_of_two_block(self):
        f = textured_frame(shape=(48, 96))
        with pytest.raises(ValueError, match="block"):
            estimate_motion(f, f, method="tesa", block=12)
        # The other methods take any block that tiles the frame.
        assert estimate_motion(f, f, method="esa", block=12, search_range=2).mv.shape == (4, 8, 2)

    def test_tesa_at_zero_range_is_the_esa_field(self):
        ref = textured_frame(seed=10)
        cur = shift_with_edge_pad(ref, 3, -2)
        tesa = estimate_motion(cur, ref, method="tesa", search_range=0)
        esa = estimate_motion(cur, ref, method="esa", search_range=0)
        np.testing.assert_array_equal(tesa.mv, esa.mv)
        np.testing.assert_array_equal(tesa.sad, esa.sad)
        assert not tesa.mv.any()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_motion(np.zeros((32, 32)), np.zeros((32, 48)))

    def test_non_multiple_shape_rejected(self):
        with pytest.raises(ValueError):
            estimate_motion(np.zeros((30, 32)), np.zeros((30, 32)))

    def test_elapsed_recorded(self):
        f = textured_frame()
        me = estimate_motion(f, f, method="dia")
        assert me.elapsed > 0

    def test_local_object_motion(self):
        """A moving patch inside a static scene gets its own MV."""
        ref = textured_frame(shape=(64, 96), seed=5)
        cur = ref.copy()
        # Move a 32x32 object patch right by 6 px; the uncovered strip is
        # filled with flat gray.
        patch = ref[16:48, 16:48].copy()
        cur[16:48, 16:22] = 100.0
        cur[16:48, 22:54] = patch
        me = estimate_motion(cur, ref, method="esa", search_range=8, lambda_mv=0.0)
        # Block (1, 2) lies fully inside the moved patch: exact MV (6, 0).
        assert tuple(me.mv[1, 2]) == (6, 0)

    @pytest.mark.parametrize("method", ME_METHODS)
    def test_sad_consistent_with_mv(self, method):
        ref = textured_frame(seed=6)
        cur = shift_with_edge_pad(ref, 2, 1)
        me = estimate_motion(cur, ref, method=method, search_range=4)
        # Recompute SAD for the chosen MV of one interior block.
        r, c = 2, 3
        dx, dy = int(me.mv[r, c, 0]), int(me.mv[r, c, 1])
        pad = np.pad(ref, 4, mode="edge")
        blk = cur[r * 16 : (r + 1) * 16, c * 16 : (c + 1) * 16]
        refblk = pad[r * 16 - dy + 4 : r * 16 - dy + 20, c * 16 - dx + 4 : c * 16 - dx + 20]
        assert me.sad[r, c] == pytest.approx(np.abs(blk - refblk).sum(), rel=1e-5)


class TestMotionEstimationProperties:
    """Property tests over all five ME methods (hypothesis-driven).

    Two invariants that must hold for *any* content and any search method:

    - identical current/reference frames yield an all-zero MV field (so
      the paper's ego-motion statistic eta is exactly 0 while stopped);
    - a pure integer global shift is recovered exactly by interior blocks
      (boundary blocks see edge-padding artefacts and are excluded).
    """

    @pytest.mark.parametrize("method", ME_METHODS)
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=1_000_000))
    def test_identical_frames_zero_field(self, method, seed):
        ref = textured_frame(shape=(48, 64), seed=seed)
        me = estimate_motion(ref, ref.copy(), method=method, search_range=8)
        assert np.all(me.mv == 0)
        assert nonzero_mv_ratio(me.mv) == 0.0

    @pytest.mark.parametrize("method", ME_METHODS)
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=1_000_000),
        dx=st.integers(min_value=-5, max_value=5),
        dy=st.integers(min_value=-5, max_value=5),
    )
    def test_integer_shift_recovered_by_interior_blocks(self, method, seed, dx, dy):
        if method == "dia":
            # DIA is the deliberately weak search (no coarse seeding): it
            # is only guaranteed for small displacements.
            dx = int(np.clip(dx, -2, 2))
            dy = int(np.clip(dy, -2, 2))
        ref = textured_frame(shape=(64, 96), seed=seed)
        cur = shift_with_edge_pad(ref, dx, dy)
        me = estimate_motion(cur, ref, method=method, search_range=8)
        inner = me.mv[1:-1, 1:-1]
        assert (inner[..., 0] == dx).mean() > 0.9
        assert (inner[..., 1] == dy).mean() > 0.9


class TestMotionCompensate:
    def test_zero_mv_identity(self):
        ref = textured_frame(seed=7)
        mv = np.zeros((4, 6, 2), dtype=np.int32)
        np.testing.assert_array_equal(motion_compensate(ref, mv), ref)

    def test_global_shift_reconstruction(self):
        ref = textured_frame(seed=8)
        dx, dy = 3, -2
        cur = shift_with_edge_pad(ref, dx, dy)
        mv = np.full((4, 6, 2), (dx, dy), dtype=np.int32)
        pred = motion_compensate(ref, mv)
        # Interior must match exactly.
        np.testing.assert_array_equal(pred[8:-8, 8:-8], cur[8:-8, 8:-8])

    def test_roundtrip_with_estimation(self):
        ref = textured_frame(seed=9)
        cur = shift_with_edge_pad(ref, 4, 2)
        me = estimate_motion(cur, ref, method="hex", search_range=8)
        pred = motion_compensate(ref, me.mv)
        residual = np.abs(cur - pred)
        assert residual[16:-16, 16:-16].mean() < 1.0
