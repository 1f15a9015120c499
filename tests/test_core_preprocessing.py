"""Tests for ego-motion judgement and rotational-component elimination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EgoMotionJudge,
    block_centers,
    estimate_rotation,
    r_sample,
    remove_rotation,
)
from repro.geometry import CameraIntrinsics, combined_flow

INTR = CameraIntrinsics(focal=557.0, width=640, height=384)
GRID = (384 // 16, 640 // 16)


def synthetic_field(delta=(0.0, 0.0, 0.8), dphi=(0.0, 0.0, 0.0), *, noise=0.0, seed=0):
    """Analytic MV field of a static scene on the macroblock grid."""
    rng = np.random.default_rng(seed)
    x, y = block_centers(GRID, INTR)
    # Depth model: ground below the horizon, far wall above.
    depth = np.where(y > 2, INTR.focal * 1.5 / np.maximum(y, 2.0), 60.0)
    vx, vy = combined_flow(x, y, depth, delta, dphi, INTR.focal)
    if noise:
        vx = vx + rng.normal(0, noise, vx.shape)
        vy = vy + rng.normal(0, noise, vy.shape)
    return np.stack([vx, vy], axis=-1)


class TestBlockCenters:
    def test_shape_and_center(self):
        x, y = block_centers(GRID, INTR)
        assert x.shape == GRID
        # Centre of the grid is near the principal point.
        assert abs(x[GRID[0] // 2, GRID[1] // 2]) < 16
        assert abs(y[GRID[0] // 2, GRID[1] // 2]) < 16

    def test_spacing(self):
        x, y = block_centers(GRID, INTR)
        assert np.allclose(np.diff(x, axis=1), 16.0)
        assert np.allclose(np.diff(y, axis=0), 16.0)


class TestEgoMotionJudge:
    def test_moving_field_judged_moving(self):
        judge = EgoMotionJudge()
        assert judge.update(synthetic_field(delta=(0, 0, 1.0))) is True

    def test_static_field_judged_static(self):
        judge = EgoMotionJudge()
        mv = np.zeros((*GRID, 2))
        assert judge.update(mv) is False

    def test_threshold_boundary(self):
        judge = EgoMotionJudge(threshold=0.15)
        mv = np.zeros((10, 10, 2))
        mv[:2, :7, 0] = 1.0  # 14 of 100 blocks non-zero
        assert judge.judge_raw(mv) is False
        mv[0, 7:9, 0] = 1.0  # 16 non-zero
        assert judge.judge_raw(mv) is True

    def test_hysteresis_suppresses_flicker(self):
        judge = EgoMotionJudge(hysteresis=2)
        moving = synthetic_field(delta=(0, 0, 1.0))
        static = np.zeros((*GRID, 2))
        assert judge.update(moving) is True
        # One static frame does not flip the state with hysteresis=2 ...
        assert judge.update(static) is True
        # ... but a second consecutive one does.
        assert judge.update(static) is False

    def test_reset(self):
        judge = EgoMotionJudge()
        judge.update(synthetic_field())
        judge.reset()
        assert judge.moving is False

    def test_eta_counts(self):
        judge = EgoMotionJudge()
        mv = np.zeros((4, 5, 2))
        mv[0, 0, 1] = 0.5
        assert judge.eta(mv) == pytest.approx(1 / 20)


class TestRSampling:
    def test_selects_nearest_to_foe(self):
        mv = synthetic_field(delta=(0, 0, 1.0))
        x, y = block_centers(GRID, INTR)
        idx = r_sample(mv, x, y, k=10)
        r = np.hypot(x.ravel(), y.ravel())
        mag = np.hypot(mv[..., 0], mv[..., 1]).ravel()
        chosen_r = r[idx]
        # Every chosen vector is usable and closer than any unchosen usable one.
        unchosen = np.setdiff1d(np.flatnonzero(mag >= 0.5), idx)
        if unchosen.size:
            assert chosen_r.max() <= r[unchosen].min() + 1e-9

    def test_skips_zero_vectors(self):
        mv = np.zeros((*GRID, 2))
        x, y = block_centers(GRID, INTR)
        assert r_sample(mv, x, y, k=10).size == 0

    def test_k_limits_sample(self):
        mv = synthetic_field()
        x, y = block_centers(GRID, INTR)
        assert len(r_sample(mv, x, y, k=30)) == 30

    @pytest.mark.parametrize("k", [0, -5])
    def test_sample_size_below_one_is_refused(self, k):
        """A negative ``k`` would slice from the end of the distance order,
        which is where the unusable (zero) vectors sort."""
        mv = synthetic_field()
        mv[:4] = 0.0
        x, y = block_centers(GRID, INTR)
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            r_sample(mv, x, y, k=k)
        for sampling in ("r", "random"):
            with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
                estimate_rotation(mv, INTR, k=k, sampling=sampling)


class TestRotationEstimation:
    def test_recovers_pure_yaw(self):
        mv = synthetic_field(delta=(0, 0, 0.8), dphi=(0.0, 0.005, 0.0))
        est = estimate_rotation(mv, INTR, k=70, rng=np.random.default_rng(0))
        assert est is not None
        assert est.dphi_y == pytest.approx(0.005, abs=5e-4)
        assert est.dphi_x == pytest.approx(0.0, abs=5e-4)

    def test_recovers_pure_pitch(self):
        mv = synthetic_field(delta=(0, 0, 0.8), dphi=(0.003, 0.0, 0.0))
        est = estimate_rotation(mv, INTR, k=70, rng=np.random.default_rng(0))
        assert est is not None
        assert est.dphi_x == pytest.approx(0.003, abs=5e-4)

    def test_recovers_combined(self):
        mv = synthetic_field(delta=(0, 0, 1.2), dphi=(-0.002, 0.004, 0.0))
        est = estimate_rotation(mv, INTR, k=70, rng=np.random.default_rng(1))
        assert est is not None
        assert est.dphi_x == pytest.approx(-0.002, abs=5e-4)
        assert est.dphi_y == pytest.approx(0.004, abs=5e-4)

    def test_robust_to_noise_and_outliers(self):
        mv = synthetic_field(delta=(0, 0, 1.0), dphi=(0.0, 0.004, 0.0), noise=0.15, seed=3)
        # Corrupt some vectors (moving objects).
        mv[10:14, 10:16] += np.array([4.0, -2.0])
        est = estimate_rotation(mv, INTR, k=70, rng=np.random.default_rng(2))
        assert est is not None
        assert est.dphi_y == pytest.approx(0.004, abs=1.5e-3)

    def test_none_for_static_field(self):
        mv = np.zeros((*GRID, 2))
        assert estimate_rotation(mv, INTR) is None

    def test_random_sampling_mode(self):
        mv = synthetic_field(delta=(0, 0, 1.0), dphi=(0.0, 0.004, 0.0))
        est = estimate_rotation(mv, INTR, k=70, sampling="random", rng=np.random.default_rng(0))
        assert est is not None
        assert est.dphi_y == pytest.approx(0.004, abs=1e-3)

    def test_bad_sampling_mode(self):
        mv = synthetic_field()
        with pytest.raises(ValueError):
            estimate_rotation(mv, INTR, sampling="stratified")

    @pytest.mark.parametrize("threshold", [float("nan"), -0.5])
    def test_a_threshold_that_would_skip_ransac_is_refused(self, threshold):
        mv = synthetic_field(delta=(0, 0, 1.0), dphi=(0.0, 0.004, 0.0))
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            estimate_rotation(mv, INTR, ransac_threshold=threshold, rng=np.random.default_rng(0))

    def test_rates_scale_with_fps(self):
        mv = synthetic_field(delta=(0, 0, 1.0), dphi=(0.001, 0.002, 0.0))
        est = estimate_rotation(mv, INTR, rng=np.random.default_rng(0))
        wx, wy = est.rates(10.0)
        assert wx == pytest.approx(est.dphi_x * 10.0)
        assert wy == pytest.approx(est.dphi_y * 10.0)

    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(-0.006, 0.006),
        st.floats(-0.004, 0.004),
        st.integers(0, 1000),
    )
    def test_recovery_property(self, yaw, pitch, seed):
        mv = synthetic_field(delta=(0, 0, 1.0), dphi=(pitch, yaw, 0.0), noise=0.05, seed=seed)
        est = estimate_rotation(mv, INTR, k=70, rng=np.random.default_rng(seed))
        assert est is not None
        assert est.dphi_y == pytest.approx(yaw, abs=1e-3)
        assert est.dphi_x == pytest.approx(pitch, abs=1e-3)

    def test_r_sampling_small_k_matches_random_large_k(self):
        """The Fig 7 claim: R-sampling with 30 samples reaches the accuracy
        of random sampling with 500 — i.e. the carefully chosen small
        sample carries as much rotation information as a large blind one,
        at a fraction of the RANSAC cost."""
        errs_r, errs_rand = [], []
        rows, cols = GRID
        for seed in range(10):
            mv = synthetic_field(delta=(0, 0, 1.0), dphi=(0.0, 0.004, 0.0), noise=0.15, seed=seed)
            rng = np.random.default_rng(seed + 100)
            # Crossing objects in the lower corners: large lateral MVs.
            mv[rows - 8 :, : cols // 3] += rng.normal(0, 3.0, (8, cols // 3, 2))
            mv[rows - 8 :, -(cols // 3) :] += rng.normal(0, 3.0, (8, cols // 3, 2))
            est_r = estimate_rotation(mv, INTR, k=30, sampling="r", rng=np.random.default_rng(seed))
            est_rand = estimate_rotation(
                mv, INTR, k=500, sampling="random", rng=np.random.default_rng(seed)
            )
            errs_r.append(abs(est_r.dphi_y - 0.004))
            errs_rand.append(abs(est_rand.dphi_y - 0.004))
        assert np.mean(errs_r) < 5e-4  # accurate in absolute terms
        assert np.mean(errs_r) <= np.mean(errs_rand) + 2e-4  # no worse than random-500


class TestRemoveRotation:
    def test_removes_rotational_component(self):
        delta = (0.0, 0.0, 0.9)
        dphi = (0.002, -0.004, 0.0)
        mv = synthetic_field(delta=delta, dphi=dphi)
        est = estimate_rotation(mv, INTR, rng=np.random.default_rng(0))
        corrected = remove_rotation(mv, INTR, est)
        pure = synthetic_field(delta=delta)
        np.testing.assert_allclose(corrected, pure, atol=0.35)

    def test_noop_for_zero_estimate(self):
        mv = synthetic_field()
        from repro.core.rotation import RotationEstimate

        zero = RotationEstimate(0.0, 0.0, 0, 0, 0.0)
        np.testing.assert_allclose(remove_rotation(mv, INTR, zero), mv)
