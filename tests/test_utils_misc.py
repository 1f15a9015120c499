"""Tests for thresholding, RANSAC, noise and block-reduction utilities."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    block_reduce_sum,
    ransac_linear,
    shift_with_edge_pad,
    triangle_threshold,
    value_noise_1d,
    value_noise_2d,
)

pytestmark = pytest.mark.kernels


class TestTriangleThreshold:
    def test_bimodal_separation(self):
        rng = np.random.default_rng(0)
        low = rng.normal(1.0, 0.1, size=5000)  # dominant peak (ground)
        high = rng.normal(4.0, 0.3, size=500)  # tail (objects)
        thr = triangle_threshold(np.concatenate([low, high]))
        assert 1.2 < thr < 4.0
        # The dominant mode stays below the threshold.
        assert (low < thr).mean() > 0.9

    def test_constant_input(self):
        assert triangle_threshold(np.full(10, 3.0)) == 3.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            triangle_threshold(np.array([]))

    def test_nan_ignored(self):
        vals = np.concatenate([np.full(100, 1.0), np.full(10, 5.0), [np.nan]])
        thr = triangle_threshold(vals)
        assert np.isfinite(thr)

    def test_threshold_within_range(self):
        rng = np.random.default_rng(3)
        vals = rng.exponential(2.0, size=1000)
        thr = triangle_threshold(vals)
        assert vals.min() <= thr <= vals.max()

    def test_mirrored_peak(self):
        # Peak at the high end: the method must mirror and still work.
        rng = np.random.default_rng(4)
        high = rng.normal(4.0, 0.1, size=5000)
        low = rng.normal(1.0, 0.3, size=500)
        thr = triangle_threshold(np.concatenate([low, high]))
        assert 1.0 < thr < 3.9


class TestRansac:
    def test_exact_fit(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        x_true = np.array([2.0, -3.0])
        res = ransac_linear(a, a @ x_true, threshold=1e-6, rng=np.random.default_rng(0))
        np.testing.assert_allclose(res.params, x_true, atol=1e-9)
        assert res.inliers.all()

    def test_rejects_outliers(self):
        rng = np.random.default_rng(1)
        n = 100
        a = rng.normal(size=(n, 2))
        x_true = np.array([1.5, -0.5])
        b = a @ x_true + rng.normal(0, 0.01, size=n)
        outliers = rng.choice(n, size=30, replace=False)
        b[outliers] += rng.uniform(2, 5, size=30) * rng.choice([-1, 1], size=30)
        res = ransac_linear(a, b, threshold=0.05, rng=rng)
        np.testing.assert_allclose(res.params, x_true, atol=0.05)
        assert not res.inliers[outliers].all()

    def test_minimal_system(self):
        a = np.eye(2)
        res = ransac_linear(a, np.array([1.0, 2.0]), threshold=0.1, rng=np.random.default_rng(0))
        np.testing.assert_allclose(res.params, [1.0, 2.0])

    def test_underdetermined_raises(self):
        with pytest.raises(ValueError):
            ransac_linear(np.ones((1, 2)), np.ones(1), threshold=0.1)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ransac_linear(np.ones((3, 2)), np.ones(4), threshold=0.1)

    @pytest.mark.parametrize("shape", [(5, 3), (5, 1), (10,)])
    def test_only_two_unknowns(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            ransac_linear(np.ones(shape), np.ones(shape[0]), threshold=0.1)

    @pytest.mark.parametrize(
        "argument, value",
        [("threshold", float("nan")), ("threshold", -1.0), ("max_iterations", 0), ("max_iterations", -3),
         ("min_inlier_ratio", float("nan")), ("min_inlier_ratio", 2.0), ("min_inlier_ratio", -0.1)],
    )
    def test_arguments_that_would_skip_ransac_are_rejected(self, argument, value):
        """Each of these used to run no useful iteration and quietly return
        the plain least-squares fit."""
        gen = np.random.default_rng(0)
        a, b = gen.normal(size=(20, 2)), gen.normal(size=20)
        kwargs = {"threshold": 0.1, argument: value}
        with pytest.raises(ValueError, match=argument):
            ransac_linear(a, b, rng=gen, **kwargs)

    def test_fallback_when_no_consensus(self):
        # Pure noise: no consensus set; must fall back to full least squares.
        rng = np.random.default_rng(2)
        a = rng.normal(size=(20, 2))
        b = rng.normal(size=20) * 100
        res = ransac_linear(a, b, threshold=1e-9, rng=rng)
        sol, *_ = np.linalg.lstsq(a, b, rcond=None)
        np.testing.assert_allclose(res.params, sol, atol=1e-9)
        assert res.inliers.all()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_recovers_params_property(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(40, 2)) * 10
        x_true = rng.normal(size=2)
        b = a @ x_true
        k = rng.integers(0, 8)
        if k:
            idx = rng.choice(40, size=k, replace=False)
            b[idx] += 50.0
        res = ransac_linear(a, b, threshold=0.01, rng=rng)
        np.testing.assert_allclose(res.params, x_true, atol=1e-6)


class TestValueNoise:
    def test_deterministic(self):
        x = np.linspace(0, 10, 50)
        y = np.linspace(0, 5, 50)
        n1 = value_noise_2d(x, y, seed=42, scale=2.0)
        n2 = value_noise_2d(x, y, seed=42, scale=2.0)
        np.testing.assert_array_equal(n1, n2)

    def test_seed_changes_output(self):
        x = np.linspace(0, 10, 100)
        n1 = value_noise_1d(x, seed=1, scale=1.0)
        n2 = value_noise_1d(x, seed=2, scale=1.0)
        assert not np.allclose(n1, n2)

    def test_range(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1000, 1000, size=1000)
        y = rng.uniform(-1000, 1000, size=1000)
        n = value_noise_2d(x, y, seed=7, scale=3.0, octaves=3)
        assert (n >= 0).all() and (n <= 1).all()

    def test_continuity(self):
        # Adjacent samples at fine spacing differ by a small amount.
        x = np.linspace(0, 4, 4000)
        n = value_noise_1d(x, seed=3, scale=1.0)
        assert np.abs(np.diff(n)).max() < 0.02

    def test_world_anchored(self):
        # Same world coordinates -> same texture regardless of sampling grid.
        a = value_noise_2d(np.array([1.5, 2.5]), np.array([0.5, 0.5]), seed=9, scale=1.0)
        b = value_noise_2d(np.array([2.5, 1.5]), np.array([0.5, 0.5]), seed=9, scale=1.0)
        assert a[0] == b[1] and a[1] == b[0]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            value_noise_2d(np.zeros(2), np.zeros(2), seed=0, scale=0.0)
        with pytest.raises(ValueError):
            value_noise_2d(np.zeros(2), np.zeros(2), seed=0, scale=1.0, octaves=0)


class TestIntegral:
    def test_block_reduce_sum(self):
        img = np.arange(64, dtype=float).reshape(8, 8)
        out = block_reduce_sum(img, 4)
        assert out.shape == (2, 2)
        assert out[0, 0] == pytest.approx(img[:4, :4].sum())
        assert out[1, 1] == pytest.approx(img[4:, 4:].sum())

    def test_block_reduce_bad_shape(self):
        with pytest.raises(ValueError):
            block_reduce_sum(np.zeros((10, 8)), 4)

    def test_shift_identity(self):
        img = np.arange(12, dtype=float).reshape(3, 4)
        np.testing.assert_array_equal(shift_with_edge_pad(img, 0, 0), img)

    def test_shift_direction(self):
        img = np.zeros((5, 5))
        img[2, 2] = 1.0
        # Content moves by (dx=1, dy=0): the bright pixel lands at column 3.
        out = shift_with_edge_pad(img, 1, 0)
        assert out[2, 3] == 1.0
