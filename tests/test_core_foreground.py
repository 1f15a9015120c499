"""Tests for ground estimation, clustering, foreground extraction, QP
assignment and MV tracking."""

import numpy as np
import pytest

from repro.core import (
    ForegroundConfig,
    ForegroundExtractor,
    MotionVectorTracker,
    QPAllocator,
    block_centers,
    estimate_ground,
    merge_clusters,
    region_grow,
)
from repro.core.clustering import Cluster, clusters_to_mask
from repro.edge import Detection
from repro.geometry import CameraIntrinsics, translational_flow

INTR = CameraIntrinsics(focal=557.0, width=640, height=384)
GRID = (384 // 16, 640 // 16)


def scene_field(*, objects=(), dz=0.8, camera_height=1.5, noise=0.0, seed=0):
    """Analytic corrected MV field: ground plane plus billboard objects.

    ``objects`` are ``(r0, r1, c0, c1, depth, extra_vx)`` block-rect specs;
    their blocks get the translational flow of a vertical surface at
    ``depth`` plus an optional lateral component.
    """
    rng = np.random.default_rng(seed)
    x, y = block_centers(GRID, INTR)
    f = INTR.focal
    depth = np.where(y >= 2.0, f * camera_height / np.maximum(y, 2.0), np.inf)
    vx = np.zeros(GRID)
    vy = np.zeros(GRID)
    below = y >= 2.0
    gvx, gvy = translational_flow(x[below], y[below], depth[below], (0, 0, dz), f, exact=False)
    vx[below] = gvx
    vy[below] = gvy
    for r0, r1, c0, c1, obj_depth, extra_vx in objects:
        sel = np.s_[r0:r1, c0:c1]
        ovx, ovy = translational_flow(x[sel], y[sel], np.full_like(x[sel], obj_depth), (0, 0, dz), f, exact=False)
        # A physical object stands *on* the ground: below its ground-contact
        # image row (y = f*h/Z) the pixels are road, not object.
        valid = y[sel] <= f * camera_height / obj_depth + 1.0
        vx[sel] = np.where(valid, ovx + extra_vx, vx[sel])
        vy[sel] = np.where(valid, ovy, vy[sel])
    if noise:
        vx += rng.normal(0, noise, GRID)
        vy += rng.normal(0, noise, GRID)
    return np.stack([vx, vy], axis=-1)


class TestEstimateGround:
    def test_pure_ground_classified(self):
        mv = scene_field()
        g = estimate_ground(mv, INTR)
        assert g.found
        # Most usable below-horizon blocks are ground.
        mag = np.hypot(mv[..., 0], mv[..., 1])
        usable = mag >= 0.3
        assert (g.ground_mask & usable).sum() >= 0.8 * usable.sum()

    def test_object_excluded_from_ground(self):
        # A vertical object at 12 m depth, centre-left of the frame.
        obj = (12, 18, 10, 14, 12.0, 0.0)
        mv = scene_field(objects=[obj])
        g = estimate_ground(mv, INTR)
        assert g.found
        # Blocks clearly above the ground contact are never ground; the
        # bottom-most object row (~0.3 m up) is within measurement slack
        # and may go either way.
        assert not g.ground_mask[12:15, 10:14].any()

    def test_object_becomes_seed(self):
        obj = (12, 18, 10, 14, 12.0, 0.0)
        mv = scene_field(objects=[obj])
        g = estimate_ground(mv, INTR)
        assert g.seed_mask[12:18, 10:14].sum() >= 4

    def test_empty_field_not_found(self):
        g = estimate_ground(np.zeros((*GRID, 2)), INTR)
        assert not g.found
        assert g.seed_mask.sum() == 0

    def test_above_horizon_never_ground(self):
        mv = scene_field()
        mv[:5] = 3.0  # junk vectors in the sky
        g = estimate_ground(mv, INTR)
        assert not g.ground_mask[:5].any()

    def test_noise_filter_removes_inconsistent_vectors(self):
        mv = scene_field(noise=0.05, seed=1)
        # Laterally moving object: FOE-inconsistent.
        mv[14:17, 30:34, 0] += 5.0
        g = estimate_ground(mv, INTR)
        assert g.found
        assert not g.ground_mask[14:17, 30:34].any()

    def test_threshold_recorded(self):
        g = estimate_ground(scene_field(), INTR)
        assert np.isfinite(g.threshold)
        assert g.threshold > 0

    def test_hull_covers_ground(self):
        g = estimate_ground(scene_field(), INTR)
        assert g.region_mask.sum() >= g.ground_mask.sum()


class TestRegionGrow:
    def field_with_cluster(self):
        mv = np.zeros((10, 12, 2))
        mv[3:6, 4:7] = (3.0, 1.0)
        return mv

    def test_grows_uniform_region(self):
        mv = self.field_with_cluster()
        seeds = np.zeros((10, 12), dtype=bool)
        seeds[4, 5] = True
        clusters = region_grow(mv, seeds)
        assert len(clusters) == 1
        assert clusters[0].size == 9

    def test_does_not_cross_dissimilar_boundary(self):
        mv = self.field_with_cluster()
        mv[3:6, 8:10] = (-3.0, 1.0)  # opposite-moving region, not adjacent
        seeds = np.zeros((10, 12), dtype=bool)
        seeds[4, 5] = True
        clusters = region_grow(mv, seeds)
        assert clusters[0].size == 9

    def test_blocked_mask_respected(self):
        mv = self.field_with_cluster()
        blocked = np.zeros((10, 12), dtype=bool)
        blocked[3:6, 6] = True
        seeds = np.zeros((10, 12), dtype=bool)
        seeds[4, 4] = True
        clusters = region_grow(mv, seeds, blocked_mask=blocked)
        assert clusters[0].size == 6  # the column behind the wall excluded

    def test_zero_blocks_not_entered(self):
        mv = self.field_with_cluster()
        seeds = np.zeros((10, 12), dtype=bool)
        seeds[4, 5] = True
        clusters = region_grow(mv, seeds, min_magnitude=0.5)
        blocks = set(clusters[0].blocks)
        assert all(3 <= r < 6 and 4 <= c < 7 for r, c in blocks)

    def test_min_cluster_size(self):
        mv = np.zeros((6, 6, 2))
        mv[2, 2] = (2.0, 0.0)
        seeds = np.zeros((6, 6), dtype=bool)
        seeds[2, 2] = True
        assert region_grow(mv, seeds, min_cluster_size=2) == []
        assert len(region_grow(mv, seeds, min_cluster_size=1)) == 1

    def test_mean_guard_limits_drift(self):
        """A smooth gradient field must not be swallowed whole: the
        cluster-mean condition stops growth once blocks deviate from the
        cluster average."""
        mv = np.zeros((1, 20, 2))
        mv[0, :, 0] = np.arange(20) * 1.0  # 1 px per block gradient
        seeds = np.zeros((1, 20), dtype=bool)
        seeds[0, 0] = True
        clusters = region_grow(mv, seeds, similarity=1.5, min_magnitude=0.0)
        assert clusters[0].size < 6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            region_grow(np.zeros((4, 4, 2)), np.zeros((3, 3), dtype=bool))


class TestMergeClusters:
    def make(self, blocks, mv):
        c = Cluster()
        for b in blocks:
            c.add(b, np.asarray(mv, dtype=float))
        return c

    def test_merges_similar_adjacent(self):
        a = self.make([(0, 0), (0, 1)], (2.0, 0.0))
        b = self.make([(0, 3), (0, 4)], (2.2, 0.1))
        merged = merge_clusters([a, b], max_distance=2)
        assert len(merged) == 1
        assert merged[0].size == 4

    def test_keeps_different_directions(self):
        a = self.make([(0, 0)], (2.0, 0.0))
        b = self.make([(0, 2)], (-2.0, 0.0))
        assert len(merge_clusters([a, b])) == 2

    def test_keeps_distant(self):
        a = self.make([(0, 0)], (2.0, 0.0))
        b = self.make([(0, 10)], (2.0, 0.0))
        assert len(merge_clusters([a, b], max_distance=2)) == 2

    def test_keeps_magnitude_mismatch(self):
        a = self.make([(0, 0)], (1.0, 0.0))
        b = self.make([(0, 2)], (10.0, 0.0))
        assert len(merge_clusters([a, b], max_magnitude_ratio=2.5)) == 2

    def test_transitive_merging(self):
        # a-b mergeable, b-c mergeable: all three end up together.
        a = self.make([(0, 0)], (2.0, 0.0))
        b = self.make([(0, 2)], (2.0, 0.0))
        c = self.make([(0, 4)], (2.0, 0.0))
        merged = merge_clusters([a, b, c], max_distance=2)
        assert len(merged) == 1

    def test_input_not_mutated(self):
        a = self.make([(0, 0)], (2.0, 0.0))
        b = self.make([(0, 1)], (2.0, 0.0))
        merge_clusters([a, b])
        assert a.size == 1 and b.size == 1


class TestClustersToMask:
    def test_convex_fill_closes_holes(self):
        c = Cluster()
        # A ring of blocks with a hole in the middle.
        for r, col in [(0, 0), (0, 2), (2, 0), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)]:
            c.add((r, col), np.array([1.0, 0.0]))
        mask = clusters_to_mask([c], (4, 4))
        assert mask[1, 1]  # hole filled by the convex contour

    def test_small_cluster_direct(self):
        c = Cluster()
        c.add((1, 1), np.array([1.0, 0.0]))
        mask = clusters_to_mask([c], (3, 3))
        assert mask[1, 1] and mask.sum() == 1

    def test_empty(self):
        assert clusters_to_mask([], (3, 3)).sum() == 0


class TestForegroundExtractor:
    def test_extracts_object(self):
        obj = (12, 18, 10, 14, 12.0, 0.5)
        mv = scene_field(objects=[obj], noise=0.03, seed=2)
        ext = ForegroundExtractor(INTR)
        fg = ext.extract(mv, moving=True)
        assert not fg.cached and not fg.fallback
        assert fg.mask[12:16, 10:14].mean() > 0.5

    def test_ground_not_foreground(self):
        mv = scene_field(noise=0.02, seed=3)
        ext = ForegroundExtractor(INTR)
        fg = ext.extract(mv, moving=True)
        if fg.ground is not None and fg.ground.found:
            assert not (fg.mask & fg.ground.ground_mask).any()

    def test_stopped_reuses_last(self):
        obj = (12, 18, 10, 14, 12.0, 0.5)
        ext = ForegroundExtractor(INTR)
        fg1 = ext.extract(scene_field(objects=[obj]), moving=True)
        fg2 = ext.extract(np.zeros((*GRID, 2)), moving=False)
        assert fg2.cached
        np.testing.assert_array_equal(fg1.mask, fg2.mask)

    def test_stopped_without_history_falls_back_to_full(self):
        ext = ForegroundExtractor(INTR)
        fg = ext.extract(np.zeros((*GRID, 2)), moving=False)
        assert fg.fallback
        assert fg.mask.all()

    def test_no_ground_reuses_or_falls_back(self):
        ext = ForegroundExtractor(INTR)
        fg = ext.extract(np.zeros((*GRID, 2)), moving=True)
        assert fg.fallback
        assert fg.mask.all()

    def test_reset_clears_cache(self):
        ext = ForegroundExtractor(INTR)
        ext.extract(scene_field(), moving=True)
        ext.reset()
        fg = ext.extract(np.zeros((*GRID, 2)), moving=False)
        assert fg.fallback

    def test_temporal_union(self):
        obj = (12, 18, 10, 14, 12.0, 0.5)
        cfg = ForegroundConfig(temporal_window=2)
        ext = ForegroundExtractor(INTR, cfg)
        fg1 = ext.extract(scene_field(objects=[obj], noise=0.02, seed=4), moving=True)
        assert fg1.mask[12:15, 10:14].any()
        # Next frame the object's MV evidence flickers out entirely (no
        # usable vectors on its blocks) — the union keeps it foreground.
        flicker = scene_field(noise=0.02, seed=5)
        flicker[11:17, 9:15] = 0.0
        fg2 = ext.extract(flicker, moving=True)
        assert (fg1.mask & fg2.mask)[12:15, 10:14].any()

    def test_temporal_union_disabled(self):
        obj = (12, 18, 10, 14, 12.0, 0.5)
        cfg = ForegroundConfig(temporal_window=1, dilate=0)
        ext = ForegroundExtractor(INTR, cfg)
        ext.extract(scene_field(objects=[obj], noise=0.02, seed=4), moving=True)
        fg2 = ext.extract(scene_field(noise=0.02, seed=5), moving=True)
        assert fg2.mask[12:16, 10:14].mean() < 0.5

    def test_foreground_fraction(self):
        ext = ForegroundExtractor(INTR)
        fg = ext.extract(np.zeros((*GRID, 2)), moving=False)
        assert fg.foreground_fraction == 1.0


NAN = float("nan")


def _grow(**kwargs):
    return region_grow(np.ones((3, 3, 2)), np.eye(3, dtype=bool), **kwargs)


def _merge(**kwargs):
    return merge_clusters([Cluster([(0, 0)], np.array([1.0, 0.0])), Cluster([(0, 1)], np.array([0.0, 1.0]))],
                          **kwargs)


#: A threshold that used to switch a stage off without a word, and the name
#: its ValueError must give: (call, keyword, value, name in the message).
SILENT_SWITCHES = [
    (_grow, "similarity", NAN, "similarity"),
    (_grow, "similarity", -1.0, "similarity"),
    (_grow, "min_magnitude", NAN, "min_magnitude"),
    (_grow, "min_magnitude", -0.5, "min_magnitude"),
    (_merge, "max_angle", NAN, "max_angle"),
    (_merge, "max_angle", -0.1, "max_angle"),
    (_merge, "max_magnitude_ratio", NAN, "max_magnitude_ratio"),
    (_merge, "max_magnitude_ratio", 0.5, "max_magnitude_ratio"),
    (_merge, "max_distance", -1, "max_distance"),
    (_merge, "max_distance", NAN, "max_distance"),
    (_merge, "max_distance", float("inf"), "max_distance"),
    (ForegroundConfig, "similarity", NAN, "similarity"),
    (ForegroundConfig, "similarity", -1.5, "similarity"),
    (ForegroundConfig, "min_magnitude", NAN, "min_magnitude"),
    (ForegroundConfig, "foe_tolerance", NAN, "foe_tolerance"),
    (ForegroundConfig, "foe_tolerance", -0.45, "foe_tolerance"),
    (ForegroundConfig, "merge_max_angle", NAN, "merge_max_angle"),
    (ForegroundConfig, "merge_max_angle", -0.4, "merge_max_angle"),
    (ForegroundConfig, "merge_max_distance", -1, "merge_max_distance"),
    (ForegroundConfig, "merge_max_distance", NAN, "merge_max_distance"),
    (ForegroundConfig, "horizon_margin", NAN, "horizon_margin"),
]


@pytest.mark.parametrize("call, keyword, value, name", SILENT_SWITCHES,
                         ids=[f"{call.__name__}-{keyword}={value}" for call, keyword, value, _ in SILENT_SWITCHES])
def test_a_threshold_that_switches_a_stage_off_is_a_named_error(call, keyword, value, name):
    """NaN grew nothing (similarity), merged every near pair (angle, ratio),
    found no ground (foe_tolerance) or dropped the horizon constraint; a
    negative distance merged nothing and a NaN one died converting to int."""
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(**{keyword: value})


def test_the_documented_extremes_stay_accepted():
    assert len(_merge(max_distance=0)) == 2 and len(_merge(max_angle=np.pi)) == 1
    ForegroundConfig(foe_tolerance=float("inf"), horizon_margin=-1.0, merge_max_angle=0.0, merge_max_distance=0)
    assert [c.size for c in _grow(similarity=0.0, min_magnitude=0.0)] == [9]  # equal vectors: gap 0


class TestQPAllocator:
    def test_fixed_delta(self):
        alloc = QPAllocator(delta=15.0)
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        offsets, delta = alloc.offsets(mask)
        assert delta == 15.0
        assert offsets[0, 0] == 0.0
        assert offsets[1, 1] == 15.0

    def test_adaptive_scales_with_size(self):
        alloc = QPAllocator(coefficient=60.0, min_delta=5.0, max_delta=30.0)
        small = np.zeros((10, 10), dtype=bool)
        small[0, :2] = True  # 2%
        large = np.zeros((10, 10), dtype=bool)
        large[:5, :] = True  # 50%
        _, d_small = alloc.offsets(small)
        _, d_large = alloc.offsets(large)
        assert d_small < d_large
        assert d_small == 5.0  # clamped at min
        assert d_large == 30.0  # clamped at max

    def test_adaptive_midrange(self):
        alloc = QPAllocator(coefficient=60.0)
        assert alloc.delta_for(0.25) == pytest.approx(15.0)

    def test_adaptive_flag(self):
        assert QPAllocator().adaptive
        assert not QPAllocator(delta=10.0).adaptive

    def test_offsets_shape(self):
        offsets, _ = QPAllocator().offsets(np.zeros((6, 8), dtype=bool))
        assert offsets.shape == (6, 8)


class TestMotionVectorTracker:
    def test_tracks_box_with_field(self):
        tracker = MotionVectorTracker(block=16)
        tracker.update([Detection("car", (32.0, 32.0, 64.0, 64.0), 0.9, object_id=5)])
        mv = np.zeros((10, 10, 2))
        mv[..., 0] = 4.0  # everything moves right 4 px
        tracked = tracker.track(mv)
        assert tracked[0].bbox == pytest.approx((36.0, 32.0, 68.0, 64.0))

    def test_confidence_decays(self):
        tracker = MotionVectorTracker(confidence_decay=0.9)
        tracker.update([Detection("car", (0, 0, 16, 16), 1.0)])
        mv = np.zeros((4, 4, 2))
        tracker.track(mv)
        tracker.track(mv)
        assert tracker.detections[0].confidence == pytest.approx(0.81)

    def test_frames_since_update(self):
        tracker = MotionVectorTracker()
        tracker.update([])
        assert tracker.frames_since_update == 0
        tracker.track(np.zeros((4, 4, 2)))
        assert tracker.frames_since_update == 1
        tracker.update([])
        assert tracker.frames_since_update == 0

    def test_mean_over_box_region_only(self):
        tracker = MotionVectorTracker(block=16)
        tracker.update([Detection("car", (0.0, 0.0, 16.0, 16.0), 0.9)])
        mv = np.zeros((4, 4, 2))
        mv[0, 0] = (2.0, -1.0)  # only the box's block moves
        mv[2:, 2:] = (50.0, 50.0)  # far-away motion must not matter
        tracked = tracker.track(mv)
        assert tracked[0].bbox == pytest.approx((2.0, -1.0, 18.0, 15.0))

    def test_reset(self):
        tracker = MotionVectorTracker()
        tracker.update([Detection("car", (0, 0, 4, 4), 0.5)])
        tracker.reset()
        assert tracker.detections == []

    def test_empty_tracks_empty(self):
        tracker = MotionVectorTracker()
        assert tracker.track(np.zeros((4, 4, 2))) == []
