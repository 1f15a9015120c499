"""The rewritten foreground stage against the parent's, bit for bit.

``tests/_foreground_reference.py`` holds the stage as it stood at e3fcff0
(per-neighbour ``np.hypot`` on two-element arrays, NumPy-scalar hulls, an
even-odd test over the whole grid per cluster, geometry rebuilt by every
consumer).  Everything the stage publishes is compared with it here — masks,
cluster blocks in order, cluster means, hull vertices, ``normalized``,
``threshold``, flags and the temporal-union state — on a seeded sweep of
fields, on every function of the stage directly, and on hand-built inputs
that sit exactly on a threshold, where the scalar spelling must hand the
decision to the reference expression (asserted) or is exact by construction.
The last section holds the clustering hook (one C call on ``cext``) to the
three public calls it replaces, on both backends.
"""

import importlib
import math
import types

import numpy as np
import pytest

import _foreground_reference as ref
from repro import kernels
from repro.analysis import foreground_quality
from repro.core import FOECalibrator, block_centers, clustering, estimate_rotation, remove_rotation
from repro.core.clustering import Cluster, clusters_to_mask, foreground_clusters, merge_clusters, region_grow
from repro.core.foreground import ForegroundConfig, ForegroundExtractor
from repro.core.ground import estimate_ground
from repro.experiments import ExperimentConfig, run_fig12
from repro.geometry import CameraIntrinsics
from repro.utils.convexhull import convex_hull, fill_convex_hull, monotone_chain, rasterize_polygon
from repro.world import kitti_like, nuscenes_like, robotcar_like

pytestmark = pytest.mark.kernels


# ------------------------------------------------------------------ comparing

def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_clusters(new, old):
    assert [c.blocks for c in new] == [c.blocks for c in old]
    for c, d in zip(new, old):
        assert all(type(v) is int for block in c.blocks for v in block)
        assert same_array(c.mean_mv, d.mean_mv), (c.mean_mv, d.mean_mv)


def assert_same_ground(new, old):
    for name in ("ground_mask", "hull", "region_mask", "seed_mask", "normalized"):
        assert same_array(getattr(new, name), getattr(old, name)), name
    assert repr(new.threshold) == repr(old.threshold)  # NaN when nothing was found


def assert_same_result(new, old):
    assert (new.cached, new.fallback) == (old.cached, old.fallback)
    assert same_array(new.mask, old.mask)
    assert_same_clusters(new.clusters, old.clusters)
    assert (new.ground is None) == (old.ground is None)
    if new.ground is not None:
        assert_same_ground(new.ground, old.ground)


def assert_same_state(new, old):
    """The cached mask and the temporal-union window of two extractors."""
    assert (new._last_mask is None) == (old._last_mask is None)
    assert new._last_mask is None or same_array(new._last_mask, old._last_mask)
    assert len(new._recent_masks) == len(old._recent_masks)
    assert all(same_array(a, b) for a, b in zip(new._recent_masks, old._recent_masks))


# ------------------------------------------------------------------- the sweep

def intrinsics_for(rows, cols):
    return CameraIntrinsics(focal=1.1 * cols * 16, width=cols * 16, height=rows * 16)


def scene(rng, rows, cols, *, sky, quarter_pel, dtype):
    """A forward-driving field: ground flow growing with ``y`` below the
    horizon (with drop-outs, so the ground mask is ragged and has holes),
    slow radial flow or an exactly-zero sky above it, and objects planted
    mostly on the ground — each in two or three fragments a block or two
    apart whose vectors nearly agree, which is what merging is for."""
    x, y = ref.block_centers((rows, cols), intrinsics_for(rows, cols))
    gain = np.where(y > 0, 0.00012 * y, 0.0 if sky else 0.004)
    field = np.stack([gain * x, gain * y], axis=-1)
    field += rng.normal(scale=rng.choice([0.02, 0.2]), size=field.shape)
    field[rng.random((rows, cols)) < 0.1] = rng.normal(scale=0.4, size=2)
    if sky:
        field[y < 0] = 0.0
    for _ in range(int(rng.integers(2, 7 + rows * cols // 200))):
        r, c = int(rng.integers(rows // 3, rows)), int(rng.integers(0, cols))
        vector = rng.normal(scale=2.0, size=2)
        for _ in range(int(rng.integers(1, 4))):
            h, w = int(rng.integers(1, max(2, rows // 4))), int(rng.integers(1, max(2, cols // 6)))
            patch = field[r : r + h, c : c + w]
            patch[...] = vector * rng.uniform(0.8, 1.6) + rng.normal(scale=0.15, size=patch.shape)
            r, c = max(0, r + int(rng.integers(-2, 3))), max(0, c + w + int(rng.integers(0, 3)))
    if quarter_pel:
        field = np.round(field * 4) / 4  # exact ties at the 1.5 px threshold
    return field.astype(dtype)


def config(rng):
    return ForegroundConfig(
        similarity=float(rng.choice([1.5, 0.75])),
        merge_max_distance=int(rng.integers(1, 4)),
        min_cluster_size=int(rng.integers(1, 4)),
        dilate=int(rng.integers(0, 3)),
        temporal_window=int(rng.choice([1, 3])),
        horizon_margin=float(rng.choice([8.0, 0.0, -1.0])),
        enable_merging=bool(rng.integers(0, 2)),
        enable_foe_filter=bool(rng.integers(0, 2)),
    )


def run_sequence(seed, rows, cols):
    """Four frames through both extractors; returns how many extracted."""
    rng = np.random.default_rng(seed)
    cfg, intrinsics = config(rng), intrinsics_for(rows, cols)
    new, old = ForegroundExtractor(intrinsics, cfg), ref.ForegroundExtractor(intrinsics, cfg)
    style = dict(sky=bool(rng.integers(0, 2)), quarter_pel=bool(rng.integers(0, 2)),
                 dtype=rng.choice([np.float64, np.float32]))
    extracted = 0
    for _ in range(4):
        mv = scene(rng, rows, cols, **style)
        kwargs = dict(moving=bool(rng.random() < 0.85), foe=(float(rng.normal(scale=6)), float(rng.normal(scale=3))))
        a, b = new.extract(mv, **kwargs), old.extract(mv, **kwargs)
        assert_same_result(a, b)
        assert_same_state(new, old)
        extracted += not (a.cached or a.fallback)
    return extracted


@pytest.mark.parametrize("chunk", range(8))
def test_sweep_matches_the_parent_bit_for_bit(chunk):
    extracted = 0
    for seed in range(chunk * 14, (chunk + 1) * 14):
        rng = np.random.default_rng(1000 + seed)
        rows, cols = int(rng.integers(2, 25)), int(rng.integers(2, 45))
        extracted += run_sequence(seed, rows, cols)
    assert extracted >= 14  # the sweep is not a sweep of fallbacks


def test_paper_resolution_grid_matches_the_parent():
    """56 x 100 macroblocks: the paper's 1600 x 900 frames."""
    assert run_sequence(7, 56, 100) >= 3


@pytest.mark.parametrize("skew", [1 - 3e-10, 1 + 3e-10])
def test_identity_rests_on_the_guard_band_not_on_the_scalar_spelling(skew, monkeypatch):
    """With ``math.hypot`` replaced by a version that is off by 3e-10 — a
    million times what CPython's and libm's may differ by — every outcome is
    still the parent's: inside the band ``np.hypot`` decides, outside it an
    error that small cannot."""
    fake = types.SimpleNamespace(floor=math.floor, hypot=lambda x, y: math.hypot(x, y) * skew)
    monkeypatch.setattr(clustering, "math", fake)
    for seed in range(200, 224):
        run_sequence(seed, 12 + seed % 7, 20 + seed % 11)


# ------------------------------------------------- each function on its own

@pytest.mark.parametrize("seed", range(6))
def test_ground_estimation_matches_the_parent(seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(6, 25)), int(rng.integers(8, 45))
    intrinsics = intrinsics_for(rows, cols)
    found = 0
    for _ in range(6):
        style = dict(sky=bool(rng.integers(0, 2)), quarter_pel=bool(rng.integers(0, 2)), dtype=np.float64)
        mv = scene(rng, rows, cols, **style)
        kwargs = dict(foe=(float(rng.normal(scale=5)), float(rng.normal(scale=3))),
                      min_y=float(rng.choice([2.0, 20.0])), min_ground_blocks=int(rng.choice([4, 1, 40])),
                      threshold_slack=float(rng.choice([1.15, 1.0])), foe_tolerance=float(rng.choice([0.45, np.inf])))
        new, old = estimate_ground(mv, intrinsics, **kwargs), ref.estimate_ground(mv, intrinsics, **kwargs)
        assert_same_ground(new, old)
        found += new.found
    assert found


@pytest.mark.parametrize("seed", range(6))
def test_growing_merging_and_rasterising_match_the_parent(seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(2, 20)), int(rng.integers(2, 30))
    for _ in range(8):
        style = dict(sky=True, quarter_pel=bool(rng.integers(0, 2)), dtype=rng.choice([np.float64, np.float32]))
        mv = scene(rng, rows, cols, **style)
        seeds = rng.random((rows, cols)) < 0.2
        blocked = rng.random((rows, cols)) < 0.15 if rng.integers(0, 2) else None
        kwargs = dict(blocked_mask=blocked, similarity=float(rng.choice([1.5, 0.5, 3.0])),
                      min_cluster_size=int(rng.integers(1, 4)), min_magnitude=float(rng.choice([0.3, 0.0])))
        new, old = region_grow(mv, seeds, **kwargs), ref.region_grow(mv, seeds, **kwargs)
        assert_same_clusters(new, old)
        kwargs = dict(max_angle=float(rng.choice([np.pi / 8, 0.0, np.pi, 4.0])),
                      max_magnitude_ratio=float(rng.choice([2.5, 1.0, 100.0])),
                      max_distance=rng.choice([2, 0, 1, 2.5, 7, 1.5]).item())
        merged = merge_clusters(new, **kwargs)
        assert_same_clusters(merged, ref.merge_clusters(old, **kwargs))
        assert_same_clusters(new, old)  # merging copies, it does not consume
        assert same_array(clusters_to_mask(merged, (rows, cols)), ref.clusters_to_mask(merged, (rows, cols)))


@pytest.mark.parametrize("seed", range(4))
def test_hulls_and_fills_match_the_parent(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        points = [rng.integers(0, 12, size=(n, 2)).astype(float), rng.normal(size=(n, 2)) * 5,
                  np.outer(rng.integers(-3, 4, size=n), [2.0, -1.0])][int(rng.integers(0, 3))]
        assert same_array(convex_hull(points), ref.convex_hull(points))
        blocks = sorted({(int(c), int(r)) for c, r in rng.integers(0, 14, size=(n, 2))})
        hull = monotone_chain(blocks)
        assert same_array(np.array(hull, dtype=float).reshape(-1, 2), ref.convex_hull(np.array(blocks, dtype=float)))
        if len(hull) >= 3:
            mask = np.zeros((14, 14), dtype=bool)
            fill_convex_hull(mask, hull)
            assert same_array(mask, ref.rasterize_polygon(np.array(hull, dtype=float), (14, 14)))
            assert same_array(mask, rasterize_polygon(np.array(hull, dtype=float), (14, 14)))


# ------------------------------------------------------ exactly on a threshold

@pytest.fixture
def counted(monkeypatch):
    """Call counts of the parent's two expressions: ``np.hypot`` where the guard
    band defers to it, and the BLAS / arccos angle between two means."""
    calls = {"_reference_gap": 0, "_direction_angle": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(clustering, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(clustering, name, counting)
    return calls


#: Differences of length exactly (or, in floating point, all but exactly) 1.5.
TIES = [(1.5, 0.0), (0.0, -1.5), (0.9, 1.2), (-1.2, 0.9), (1.5 * 5 / 13, 1.5 * 12 / 13), (1.5 * 8 / 17, -1.5 * 15 / 17),
        (0.42, 1.44), (1.5 / math.sqrt(2), 1.5 / math.sqrt(2))]


@pytest.mark.parametrize("dx, dy", TIES)
@pytest.mark.parametrize("nudge", [0, 1, -1])
def test_similarity_tie_takes_the_guard_branch(dx, dy, nudge, counted):
    """Three blocks in a row.  The second joins the seed; the third resembles
    the second comfortably and sits 1.5 px — give or take an ulp — from the
    running mean of the first two."""
    first = np.array([2.0, -1.0])
    second = first + np.array([dx, dy]) / 3
    third = (first * 1 + second) / 2 + (dx, dy)
    for _ in range(abs(nudge)):
        third = np.nextafter(third, third + nudge * np.sign((dx, dy)))
    mv = np.array([[first, second, third]])
    seeds = np.array([[True, False, False]])
    new = region_grow(mv, seeds, similarity=1.5, min_magnitude=0.0)
    assert counted["_reference_gap"] == 1
    assert_same_clusters(new, ref.region_grow(mv, seeds, similarity=1.5, min_magnitude=0.0))


def test_similarity_far_from_the_threshold_stays_scalar(counted):
    mv = np.array([[[2.0, 0.0], [2.5, 0.0], [9.0, 0.0]]])
    clusters = region_grow(mv, np.array([[True, False, False]]), min_magnitude=0.0)
    assert [c.blocks for c in clusters] == [[(0, 0), (0, 1)]] and counted["_reference_gap"] == 0


def pair(mean_a, mean_b, gap=1):
    """Two one-block clusters ``gap`` columns apart."""
    return [Cluster([(0, 0)], np.array(mean_a, dtype=float)), Cluster([(0, gap)], np.array(mean_b, dtype=float))]


@pytest.mark.parametrize("theta", [np.pi / 8, 0.3, 1.0, 2.5])
@pytest.mark.parametrize("nudge", [0.0, 1.0, -1.0])
def test_angle_tie_is_the_parents_expression(theta, nudge, counted):
    """The angle is still BLAS dot / NumPy arccos — evaluated last, for the few
    pairs that are near and of comparable magnitude — so a threshold exactly on
    it, or one ulp either side, falls as it did."""
    a, b = (1.7, 0.4), (1.7 * math.cos(theta) - 0.4 * math.sin(theta), 1.7 * math.sin(theta) + 0.4 * math.cos(theta))
    on_it = ref._direction_angle(np.array(a), np.array(b))
    max_angle = float(np.nextafter(on_it, on_it + nudge))
    new = merge_clusters(pair(a, b), max_angle=max_angle)
    assert counted["_direction_angle"] == 1
    assert len(new) == (2 if nudge < 0 else 1)
    assert_same_clusters(new, ref.merge_clusters(pair(a, b), max_angle=max_angle))


@pytest.mark.parametrize("b", [(3.0, 1.0), (-3.0, -1.0), (3.0, 1.0 + 1e-12), (0.0, 0.0)])
def test_parallel_and_missing_directions_match_the_parent(b):
    for max_angle in (0.0, 1e-8, np.pi / 8, np.pi, 4.0):
        clusters, kwargs = pair((1.5, 0.5), b), dict(max_angle=max_angle, max_magnitude_ratio=10.0)
        assert_same_clusters(merge_clusters(clusters, **kwargs), ref.merge_clusters(clusters, **kwargs))


def test_the_angle_is_only_evaluated_for_near_pairs_of_comparable_magnitude(counted):
    assert len(merge_clusters(pair((1.0, 0.0), (1.0, 0.2), gap=5))) == 2  # too far apart
    assert len(merge_clusters(pair((1.0, 0.0), (4.0, 0.2)))) == 2  # 4x the magnitude
    assert counted["_direction_angle"] == 0
    assert len(merge_clusters(pair((1.0, 0.0), (1.0, 0.2)))) == 1
    assert counted["_direction_angle"] == 1


@pytest.mark.parametrize("a, b", [((1.0, 0.0), (2.5, 0.0)), ((0.6, 0.8), (1.5, 2.0)), ((0.3, 0.4), (-1.25, 0.0)),
                                  ((1.0, 0.0), (np.nextafter(2.5, 3), 0.0)), ((1.0, 0.0), (np.nextafter(2.5, 2), 0.0))])
def test_magnitude_ratio_tie_is_the_parents_expression(a, b):
    """Both lengths come from ``np.hypot`` as they did: no band to cross."""
    for ratio in (2.5, float(np.nextafter(2.5, 3)), float(np.nextafter(2.5, 2))):
        kwargs = dict(max_angle=np.pi, max_magnitude_ratio=ratio)
        assert_same_clusters(merge_clusters(pair(a, b), **kwargs), ref.merge_clusters(pair(a, b), **kwargs))
    assert len(merge_clusters(pair((1.0, 0.0), (2.5, 0.0)), max_angle=np.pi)) == 1
    assert len(merge_clusters(pair((1.0, 0.0), (np.nextafter(2.5, 3), 0.0)), max_angle=np.pi)) == 2


@pytest.mark.parametrize(
    "max_distance, merges", [(2, True), (2.0, True), (2.5, True), (1, False), (1.999, False), (3, True)])
def test_block_distance_tie(max_distance, merges):
    """Blocks exactly two apart — along a row, and diagonally (Chebyshev)."""
    mean = np.array([1.0, 0.0])
    for clusters in (pair(mean, mean, gap=2), [Cluster([(0, 0), (1, 0)], mean), Cluster([(3, 2), (4, 2)], mean)]):
        new = merge_clusters(clusters, max_distance=max_distance)
        assert len(new) == (1 if merges else 2)
        assert_same_clusters(new, ref.merge_clusters(clusters, max_distance=max_distance))


def test_blocks_exactly_on_a_hull_edge_are_inside():
    """(2, 1) and (2, 3) lie on the slanted edges of this triangle (row, col
    as blocks; the hull runs through their centres), (1, 2)-(3, 2) on neither."""
    cluster = Cluster([(0, 0), (4, 0), (2, 4)], np.zeros(2))
    mask = clusters_to_mask([cluster], (6, 6))
    assert mask[1, 2] and mask[3, 2] and mask[2, 4] and not mask[0, 1] and not mask[1, 3]
    assert same_array(mask, ref.clusters_to_mask([cluster], (6, 6)))
    assert mask.sum() == 13


# ------------------------------------------------------------- the two fixes

def moving_field(rows, cols, seed=0):
    return scene(np.random.default_rng(seed), rows, cols, sky=True, quarter_pel=False, dtype=np.float64)


@pytest.mark.parametrize("path", ["stopped", "no ground", "moving"])
def test_a_changed_grid_is_a_named_error_until_reset(path):
    """At the parent the first two returned the old-shaped mask and the third
    died in a broadcast error at the temporal union."""
    extractor = ForegroundExtractor(intrinsics_for(18, 30))
    assert not extractor.extract(moving_field(18, 30), moving=True).fallback
    mv = np.zeros((12, 40, 2)) if path == "no ground" else moving_field(12, 40)
    with pytest.raises(ValueError, match=r"grid changed from \(18, 30\) to \(12, 40\); call reset\(\)"):
        extractor.extract(mv, moving=path != "stopped")
    extractor.reset()
    extractor.intrinsics = intrinsics_for(12, 40)
    assert extractor.extract(mv, moving=path != "stopped").mask.shape == (12, 40)


def test_a_block_outside_the_grid_is_a_named_error():
    """``mask[-1, -1]`` used to wrap around to the far corner."""
    for blocks in ([(-1, -1), (0, 0)], [(0, 0), (3, 1)], [(1, 3)], [(0, 0), (0, 1), (1, -1)]):
        with pytest.raises(ValueError, match=r"outside grid \(3, 3\)"):
            clusters_to_mask([Cluster(blocks=blocks)], (3, 3))
    assert clusters_to_mask([Cluster(blocks=[(2, 2), (0, 0)])], (3, 3)).sum() == 2


# ------------------------------------------------------- the shared geometry

def test_block_centres_are_memoised_equal_and_read_only():
    for shape, block in (((18, 30), 16), ((12, 40), 16), ((7, 9), 8), ((56, 100), 16)):
        intrinsics = CameraIntrinsics(focal=500.0, width=shape[1] * block, height=shape[0] * block)
        x, y = block_centers(shape, intrinsics, block=block)
        fresh_x, fresh_y = ref.block_centers(shape, intrinsics, block=block)
        assert same_array(x, fresh_x) and same_array(y, fresh_y)
        assert not x.flags.writeable and not y.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0] = 0.0
        again = block_centers(list(shape), CameraIntrinsics(500.0, shape[1] * block, shape[0] * block), block=block)
        assert again[0] is x and again[1] is y  # one computation per equal (grid, intrinsics, block)


@pytest.fixture
def parent_stage(monkeypatch):
    """Rebinds every consumer of the stage to the parent's bodies."""
    def enter():
        # By module name: the packages re-export functions named like the modules.
        for module, name in (("core.rotation", "block_centers"), ("core.calibration", "block_centers"),
                             ("analysis.foreground_quality", "ForegroundExtractor"),
                             ("experiments.fig12", "ForegroundExtractor")):
            monkeypatch.setattr(importlib.import_module(f"repro.{module}"), name, getattr(ref, name))
    return enter


def test_rotation_and_calibration_read_the_same_geometry(parent_stage):
    intrinsics = intrinsics_for(18, 30)

    def outputs():
        out = []
        calibrator = FOECalibrator(intrinsics)
        for seed in range(4):
            mv = moving_field(18, 30, seed)
            estimate = estimate_rotation(mv, intrinsics, rng=np.random.default_rng(seed))
            corrected = remove_rotation(mv, intrinsics, estimate)
            out.append((estimate, corrected.tobytes(), calibrator.update(corrected, moving=True)))
        return out

    shared = outputs()
    parent_stage()
    assert outputs() == shared


def test_foreground_quality_and_fig12_are_unchanged(parent_stage):
    clips = [make(3, n_frames=5).preload() for make in (kitti_like, nuscenes_like, robotcar_like)]

    def outputs():
        rows = run_fig12(ExperimentConfig(n_clips=1, n_frames=5), background_qps=(28.0,), datasets=("nuscenes",))
        return [foreground_quality(clip) for clip in clips], rows

    shared = outputs()
    parent_stage()
    assert outputs() == shared


# ----------------------------------------- the clustering hook, bit for bit

#: ``foreground_clusters``' keywords as ``ForegroundExtractor.extract`` passes them.
DEFAULTS = dict(similarity=1.5, min_cluster_size=2, min_magnitude=0.3, merge=True, max_angle=np.pi / 8,
                max_magnitude_ratio=2.5, max_distance=2)


def assert_same_clustering(got, want):
    (clusters, mask), (want_clusters, want_mask) = got, want
    assert [c.blocks for c in clusters] == [c.blocks for c in want_clusters]
    assert all(type(v) is int for c in clusters for block in c.blocks for v in block)
    for c in clusters:
        assert c.mean_mv.dtype == np.float64 and c.mean_mv.shape == (2,)
    assert [[v.hex() for v in c.mean_mv.tolist()] for c in clusters] == [
        [v.hex() for v in c.mean_mv.tolist()] for c in want_clusters]
    assert same_array(mask, want_mask)


def clustered(mv, seeds, blocked=None, **kwargs):
    """``foreground_clusters`` on the active backend, checked against the three
    public calls it stands for; on ``cext`` the hook must have answered."""
    kwargs = {**DEFAULTS, **kwargs}
    hook = kernels.active().foreground_clusters
    if hook is not None:
        assert hook(mv, seeds, blocked, **kwargs) is not None
    got = foreground_clusters(mv, seeds, blocked_mask=blocked, **kwargs)
    assert_same_clustering(got, clustering._foreground_clusters_reference(mv, seeds, blocked, **kwargs))
    return got


def field_of(shape, vectors):
    """A zero field with ``{(r, c): (vx, vy)}`` set."""
    mv = np.zeros((*shape, 2))
    for block, vector in vectors.items():
        mv[block] = vector
    return mv


def mask_of(shape, blocks):
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(zip(*blocks))] = True
    return mask


@pytest.mark.usefixtures("kernel_backend")
class TestTheClusteringHook:
    """``foreground_clusters`` (one C call on ``cext``) against ``region_grow``
    -> ``merge_clusters`` -> ``clusters_to_mask``: block lists and their types,
    means by ``float.hex``, mask bytes."""

    @pytest.mark.parametrize("seed", range(12))
    def test_sweep(self, seed):
        rng = np.random.default_rng(4000 + seed)
        rows, cols = int(rng.integers(2, 30)), int(rng.integers(2, 50))
        mv = scene(rng, rows, cols, sky=bool(rng.integers(0, 2)), quarter_pel=bool(rng.integers(0, 2)),
                   dtype=np.float64)
        seeds = rng.random((rows, cols)) < rng.choice([0.1, 0.3])
        blocked = (rng.random((rows, cols)) < 0.15) & ~seeds
        clustered(mv, seeds, blocked, similarity=float(rng.choice([1.5, 0.75])),
                  min_cluster_size=int(rng.integers(1, 4)), merge=bool(rng.integers(0, 4)),
                  max_distance=int(rng.integers(1, 4)))

    def test_gaps_exactly_on_the_threshold(self):
        """3-4-5 steps: each joining block is exactly ``similarity`` from its
        neighbour and from the running mean."""
        mv = np.array([[[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]], [[4.0, -3.0], [5.0, 0.0], [0.0, 5.0]]])
        seeds = mask_of((2, 3), [(0, 0)])
        (cluster,), _ = clustered(mv, seeds, similarity=5.0, min_cluster_size=1, min_magnitude=0.0)
        assert cluster.blocks == [(0, 0), (0, 1), (1, 1), (1, 0)]
        (cluster,), _ = clustered(mv, seeds, similarity=float(np.nextafter(5.0, 0.0)), min_cluster_size=1,
                                  min_magnitude=0.0)
        assert cluster.blocks == [(0, 0)]  # one ulp under, the first step is already too far
        ints = np.random.default_rng(5).integers(-4, 5, size=(9, 12, 2)) * 1.0
        clustered(ints, np.random.default_rng(6).random((9, 12)) < 0.3, similarity=5.0, max_distance=1)

    def test_quarter_pel_fields(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            mv = rng.integers(-8, 9, size=(10, 16, 2)) * 0.25
            clustered(mv, rng.random((10, 16)) < 0.3, min_cluster_size=1, max_magnitude_ratio=4.0)

    def test_negative_zero_components(self):
        """A seed's ``-0.0`` becomes ``0.0`` in its mean, as ``Cluster.add`` has it."""
        rng = np.random.default_rng(8)
        mv = rng.choice([0.0, -0.0, 0.25, -0.25], size=(6, 8, 2))
        mv[0, 0] = (-0.0, -0.0)
        seeds = rng.random((6, 8)) < 0.4
        seeds[0, 0] = True
        clusters, _ = clustered(mv, seeds, similarity=0.25, min_cluster_size=1, min_magnitude=0.0, merge=False)
        assert all(np.signbit(c.mean_mv[k]) == (c.mean_mv[k] < 0) for c in clusters for k in (0, 1))

    def test_dropped_clusters_still_stop_growth(self):
        """The first seed grows a pair that is dropped by size; the second
        seed's cluster, which would take (0, 1) were it free, may not."""
        mv = field_of((2, 4), {(0, 0): (2.0, 0.0), (0, 1): (3.0, 0.0), **dict.fromkeys(
            [(0, 2), (0, 3), (1, 2), (1, 3)], (4.2, 0.0))})
        (cluster,), mask = clustered(mv, mask_of((2, 4), [(0, 0), (0, 2)]), min_cluster_size=3)
        assert cluster.blocks == [(0, 2), (0, 3), (1, 2), (1, 3)] and not mask[:, :2].any()

    @pytest.mark.parametrize("shape", [(1, 23), (19, 1), (1, 1)])
    def test_one_row_and_one_column(self, shape):
        rng = np.random.default_rng(9)
        mv = np.round(rng.normal(scale=2.0, size=(*shape, 2)) * 4) / 4
        clustered(mv, rng.random(shape) < 0.4, min_cluster_size=1, max_magnitude_ratio=1e6, max_angle=3.0)

    def test_all_seeds_and_no_seeds(self):
        rng = np.random.default_rng(10)
        mv = scene(rng, 12, 20, sky=False, quarter_pel=True, dtype=np.float64)
        clustered(mv, np.ones((12, 20), dtype=bool), min_cluster_size=1)
        assert clustered(mv, np.zeros((12, 20), dtype=bool))[0] == []

    def test_right_to_left_hull_edges_floor(self):
        """An L of blocks whose hull edge runs right to left: truncating its
        negative bound would fill (2, 4) too."""
        blocks = [(1, 5), (2, 5), (3, 4), (3, 5)]
        mv = field_of((5, 7), dict.fromkeys(blocks, (2.0, 1.0)))
        _, mask = clustered(mv, mask_of((5, 7), [(1, 5)]), min_cluster_size=1)
        assert same_array(mask, mask_of((5, 7), blocks))

    def test_collinear_clusters_are_not_filled(self):
        """A straight run of blocks, and three diagonal singletons merged into
        one collinear cluster: no contour beyond the blocks themselves."""
        line = [(4, c) for c in range(5)]
        diagonal = [(0, 1), (1, 2), (2, 3)]
        mv = field_of((6, 8), {**dict.fromkeys(line, (1.5, 0.5)), **dict.fromkeys(diagonal, (-1.0, 2.0))})
        clusters, mask = clustered(mv, mask_of((6, 8), [(4, 0), *diagonal]), min_cluster_size=1)
        assert [c.blocks for c in clusters] == [diagonal, line]
        assert same_array(mask, mask_of((6, 8), line + diagonal))

    @pytest.mark.parametrize("max_distance", [0, 0.5, 25, 30.5])
    def test_merge_reach_of_nothing_and_past_the_grid(self, max_distance):
        rng = np.random.default_rng(11)
        mv = scene(rng, 14, 22, sky=True, quarter_pel=True, dtype=np.float64)
        clustered(mv, rng.random((14, 22)) < 0.3, min_cluster_size=1, max_distance=max_distance,
                  max_angle=2.5, max_magnitude_ratio=50.0)


def test_a_merge_angle_inside_the_band_is_declined_to_the_reference(cext, monkeypatch):
    """C cannot replay ``np.dot`` / ``np.arccos``: a pair whose angle sits on
    ``max_angle`` is the reference's to decide, for the call and for ``extract``."""
    a = (1.7, 0.4)
    b = (1.7 * math.cos(0.3) - 0.4 * math.sin(0.3), 1.7 * math.sin(0.3) + 0.4 * math.cos(0.3))
    mv, seeds, blocked = field_of((1, 3), {(0, 0): a, (0, 2): b}), mask_of((1, 3), [(0, 0), (0, 2)]), None
    kwargs = {**DEFAULTS, "min_cluster_size": 1,
              "max_angle": clustering._direction_angle(np.array(a), np.array(b))}
    assert cext.foreground_clusters(mv, seeds, blocked, **kwargs) is None
    got = foreground_clusters(mv, seeds, blocked_mask=blocked, **kwargs)
    assert_same_clustering(got, clustering._foreground_clusters_reference(mv, seeds, blocked, **kwargs))
    assert [c.blocks for c in got[0]] == [[(0, 0), (0, 2)]]  # on the threshold is not past it

    # The first angle one extract call evaluates, made its threshold: the
    # pairs before it merged on distance and magnitude alone, so the same
    # pair meets the same means — on the band.
    mv, intrinsics = moving_field(18, 30, 1), intrinsics_for(18, 30)
    angles, angle = [], clustering._direction_angle
    monkeypatch.setattr(clustering, "_direction_angle", lambda u, v: angles.append(angle(u, v)) or angles[-1])
    with kernels.use_backend("numpy"):
        ForegroundExtractor(intrinsics).extract(mv, moving=True)
    monkeypatch.setattr(clustering, "_direction_angle", angle)
    config = ForegroundConfig(merge_max_angle=angles[0])
    answers, hook = [], cext.foreground_clusters
    monkeypatch.setattr(cext, "foreground_clusters", lambda *a, **kw: answers.append(hook(*a, **kw)) or answers[-1])
    new = ForegroundExtractor(intrinsics, config).extract(mv, moving=True)
    assert answers == [None]
    assert_same_result(new, ref.ForegroundExtractor(intrinsics, config).extract(mv, moving=True))
