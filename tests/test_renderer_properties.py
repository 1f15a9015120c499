"""Property tests for the renderer's ground-truth contracts."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.geometry import CameraIntrinsics
from repro.world import (
    EgoTrajectory,
    Renderer,
    Scene,
    SceneObject,
    StraightSegment,
    moving_car,
    parked_car,
    pedestrian,
)

pytestmark = pytest.mark.kernels

INTR = CameraIntrinsics(focal=278.0, width=320, height=192)


def _make(kind, x, z, seed):
    if kind == "car":
        return parked_car(x, z, seed=seed)
    if kind == "ped":
        return pedestrian(x, z, seed=seed)
    if kind == "mover":
        return moving_car(x, z, speed=5.0, seed=seed)
    # A wall across the road: not detectable, hides whatever stands behind it.
    return SceneObject(kind="building", base=(x, z), width=7.0, height=4.0, texture_seed=seed)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(0, 10_000),
    st.lists(
        st.tuples(
            st.sampled_from(["car", "ped", "mover"]),
            st.floats(-6.0, 6.0),
            st.floats(6.0, 80.0),
        ),
        min_size=1,
        max_size=6,
    ),
    st.floats(0.0, 2.0),
)
def test_annotation_contracts(seed, specs, t):
    """For arbitrary object layouts and times, every annotation satisfies
    its invariants: bbox inside the frame, visibility in (0, 1], pixel
    count consistent with the id-buffer, positive depth."""
    scene = Scene(
        trajectory=EgoTrajectory([StraightSegment(3.0, 8.0)]),
        objects=[_make(kind, x, z, seed) for kind, x, z in specs],
        texture_seed=seed,
    )
    record = Renderer(INTR).render(scene, t)
    h, w = record.image.shape
    assert record.image.dtype == np.float32
    assert 0.0 <= record.image.min() and record.image.max() <= 255.0
    for ann in record.annotations:
        x0, y0, x1, y1 = ann.bbox
        assert 0 <= x0 < x1 <= w
        assert 0 <= y0 < y1 <= h
        assert 0.0 < ann.visibility <= 1.0
        assert ann.depth > 0
        assert ann.pixel_count == int((record.id_buffer == ann.object_id).sum())
        # The bbox is exactly the extent of the object's visible pixels.
        ys, xs = np.nonzero(record.id_buffer == ann.object_id)
        assert x0 == xs.min() and x1 == xs.max() + 1
        assert y0 == ys.min() and y1 == ys.max() + 1


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(0, 10_000),
    st.lists(
        st.tuples(
            st.sampled_from(["car", "ped", "mover", "wall"]),
            # Wide and close enough to cut objects at the frame edge, far
            # enough to shrink them below any annotation threshold.
            st.floats(-9.0, 9.0),
            st.floats(2.5, 220.0),
        ),
        min_size=1,
        max_size=6,
    ),
    # (x, z, gap): a pedestrian standing `gap` metres behind a car or wall.
    st.lists(
        st.tuples(st.sampled_from(["car", "wall"]), st.floats(-3.0, 3.0), st.floats(5.0, 40.0), st.floats(0.2, 3.0)),
        max_size=2,
    ),
    st.floats(0.0, 2.0),
    st.sampled_from([0, 8, 150]),
)
def test_annotations_equal_a_full_frame_recount(seed, specs, hidden, t, min_pixels):
    """The renderer scans each object's own window; the oracle here scans
    the whole id-buffer, and renders each object alone for the unoccluded
    pixel count.  Both must tell the same story for every object — clipped
    by the frame edge, fully occluded, or below the annotation threshold."""
    objects = [_make(kind, x, z, seed) for kind, x, z in specs]
    for front, x, z, gap in hidden:
        objects += [_make(front, x, z, seed), pedestrian(x, z + gap, seed=seed + 1)]
    trajectory = EgoTrajectory([StraightSegment(3.0, 8.0)])
    scene = Scene(trajectory=trajectory, objects=objects, texture_seed=seed)
    renderer = Renderer(INTR, min_annotation_pixels=min_pixels)
    record = renderer.render(scene, t)

    expected = {}
    for obj in scene.objects:
        ys, xs = np.nonzero(record.id_buffer == obj.object_id)
        if not obj.detectable or ys.size < max(min_pixels, 1):
            if obj.detectable:
                event("hidden or off-frame" if ys.size == 0 else "below the threshold")
            continue
        if xs.min() == 0 or xs.max() == INTR.width - 1 or ys.max() == INTR.height - 1:
            event("clipped by the frame edge")
        alone = renderer.render(Scene(trajectory=trajectory, objects=[obj], texture_seed=seed), t)
        unoccluded = int((alone.id_buffer >= 2).sum())
        assert unoccluded >= ys.size
        expected[obj.object_id] = (
            (float(xs.min()), float(ys.min()), float(xs.max() + 1), float(ys.max() + 1)),
            int(ys.size),
            ys.size / unoccluded,
        )
    got = {a.object_id: (a.bbox, a.pixel_count, a.visibility) for a in record.annotations}
    assert got == expected
    assert [a.object_id for a in record.annotations] == sorted(expected)
