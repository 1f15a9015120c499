"""Bit-exactness pins for the ``render_surfaces`` kernel.

``Renderer.render`` paints the ground, the placed billboards and the sky
through the ``render_surfaces`` hook when the active backend binds one, and
through ``_render_surfaces_reference`` otherwise.  The compiled kernel
resolves visibility first and textures each visible pixel once; the
contract is the other hooks' — the answer equals the reference's to the
last bit: the float32 image (sky included), the id-buffer and each placed
object's statistics (painted and kept pixels, the kept pixels' bounding
box) — and what it cannot prove it declines (``None``), so the reference
answers.

The sweep covers the three presets at the perf ruler's resolutions and at
their defaults, under weather contrasts strong enough that the texture clip
bites, and compares whole frame records across the two backends;
hypothesis scenes add objects cut by the frame edge, hidden behind a wall,
and — placed by hand, past the renderer's culling — straddling the camera
so the ``tt > 0.1`` test decides.  Hand-built rays put the shaders'
remainders on their edges.  The sanitised kernel run
(``tests/run_sanitized_kernels.py``) runs this file, so the edge cases of
the C loops — no objects, windows on every frame edge, an object that kept
no pixel — are here too.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.geometry import CameraIntrinsics
from repro.kernels.cext import _remainder_cases, _same_answer
from repro.world import (
    EgoTrajectory,
    Renderer,
    Scene,
    SceneObject,
    StraightSegment,
    TurnSegment,
    kitti_like,
    nuscenes_like,
    parked_car,
    pedestrian,
    robotcar_like,
)
from repro.world.renderer import STAT_PAINTED, STAT_VISIBLE, Placed, _render_surfaces, _render_surfaces_reference

PRESETS = {
    "nuscenes": lambda resolution: nuscenes_like(11, n_frames=12, **resolution),
    "robotcar": lambda resolution: robotcar_like(11, n_frames=12, **resolution),
    "kitti": lambda resolution: kitti_like(5, n_frames=12, turning=True, **resolution),
}
RESOLUTIONS = {
    "320x192": dict(resolution=(320, 192)),
    "480x288": dict(resolution=(480, 288)),
    "640x192": dict(resolution=(640, 192)),
    "default": {},
}


def _assert_hook_matches(backend, renderer, scene, t):
    _, dirs, origin, placed = renderer._prepare(scene, t)
    got = backend.render_surfaces(dirs, origin, scene, placed)
    assert got is not None
    assert _same_answer(got, _render_surfaces_reference(dirs, origin, scene, placed))
    return got


def _bits(value):
    """A record field with every float as its exact bits, so ``-0.0`` and
    ``0.0`` or two NaNs never compare equal by accident."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_bits(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return type(value).__name__, [_bits(getattr(value, f)) for f in value.__dataclass_fields__]
    return type(value).__name__, value


def _assert_same_record(got, want):
    """Whole :class:`FrameRecord`s, field by field, to the bit: image and
    id-buffer bytes, every annotation (``visibility`` and ``depth``
    included) and the ego state."""
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("resolution", list(RESOLUTIONS))
@pytest.mark.parametrize("preset", list(PRESETS))
def test_presets_match_the_reference(cext, preset, resolution):
    """Sampled frames, as the preset renders them and under contrasts that
    clip at 0 and 255; then the whole record (sky and annotations included)
    against the numpy backend."""
    clip = PRESETS[preset](RESOLUTIONS[resolution])
    renderer = clip._renderer
    for index, weather in ((0, clip.scene.weather_contrast), (5, 2.6), (11, 0.4)):
        scene = replace(clip.scene, weather_contrast=weather)
        _, ids, stats = _assert_hook_matches(cext, renderer, scene, clip.time_of(index))
        assert stats[:, STAT_VISIBLE].sum() > 0 and (ids == 1).any() and (ids == 0).any()
        got = renderer.render(scene, clip.time_of(index), frame_index=index)
        with kernels.use_backend("numpy"):
            want = renderer.render(scene, clip.time_of(index), frame_index=index)
        _assert_same_record(got, want)


INTR = CameraIntrinsics(focal=120.0, width=160, height=96)


def _make(kind, x, z, seed, axis):
    facing = (0.0, 1.0) if axis else (1.0, 0.0)
    size = {"car": (1.9, 1.5), "pedestrian": (0.6, 1.75), "building": (9.0, 7.0), "pole": (0.3, 5.0)}[kind]
    return SceneObject(kind=kind, base=(x, z), width=size[0], height=size[1], facing=facing, texture_seed=seed)


OBJECTS = st.lists(
    st.tuples(
        st.sampled_from(["car", "pedestrian", "building", "pole"]),
        # Wide and close enough to cut objects at the frame edge, far
        # enough to fade into the haze.
        st.floats(-9.0, 9.0),
        st.floats(1.0, 120.0),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.integers(0, 10_000),
    OBJECTS,
    # (x, z, gap): a pedestrian standing `gap` metres behind a wall.
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(4.0, 30.0), st.floats(0.2, 3.0)), max_size=2),
    st.floats(0.0, 2.0),
    st.sampled_from([0.3, 1.0, 2.2]),
)
def test_scenes_match_the_reference(cext, seed, specs, hidden, t, weather):
    objects = [_make(kind, x, z, seed + i, axis) for i, (kind, x, z, axis) in enumerate(specs)]
    for x, z, gap in hidden:
        objects += [_make("building", x, z, seed, False), pedestrian(x, z + gap, seed=seed + 1)]
    scene = Scene(
        trajectory=EgoTrajectory([StraightSegment(1.0, 8.0), TurnSegment(1.5, 7.0, 0.35)]),
        objects=objects,
        texture_seed=seed,
        weather_contrast=weather,
        max_ground_depth=90.0,
    )
    _assert_hook_matches(cext, Renderer(INTR), scene, t)


@settings(max_examples=25, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(
        st.tuples(st.floats(-2.0, 2.0), st.floats(-3.0, 3.0), st.floats(0.1, 8.0), st.booleans()),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 100),
)
def test_faces_straddling_the_camera(cext, specs, seed):
    """Faces placed by hand over the whole frame, past the renderer's depth
    and behind-the-camera culling: rays meet their planes behind the camera,
    at ``tt <= 0.1`` and parallel to them."""
    renderer = Renderer(INTR)
    objects = [_make("building", x, z, seed, axis) for x, z, _, axis in specs]
    objects = [replace(obj, width=width) for obj, (_, _, width, _) in zip(objects, specs)]
    scene = Scene(trajectory=EgoTrajectory([StraightSegment(1.0, 5.0)]), objects=objects, texture_seed=seed)
    _, dirs, origin, _ = renderer._prepare(scene, 0.0)
    placed = Placed.by_hand(scene.objects, [(0, INTR.height, 0, INTR.width)] * len(specs), 0.0)
    got = cext.render_surfaces(dirs, origin, scene, placed)
    assert _same_answer(got, _render_surfaces_reference(dirs, origin, scene, placed))


def test_faces_hit_exactly_on_their_edges(cext):
    """Rays on a 1/64 lattice from a camera 1 m up meet faces at depths 8, 4
    and 2 on a 1/8, 1/16, 1/32 lattice: every test of the mask and of the
    bands — |u| at the half width, height at 0 and at the top, a window's
    edge at 0.5, a leg band's at 0.75 — is met with equality somewhere."""
    j, i = np.meshgrid(np.arange(-48, 49), np.arange(-72, 24))
    dirs = np.stack([j / 64.0, i / 64.0, np.ones(j.shape)], axis=-1)
    origin = np.array([0.0, -1.0, 0.0])
    objects = [
        SceneObject(kind="building", base=(0.0, 8.0), width=4.0, height=7.0, texture_seed=1),
        SceneObject(kind="pedestrian", base=(1.0, 4.0), width=1.0, height=1.75, texture_seed=2),
        SceneObject(kind="car", base=(-0.5, 2.0), width=0.5, height=1.5, facing=(1.0, -0.0), texture_seed=3),
    ]
    scene = Scene(trajectory=EgoTrajectory([StraightSegment(1.0, 5.0)]), objects=objects, texture_seed=7)
    placed = Placed.by_hand(scene.objects, [(0, j.shape[0], 0, j.shape[1])] * 3, 0.0)
    got = cext.render_surfaces(dirs, origin, scene, placed)
    assert _same_answer(got, _render_surfaces_reference(dirs, origin, scene, placed))
    assert got[2][:, STAT_VISIBLE].all()


def test_ground_dashes_at_negative_coordinates(cext):
    """``np.mod``'s floor semantics in C: ground points at negative world z,
    on exact multiples of the dash period, a hair either side of them and at
    ``-0.0``, under the dashed lane at ``x = 1.75``."""
    zs = np.array([-6.0, -3.0, -12.0, -1e-17, -0.0, -5.999999999999999, -3.0000000000000004,
                   -2.9999999999999996, -1e15, -0.75, -4.5, -17.25])
    zs = np.concatenate([zs, np.linspace(-40.0, 0.0, 84)])
    dirs = np.empty((2, zs.size, 3))
    dirs[..., 0] = np.array([1.75, -1.75])[:, None] / 1.5  # x = 1.5 dx: on the lane lines
    dirs[..., 1] = 1.0  # the ground at tg = 1.5 from a camera 1.5 m up
    dirs[..., 2] = zs / 1.5
    origin = np.array([0.0, -1.5, -0.0])  # so that z = -0.0 + 1.5 * -0.0 stays -0.0
    scene = Scene(trajectory=EgoTrajectory([StraightSegment(1.0, 5.0)]), texture_seed=3, weather_contrast=1.0)
    nothing = Placed.by_hand([], [], 0.0)
    got = cext.render_surfaces(dirs, origin, scene, nothing)
    want = _render_surfaces_reference(dirs, origin, scene, nothing)
    assert _same_answer(got, want)
    z = origin[2] + 1.5 * dirs[..., 2]
    on_dash = np.mod(z, 6.0) < 3.0
    assert (got[0][on_dash] == 225.0).all() and (got[0][~on_dash] != 225.0).all()


class TestDeclines:
    """What the kernel cannot prove it declines, and the dispatch still
    answers with the reference's bytes."""

    def _scene(self, **overrides):
        objects = [_make("car", 0.5, 12.0, 1, False), _make("building", -6.0, 25.0, 2, True)]
        return Scene(
            trajectory=EgoTrajectory([StraightSegment(2.0, 8.0)]), objects=objects, texture_seed=4, **overrides
        )

    def _assert_declined(self, backend, dirs, origin, scene, placed):
        assert backend.render_surfaces(dirs, origin, scene, placed) is None
        got = _render_surfaces(dirs, origin, scene, placed)
        want = _render_surfaces_reference(dirs, origin, scene, placed)
        assert _same_answer(got, want)

    def test_an_oblique_facing(self, cext):
        scene = self._scene()
        scene.objects.append(replace(_make("car", -1.0, 18.0, 3, False), facing=(0.6, 0.8), object_id=4))
        renderer = Renderer(INTR)
        _, dirs, origin, placed = renderer._prepare(scene, 0.5)
        assert any(obj.object_id == 4 for obj in placed.objects)
        self._assert_declined(cext, dirs, origin, scene, placed)
        got = renderer.render(scene, 0.5)
        with kernels.use_backend("numpy"):
            _assert_same_record(got, renderer.render(scene, 0.5))

    @pytest.mark.parametrize("layout", ["fortran", "float32", "strided"])
    def test_directions_the_loops_cannot_index(self, cext, layout):
        scene = self._scene()
        _, dirs, origin, placed = Renderer(INTR)._prepare(scene, 0.5)
        dirs = {
            "fortran": np.asfortranarray(dirs),
            "float32": dirs.astype(np.float32),
            "strided": np.repeat(dirs, 2, axis=1)[:, ::2],
        }[layout]
        self._assert_declined(cext, dirs, origin, scene, placed)

    def test_a_repeated_or_unstorable_id(self, cext):
        scene = self._scene()
        _, dirs, origin, placed = Renderer(INTR)._prepare(scene, 0.5)
        (obj, *rest), windows = placed.objects, placed.windows.tolist()

        def by_hand(objects, windows=windows):
            return Placed.by_hand(objects, windows, 0.5)

        self._assert_declined(cext, dirs, origin, scene, by_hand([replace(obj, object_id=1), *rest]))
        self._assert_declined(cext, dirs, origin, scene, by_hand([obj, obj, *rest], [windows[0], *windows]))
        # An id past int32 (or int64): declined, and the reference's own error is the answer.
        for oid in (2**31, 2**64):
            big = by_hand([replace(obj, object_id=oid), *rest])
            assert cext.render_surfaces(dirs, origin, scene, big) is None
            with pytest.raises(OverflowError):
                _render_surfaces(dirs, origin, scene, big)

    def test_a_window_outside_the_frame(self, cext):
        scene = self._scene()
        _, dirs, origin, placed = Renderer(INTR)._prepare(scene, 0.5)
        for window in ((-1, 5, 0, 5), (0, INTR.height + 1, 0, 5), (0, 5, -3, 5), (0, 5, 0, INTR.width + 1)):
            self._assert_declined(cext, dirs, origin, scene, Placed.by_hand(placed.objects[:1], [window], 0.5))

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_a_noise_coordinate_near_two_to_the_63(self, cext):
        """Ground points whose every lattice coordinate (the finest is x / 0.35)
        fits int64 are painted by the kernel; an octave past 2^63 sends the
        call to the reference."""
        scene = self._scene()
        _, dirs, _, _ = Renderer(INTR)._prepare(scene, 0.5)
        inside = np.array([2.0**61, -1.5, 0.0])
        nothing = Placed.by_hand([], [], 0.5)
        got = cext.render_surfaces(dirs, inside, scene, nothing)
        assert _same_answer(got, _render_surfaces_reference(dirs, inside, scene, nothing))
        self._assert_declined(cext, dirs, np.array([2.0**63, -1.5, 0.0]), scene, nothing)


def test_without_a_hook_the_reference_answers():
    """What a host without a C compiler runs: no hook, the reference."""
    clip = nuscenes_like(11, n_frames=2, resolution=(160, 96))
    _, dirs, origin, placed = clip._renderer._prepare(clip.scene, 0.0)
    with kernels.use_backend("numpy"):
        assert kernels.override("render_surfaces") is None
        got = _render_surfaces(dirs, origin, clip.scene, placed)
    assert _same_answer(got, _render_surfaces_reference(dirs, origin, clip.scene, placed))


def test_a_frame_without_pixels(cext):
    scene = Scene(trajectory=EgoTrajectory([StraightSegment(1.0, 5.0)]))
    dirs = np.empty((0, 7, 3))
    origin = np.array([0.0, -1.5, 0.0])
    nothing = Placed.by_hand([], [], 0.0)
    got = cext.render_surfaces(dirs, origin, scene, nothing)
    assert got[0].shape == got[1].shape == (0, 7) and got[2].shape == (0, 6)
    assert _same_answer(got, _render_surfaces_reference(dirs, origin, scene, nothing))


def _remainder_edges():
    """Multiples of the shaders' divisors 2, 2.5 and 6, their one-ulp
    neighbours and half-periods, from the first to past 2^50 times the
    divisor (where the remainder takes fmod); zeros, subnormals, -1e-17
    (``np.mod`` gives 6.0) and every value's negation."""
    tiny = 5e-324
    values = [0.0, 1e-17, tiny, 3 * tiny, 2.2250738585072014e-308, 1e-300, 2.0**51, 2.0**57]
    ks = [1, 2, 3, 4, 5, 7, 10, 99, 1000, 2**20 - 1, 2**20 + 1, 2**30 + 7, 2**44 + 3, 2**47 + 5, 2**48 - 1,
          2**50 - 1, 2**50, 2**50 + 1, 2**51 + 7, 2**52 + 3, 2**53 + 5, 2**54 + 1]
    for b in (2.0, 2.5, 6.0):
        for k in ks:
            m = k * b
            values += [m, float(np.nextafter(m, 0.0)), float(np.nextafter(m, np.inf)), m + b / 2]
    return values + [-v for v in values]


def test_remainders_on_their_edges(cext):
    """``np.mod``'s floor semantics on the exact path and on fmod's, through
    the hook: ground z under the dashed lanes, building-face heights and
    left-edge coordinates under the window grid."""
    values = _remainder_edges()
    (_, ground_args, _), (_, face_args, _) = _remainder_cases(values)
    for args in (ground_args, face_args):
        got = cext.render_surfaces(*args)
        assert _same_answer(got, _render_surfaces_reference(*args))
    # The values reached the shaders: dashes exactly where np.mod says, and
    # every face pixel kept by its face.
    image, _, _ = cext.render_surfaces(*ground_args)
    on_dash = np.mod(np.array(values), 6.0) < 3.0
    assert (image[:, on_dash] == 225.0).all() and (image[:, ~on_dash] != 225.0).all()
    _, ids, stats = cext.render_surfaces(*face_args)
    windows = face_args[3].windows
    assert (ids >= 2).all()
    assert (stats[:, STAT_VISIBLE] == (windows[:, 1] - windows[:, 0]) * (windows[:, 3] - windows[:, 2])).all()


def _frames_on_both_backends(renderer, scene, t):
    got = renderer.render(scene, t)
    with kernels.use_backend("numpy"):
        want = renderer.render(scene, t)
    _assert_same_record(got, want)
    return got


def test_a_scene_with_no_objects(cext):
    scene = Scene(trajectory=EgoTrajectory([StraightSegment(1.0, 8.0)]), texture_seed=6)
    renderer = Renderer(INTR)
    _, dirs, origin, placed = renderer._prepare(scene, 0.25)
    assert placed.rows.size == 0
    image, ids, stats = _assert_hook_matches(cext, renderer, scene, 0.25)
    assert stats.shape == (0, 6) and set(np.unique(ids)) == {0, 1}
    assert _frames_on_both_backends(renderer, scene, 0.25).annotations == []


def test_faces_clipped_by_each_frame_edge(cext):
    """Near objects whose windows the renderer clips at the left, right, top
    and bottom frame edges, then faces placed by hand on one-pixel strips
    along each edge and in each corner."""
    objects = [
        SceneObject(kind="building", base=(-4.0, 5.0), width=6.0, height=9.0, facing=(0.0, 1.0), texture_seed=1),
        SceneObject(kind="building", base=(4.0, 6.0), width=6.0, height=9.0, facing=(0.0, 1.0), texture_seed=2),
        pedestrian(0.2, 2.0, seed=3),
        SceneObject(kind="car", base=(-1.0, 3.0), width=1.9, height=1.5, texture_seed=4),
    ]
    scene = Scene(trajectory=EgoTrajectory([StraightSegment(1.0, 4.0)]), objects=objects, texture_seed=8)
    renderer = Renderer(INTR)
    h, w = INTR.height, INTR.width
    _, dirs, origin, placed = renderer._prepare(scene, 0.0)
    y0, y1, x0, x1 = placed.windows.T
    assert (y0 == 0).any() and (y1 == h).any() and (x0 == 0).any() and (x1 == w).any()
    _assert_hook_matches(cext, renderer, scene, 0.0)
    _frames_on_both_backends(renderer, scene, 0.0)
    strips = [(0, 1, 0, w), (h - 1, h, 0, w), (0, h, 0, 1), (0, h, w - 1, w), (0, 1, 0, 1), (h - 1, h, w - 1, w)]
    wall = SceneObject(kind="building", base=(0.0, 3.0), width=40.0, height=30.0, texture_seed=5)
    by_hand = Placed.by_hand([replace(wall, object_id=2 + i) for i in range(len(strips))], strips, 0.0)
    got = cext.render_surfaces(dirs, origin, scene, by_hand)
    assert _same_answer(got, _render_surfaces_reference(dirs, origin, scene, by_hand))
    assert (got[2][:, STAT_VISIBLE] > 0).all()


def test_a_fully_occluded_object(cext):
    """A pedestrian wholly behind a wall: painted, then painted over — it
    keeps no pixel, its bounding box is zeros and it gets no annotation."""
    wall = SceneObject(kind="building", base=(0.0, 10.0), width=12.0, height=6.0, facing=(1.0, 0.0), texture_seed=1)
    scene = Scene(
        trajectory=EgoTrajectory([StraightSegment(1.0, 4.0)]),
        objects=[pedestrian(0.3, 14.0, seed=2), wall, parked_car(3.0, 8.0, seed=3)],
        texture_seed=9,
    )
    renderer = Renderer(INTR)
    _, _, _, placed = renderer._prepare(scene, 0.0)
    hidden = [obj.kind for obj in placed.objects].index("pedestrian")
    _, ids, stats = _assert_hook_matches(cext, renderer, scene, 0.0)
    assert stats[hidden, STAT_PAINTED] > 0 and not stats[hidden, STAT_VISIBLE:].any()
    assert not (ids == placed.objects[hidden].object_id).any()
    record = _frames_on_both_backends(renderer, scene, 0.0)
    assert [a.kind for a in record.annotations] == ["car"]
