"""Bit-exactness pins for the compiled value noise.

``value_noise_2d`` (``repro.utils.noise``) does not dispatch: it is the
reference the textures of ``_render_surfaces_reference`` call, and on
``cext`` the ``render_surfaces`` hook samples the same noise in C
(``noise_at`` in ``cext.c``) for every ground and billboard pixel it keeps.
So the C noise is pinned through that hook: rays from 1 m above the ground
that meet it at ``tg = 1`` put a ground pixel at any world ``(x, z)`` (the
ground's two textures: seed, scale 1.5, two octaves; seed + 101, scale
0.35), and rays onto a building face standing at ``z = 1`` put a billboard
pixel at any face coordinate ``(u, h)`` (the object texture: its seed,
scale 0.6, three octaves).  Each case is rendered through the dispatch
(``_render_surfaces``) and compared with ``_render_surfaces_reference`` by
bytes; on ``cext`` the hook must also have answered, not declined, unless
a noise coordinate is one int64 cannot hold.  The dispatch tests carry the
``kernel_backend`` fixture (``numpy``, which binds no hook, passes through
the reference trivially); ``tests/test_kernels_default.py`` shows that a
``noise_at`` with one wrong line never gets bound.  The checks of
``value_noise_2d`` itself — layouts, shapes, ``value_noise_1d``, bad
parameters — run on both backends too: no backend may change it.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.kernels.cext import _same_answer
from repro.utils.noise import value_noise_1d, value_noise_2d
from repro.world import EgoTrajectory, Scene, SceneObject, StraightSegment
from repro.world.renderer import Placed, _render_surfaces, _render_surfaces_reference

pytestmark = pytest.mark.kernels

#: ``(scale, octaves)`` of ground base / ground fine + sky / object textures.
RENDERER_SHAPES = [(1.5, 2), (0.35, 1), (0.6, 3)]

#: The half width of the building face :func:`_face` builds: a face
#: coordinate ``u`` in ``[HALF, 2 * HALF]`` survives ``u - HALF`` and back.
HALF = 64.0


def _scene(seed):
    return Scene(trajectory=EgoTrajectory([StraightSegment(1.0, 5.0)]), texture_seed=seed)


def _ground(x, z, seed):
    """``render_surfaces`` arguments whose pixels are ground points at world
    ``(x, z)``: rays ``(x, 1, z)`` from ``(0, -1, 0)`` meet the ground at
    ``tg = 1``, far inside the haze's fade."""
    x, z = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(z, dtype=np.float64))
    dirs = np.stack([x, np.ones_like(x), z], axis=-1).reshape(1, -1, 3)
    return dirs, np.array([0.0, -1.0, 0.0]), _scene(seed), Placed.by_hand([], [], 0.0)


def _face(u, h, seed):
    """``render_surfaces`` arguments whose pixels are points ``(u, h)`` of a
    building face of texture seed ``seed``: the face stands at ``z = 1``,
    facing x, and rays ``(u - HALF, -h, 1)`` from the origin meet it there."""
    u, h = np.broadcast_arrays(np.asarray(u, dtype=np.float64), np.asarray(h, dtype=np.float64))
    dirs = np.stack([u - HALF, -h, np.ones_like(u)], axis=-1).reshape(1, -1, 3)
    face = SceneObject(kind="building", base=(0.0, 1.0), width=2.0 * HALF, height=2.0**40, texture_seed=seed,
                       object_id=2)
    return dirs, np.zeros(3), _scene(3), Placed.by_hand([face], [(0, 1, 0, dirs.shape[1])], 0.0)


def _assert_rendered_like_the_reference(args, *, declined=False):
    """The dispatch answers ``args`` with the reference's bytes; on ``cext``
    the hook answered them itself (or, with ``declined``, returned ``None``)."""
    hook = kernels.override("render_surfaces")
    if hook is not None:
        assert (hook(*args) is None) == declined
    assert _same_answer(_render_surfaces(*args), _render_surfaces_reference(*args))


@pytest.mark.usefixtures("kernel_backend")
class TestValueNoiseBitExact:
    @pytest.mark.parametrize("scale,octaves", RENDERER_SHAPES)
    def test_renderer_call_shapes(self, scale, octaves):
        """Points on the lattice of each of the renderer's noise shapes
        (fade weight 0) and one ulp either side of it, among world-sized
        ones, on the surface that samples that shape."""
        gen = np.random.default_rng(91)
        lattice = gen.integers(-40, 40, size=400) * scale
        lattice = np.concatenate([lattice, np.nextafter(lattice, -np.inf), np.nextafter(lattice, np.inf)])
        for seed in (0, 5, 7 + 101, 11 + 500):
            if (scale, octaves) == (0.6, 3):
                u = np.concatenate([HALF + np.abs(lattice), gen.uniform(HALF, 2.0 * HALF, 2000)])
                h = np.concatenate([np.abs(lattice[::-1]), gen.uniform(0.0, 60.0, 2000)])
                _assert_rendered_like_the_reference(_face(u, h, seed))
            else:
                x = np.concatenate([gen.uniform(-260.0, 260.0, 2000), lattice])
                z = np.concatenate([gen.uniform(-5.0, 260.0, 2000), lattice[::-1]])
                _assert_rendered_like_the_reference(_ground(x, z, seed))

    def test_input_layouts(self):
        """``value_noise_2d`` answers any layout, dtype and broadcast as it
        answers their contiguous float64 copies; 0-d input gives a scalar."""
        gen = np.random.default_rng(92)
        grid = gen.uniform(-50.0, 50.0, size=(37, 64))
        params = dict(seed=3, scale=0.6, octaves=3)

        def assert_as_contiguous(x, y):
            got = value_noise_2d(x, y, **params)
            cx, cy = (np.ascontiguousarray(a) for a in np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float)))
            assert got.tobytes() == value_noise_2d(cx, cy, **params).tobytes()

        scalar = value_noise_2d(1.25, -7.5, **params)
        assert type(scalar) is np.float64
        assert scalar == value_noise_2d(np.array([1.25]), np.array([-7.5]), **params)[0]
        assert type(value_noise_2d(np.float64(1.25), np.array(-7.5), **params)) is np.float64
        assert_as_contiguous(grid, grid.T[:64, :37].T)  # 2-D, one transposed
        assert_as_contiguous(grid[:, None, 0], grid[None, 0, :])  # broadcast (37,1)x(1,64)
        assert_as_contiguous(grid, 2.0)  # stride-0 broadcast of a scalar
        assert_as_contiguous(grid[::3, ::-2], grid[::3, ::2])  # non-contiguous
        assert_as_contiguous(grid.astype(np.float32), np.arange(64))  # other dtypes
        assert_as_contiguous([0.5, 1.5], [2.5, 3.5])  # lists

    def test_zero_length_and_odd_shapes(self):
        """The broadcast shape, whatever it is: nothing at all, a zero-length
        axis anywhere, one point, length-1 axes, prime and 3-D shapes, a
        broadcast that is empty on one side, 1-D value noise of nothing."""
        gen = np.random.default_rng(93)
        params = dict(seed=11 + 500, scale=1.0, octaves=1)
        for shape in [(0,), (0, 3), (3, 0), (2, 0, 5), (1,), (1, 1, 1), (13,), (7, 1, 3)]:
            out = value_noise_2d(gen.uniform(-9.0, 9.0, size=shape), gen.uniform(-9.0, 9.0, size=shape), **params)
            assert out.shape == shape and out.dtype == np.float64
        assert value_noise_2d(np.empty((0, 1)), np.ones((1, 4)), seed=1, scale=1.5, octaves=2).shape == (0, 4)
        assert value_noise_2d(np.empty((4, 0)), 0.5, seed=1, scale=0.35, octaves=1).shape == (4, 0)
        assert value_noise_1d(np.empty(0), seed=2).shape == (0,)

    def test_value_noise_1d_goes_through_the_same_seam(self):
        x = np.linspace(-30.0, 30.0, 777)
        want = value_noise_2d(x, np.zeros_like(x), seed=9, scale=4.0, octaves=2)
        assert value_noise_1d(x, seed=9, scale=4.0, octaves=2).tobytes() == want.tobytes()

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=40),
        st.integers(-(2**70), 2**70),
    )
    def test_property_any_point_seed_scale(self, points, seed):
        """Any ground point and any texture seed, and the same numbers as the
        coordinates of a face of that seed."""
        x, z = np.array(points).T
        _assert_rendered_like_the_reference(_ground(x, z, seed))
        _assert_rendered_like_the_reference(_face(HALF + np.mod(np.abs(x), HALF), np.abs(z), seed))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e19, -1e19, 2.0**63, -(2.0**63) * 1.5])
    def test_coordinates_int64_cannot_hold_take_the_reference_path(self, bad):
        """``(int64_t)floor(u)`` is undefined in C for these: the hook
        declines the frame and numpy's cast is what the renderer answers
        with."""
        gen = np.random.default_rng(93)
        x = gen.uniform(-100.0, 100.0, 64)
        z = gen.uniform(-100.0, 100.0, 64)
        x[17] = bad
        z[40] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy: invalid value in cast
            _assert_rendered_like_the_reference(_ground(x, z, 4), declined=True)
            # In range for the base texture (x / 1.5 and its second octave),
            # out of range for the fine one (x / 0.35).
            _assert_rendered_like_the_reference(_ground([0.3, 6e18], [0.7, 1.0], 4), declined=True)
        # The largest magnitudes every octave's cast represents stay on the kernel.
        edge = np.array([-(2.0**61), 2.0**61, 2.0**53 + 2, -(2.0**53) - 2, 3.2e18, -3.2e18])
        _assert_rendered_like_the_reference(_ground(edge, edge[::-1], 4))

    @pytest.mark.parametrize("seed", [-1, -(2**63), 2**63, 2**64 - 1, 2**64, -(2**64) - 12345, 2**63 - 7919])
    def test_seeds_wrap_like_the_reference(self, seed):
        """Texture seeds on both sides of the uint64 wrap, as the ground's
        (seed and seed + 101) and as a face's (seed + 7919 per octave)."""
        gen = np.random.default_rng(94)
        x, z = gen.uniform(-20.0, 20.0, size=(2, 500))
        _assert_rendered_like_the_reference(_ground(x, z, seed))
        _assert_rendered_like_the_reference(_face(HALF + np.abs(x), np.abs(z), seed))

    @pytest.mark.parametrize("params", [dict(scale=0.0), dict(scale=-1.0), dict(octaves=0)])
    def test_bad_parameters_raise_like_the_reference(self, params):
        with pytest.raises(ValueError):
            value_noise_2d(np.zeros(3), np.zeros(3), seed=1, **params)
