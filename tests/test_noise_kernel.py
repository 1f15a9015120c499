"""Bit-exactness pins for the ``value_noise`` kernel.

``value_noise_2d`` is dispatched outside the codec: the renderer's sky goes
through it, and so do the ground and object textures wherever
``render_surfaces`` declines (or no backend binds it).  The contract is the codec
kernels' — whatever backend is active, the result equals
``_value_noise_2d_reference`` to the last bit — so the dispatch tests carry
the ``kernel_backend`` fixture (``numpy``, which binds no hook, passes through
the reference trivially); ``tests/test_kernels_default.py`` shows that a
kernel one ulp off never gets bound.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.utils.noise import _value_noise_2d_reference, value_noise_1d, value_noise_2d

#: ``(scale, octaves)`` of ground base / ground fine + sky / object textures.
RENDERER_SHAPES = [(1.5, 2), (0.35, 1), (0.6, 3)]


def _assert_matches_reference(x, y, **params):
    got = value_noise_2d(x, y, **params)
    want = _value_noise_2d_reference(x, y, **params)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.usefixtures("kernel_backend")
class TestValueNoiseBitExact:
    @pytest.mark.parametrize("scale,octaves", RENDERER_SHAPES)
    def test_renderer_call_shapes(self, scale, octaves):
        gen = np.random.default_rng(91)
        # Ground-plane sized coordinates plus points exactly on the lattice
        # (fade weight 0) and just either side of it.
        lattice = gen.integers(-40, 40, size=400) * scale
        x = np.concatenate([gen.uniform(-260.0, 260.0, 5000), lattice, np.nextafter(lattice, 1e9)])
        y = np.concatenate([gen.uniform(-5.0, 260.0, 5000), np.nextafter(lattice, -1e9), lattice])
        for seed in (0, 5, 7 + 101, 11 + 500):
            _assert_matches_reference(x, y, seed=seed, scale=scale, octaves=octaves)

    def test_input_layouts(self):
        gen = np.random.default_rng(92)
        grid = gen.uniform(-50.0, 50.0, size=(37, 64))
        params = dict(seed=3, scale=0.6, octaves=3)
        _assert_matches_reference(1.25, -7.5, **params)  # python scalars
        _assert_matches_reference(np.float64(1.25), np.array(-7.5), **params)  # 0-d
        _assert_matches_reference(grid, grid.T[:64, :37].T, **params)  # 2-D, one transposed
        _assert_matches_reference(grid[:, None, 0], grid[None, 0, :], **params)  # broadcast (37,1)x(1,64)
        _assert_matches_reference(grid, 2.0, **params)  # stride-0 broadcast of a scalar
        _assert_matches_reference(grid[::3, ::-2], grid[::3, ::2], **params)  # non-contiguous
        _assert_matches_reference(grid.astype(np.float32), np.arange(64), **params)  # other dtypes
        _assert_matches_reference(np.empty((0, 5)), np.empty((0, 5)), **params)  # empty
        _assert_matches_reference([0.5, 1.5], [2.5, 3.5], **params)  # lists

    def test_value_noise_1d_goes_through_the_same_seam(self):
        x = np.linspace(-30.0, 30.0, 777)
        want = _value_noise_2d_reference(x, np.zeros_like(x), seed=9, scale=4.0, octaves=2)
        assert np.array_equal(value_noise_1d(x, seed=9, scale=4.0, octaves=2), want)

    @settings(
        max_examples=120,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=40),
        st.integers(-(2**70), 2**70),
        st.floats(1e-3, 1e3),
        st.integers(1, 4),
    )
    def test_property_any_point_seed_scale(self, points, seed, scale, octaves):
        x, y = np.array(points).T
        _assert_matches_reference(x, y, seed=seed, scale=scale, octaves=octaves)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e19, -1e19, 2.0**63, -(2.0**63) * 1.5])
    def test_coordinates_int64_cannot_hold_take_the_reference_path(self, bad):
        """``(int64_t)floor(u)`` is undefined in C for these; numpy's cast
        is what the public function has always answered with."""
        gen = np.random.default_rng(93)
        x = gen.uniform(-100.0, 100.0, 64)
        y = gen.uniform(-100.0, 100.0, 64)
        x[17] = bad
        y[40] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy: invalid value in cast
            _assert_matches_reference(x, y, seed=4, scale=1.5, octaves=2)
            # In range at octave 0, out of range once the frequency doubles.
            _assert_matches_reference(np.array([0.3, 6e18]), np.array([0.7, 1.0]), seed=4, scale=1.0, octaves=3)
        # The largest magnitudes the cast does represent stay on the kernel.
        edge = np.array([-(2.0**63), np.nextafter(2.0**63, 0.0), 2.0**53 + 2, -(2.0**53) - 2])
        _assert_matches_reference(edge, edge[::-1], seed=4, scale=1.0, octaves=1)

    @pytest.mark.parametrize("seed", [-1, -(2**63), 2**63, 2**64 - 1, 2**64, -(2**64) - 12345, 2**63 - 7919])
    def test_seeds_wrap_like_the_reference(self, seed):
        gen = np.random.default_rng(94)
        x, y = gen.uniform(-20.0, 20.0, size=(2, 500))
        _assert_matches_reference(x, y, seed=seed, scale=0.8, octaves=4)

    @pytest.mark.parametrize("params", [dict(scale=0.0), dict(scale=-1.0), dict(octaves=0)])
    def test_bad_parameters_raise_like_the_reference(self, params):
        with pytest.raises(ValueError):
            value_noise_2d(np.zeros(3), np.zeros(3), seed=1, **params)
