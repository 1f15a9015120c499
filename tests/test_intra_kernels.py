"""Bit-exactness pins for the ``intra_encode`` / ``intra_decode`` kernels.

The I-frame wavefront is a dispatched kernel pair: whatever backend is
active, all four encoder outputs and the decoder's frame equal
``_intra_encode_reference`` / ``_intra_decode_reference`` to the byte
(``tobytes()``, so ``-0.0`` and NaN payloads count).  The dispatch tests
carry the ``kernel_backend`` fixture — ``numpy``, which binds no hook, passes
through the reference trivially; ``tests/test_kernels_default.py`` shows
that a C step that breaks a tie the other way, or is one ulp off in the DC
mean, never gets bound.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.codec.intra as intra_module
from repro.codec.intra import (
    MODE_DC,
    MODE_HORIZONTAL,
    MODE_VERTICAL,
    _intra_decode_reference,
    _intra_encode_reference,
    intra_decode,
    intra_encode,
)

pytestmark = pytest.mark.kernels


def _content(kind, shape, seed=0):
    gen = np.random.default_rng(seed)
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    if kind == "noise":
        return gen.uniform(0.0, 255.0, size=shape)
    if kind == "wide":  # magnitudes spread over decades: a summation-order change would show
        return np.clip(np.exp(gen.normal(3.0, 1.5, size=shape)), 0.0, 255.0)
    if kind == "flat":  # every SAD ties
        return np.full(shape, float(gen.integers(0, 256)))
    if kind == "ramp":
        return (xx * 1.75 + yy * 0.6) % 256.0
    if kind == "stripes":  # constant down each column: V predicts it exactly
        return np.broadcast_to((xx[0] * 37.0) % 256.0, shape).copy()
    if kind == "steps":  # integer-valued: exact arithmetic, flat patches, heavy ties
        return np.kron(gen.integers(0, 8, size=(-(-shape[0] // 4), -(-shape[1] // 4))), np.ones((4, 4)))[
            : shape[0], : shape[1]
        ] * 32.0
    raise AssertionError(kind)


def _qp(kind, grid, seed=0):
    gen = np.random.default_rng(seed + 1000)
    if kind == "zero":
        return np.zeros(grid)
    if kind == "max":
        return np.full(grid, 51.0)
    if kind == "fractional":
        return gen.uniform(0.0, 51.0, size=grid)
    if kind == "saturated":  # a DiVE offset map clipped at both ends
        return np.clip(gen.integers(-20, 75, size=grid).astype(float), 0.0, 51.0)
    raise AssertionError(kind)


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_matches_reference(frame, qp, block=16):
    got = intra_encode(frame, qp, block=block)
    want = _intra_encode_reference(frame, qp, block=block)
    for g, w in zip(got, want):
        _same(g, w)
    levels, modes, recon, _ = want
    _same(intra_decode(levels, modes, qp, block=block), _intra_decode_reference(levels, modes, qp, block=block))
    _same(intra_decode(*got[:2], qp, block=block), recon)
    return got


CONTENTS = ["noise", "wide", "flat", "ramp", "stripes", "steps"]
QPS = ["zero", "max", "fractional", "saturated"]


@pytest.mark.usefixtures("kernel_backend")
class TestIntraBitExact:
    @pytest.mark.parametrize("block", [8, 16, 32])
    @pytest.mark.parametrize("grid", [(1, 1), (1, 6), (5, 1), (2, 2), (4, 7), (7, 3)])
    def test_grid_shapes(self, block, grid):
        """One block, one row, one column, square and ragged either way:
        every border fallback and diagonal length."""
        shape = (grid[0] * block, grid[1] * block)
        for i, content in enumerate(("noise", "steps")):
            _assert_matches_reference(_content(content, shape, 7), _qp(QPS[(i + grid[0]) % 4], grid, 7), block)

    @pytest.mark.parametrize("content", CONTENTS)
    @pytest.mark.parametrize("qp", QPS)
    def test_content_by_qp_map(self, content, qp):
        _assert_matches_reference(_content(content, (64, 96), 11), _qp(qp, (4, 6), 11))

    def test_the_benchmark_grid(self):
        """12 x 40 macroblocks (640x192, ``drive_outage``): 51 diagonals, 12 long at most."""
        _assert_matches_reference(_content("wide", (192, 640), 13), _qp("saturated", (12, 40), 13))

    def test_constant_frame_every_sad_ties_and_dc_wins(self):
        for value in (0.0, 77.0, 128.0, 255.0):
            _, modes, recon, _ = _assert_matches_reference(np.full((48, 80), value), np.zeros((3, 5)))
            assert (modes == MODE_DC).all()
            assert np.abs(recon - value).max() < 1.0

    def test_border_blocks_tie_h_with_v_and_the_first_wins(self):
        """Without a top row V falls back to H (and H to V without a left
        column), so modes 1 and 2 predict the same pixels there; the scan
        order DC, H, V keeps the first."""
        frame = _content("stripes", (48, 80))
        _, modes, _, _ = _assert_matches_reference(frame, np.full((3, 5), 10.0))
        assert (modes[0, :] != MODE_VERTICAL).all() and (modes[:, 0] != MODE_VERTICAL).all()
        assert (modes[1:, 1:] == MODE_VERTICAL).any()
        rows = frame.T.copy()  # constant along each row: H's turn
        _, modes, _, _ = _assert_matches_reference(rows, np.full((5, 3), 10.0))
        assert (modes[1:, 1:] == MODE_HORIZONTAL).any()

    @pytest.mark.parametrize(
        "layout",
        ["float32", "fortran", "sliced", "reversed", "uint8", "list"],
    )
    def test_input_layouts(self, layout):
        """The C loops read a contiguous float64 copy; the reference reads
        whatever it is given.  Same values, same bytes out."""
        base = np.round(_content("wide", (64, 96), 17))
        frame = {
            "float32": base.astype(np.float32),
            "fortran": np.asfortranarray(base),
            "sliced": np.repeat(np.repeat(base, 2, axis=0), 3, axis=1)[::2, ::3],
            "reversed": base[::-1, ::-1],
            "uint8": base.astype(np.uint8),
            "list": base.tolist(),
        }[layout]
        qp = _qp("fractional", (8, 12), 17)[::2, ::2]  # a strided QP map too
        _assert_matches_reference(frame, qp)
        levels, modes, _, _ = _intra_encode_reference(frame, qp)
        strided = np.repeat(levels, 2, axis=0)[::2]
        assert not strided.flags.c_contiguous
        _same(intra_decode(strided, np.asfortranarray(modes), qp), _intra_decode_reference(levels, modes, qp))
        _same(
            intra_decode(levels.astype(np.float32), modes.astype(np.uint8), qp),
            _intra_decode_reference(levels, modes, qp),
        )

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.sampled_from([8, 16, 32]),
        st.integers(1, 5),
        st.integers(1, 6),
        st.sampled_from(CONTENTS),
        st.sampled_from(QPS),
        st.integers(0, 10_000),
    )
    def test_property_any_grid_block_content_qp(self, block, rows, cols, content, qp, seed):
        shape = (rows * block, cols * block)
        _assert_matches_reference(_content(content, shape, seed), _qp(qp, (rows, cols), seed), block)


@pytest.mark.usefixtures("kernel_backend")
class TestArgumentsTheCLoopsCannotIndex:
    """Before a pointer is passed, the public functions establish what the
    reference establishes — by raising what it raises, or by answering
    through it."""

    def test_qp_map_of_the_wrong_shape_raises_the_reference_text(self):
        frame = _content("noise", (48, 64))
        for qp in (np.zeros((2, 2)), np.zeros((4, 3)), np.zeros(12), 20.0):
            with pytest.raises(ValueError, match=r"qp_map shape .* != macroblock grid \(3, 4\)"):
                intra_encode(frame, qp)

    @pytest.mark.parametrize("block", [12, 4, 0, -16, 16.0])
    def test_block_not_a_positive_multiple_of_eight(self, block):
        frame = _content("noise", (48, 48))
        with pytest.raises(Exception) as want:
            _intra_encode_reference(frame, np.zeros((4, 4)), block=block)
        with pytest.raises(type(want.value)) as got:
            intra_encode(frame, np.zeros((4, 4)), block=block)
        assert str(got.value) == str(want.value)

    def test_frame_not_a_multiple_of_the_block_is_the_references_call(self):
        """The reference codes the whole blocks and leaves the ragged edge
        at zero; nothing may read past the last whole block."""
        frame = _content("noise", (50, 70))
        qp = _qp("fractional", (3, 4))
        got = intra_encode(frame, qp)
        for g, w in zip(got, _intra_encode_reference(frame, qp)):
            _same(g, w)
        assert got[2].shape == (50, 70) and (got[2][48:] == 0.0).all() and (got[2][:, 64:] == 0.0).all()

    @pytest.mark.parametrize("shape", [(48,), (2, 48, 64), (0, 64), (8, 64), ()])
    def test_frame_that_is_not_a_plane_of_whole_blocks(self, shape):
        frame = np.zeros(shape)
        try:
            want = _intra_encode_reference(frame, np.zeros((3, 4)))
        except Exception as exc:
            with pytest.raises(type(exc)):
                intra_encode(frame, np.zeros((3, 4)))
        else:
            for g, w in zip(intra_encode(frame, np.zeros((3, 4))), want):
                _same(g, w)

    def test_levels_of_the_wrong_shape(self):
        levels, modes, _, _ = _intra_encode_reference(_content("noise", (48, 64)), np.full((3, 4), 20.0))
        qp = np.full((3, 4), 20.0)
        for bad in (levels[:4], levels[:, :, :6], levels.reshape(48, 64), levels[..., :4]):
            with pytest.raises((ValueError, IndexError)) as want:
                _intra_decode_reference(bad, modes, qp)
            with pytest.raises(type(want.value)):
                intra_decode(bad, modes, qp)
        # More levels than the mode grid covers: the reference reads its corner.
        big = np.pad(levels, ((0, 2), (0, 0), (0, 2), (0, 0)), constant_values=9.0)
        _same(intra_decode(big, modes, qp), _intra_decode_reference(big, modes, qp))
        # A QP map the reference indexes into without checking.
        wide_qp = np.full((5, 6), 20.0)
        _same(intra_decode(levels, modes, wide_qp), _intra_decode_reference(levels, modes, wide_qp))
        with pytest.raises(IndexError):
            intra_decode(levels, modes, np.full((2, 2), 20.0))

    def test_mode_outside_dc_h_v_decodes_as_dc(self):
        levels, modes, _, _ = _intra_encode_reference(_content("ramp", (48, 64)), np.full((3, 4), 14.0))
        qp = np.full((3, 4), 14.0)
        odd = modes.astype(np.int64)
        odd[1, 1], odd[2, 3], odd[0, 2], odd[1, 0] = 3, -1, 2**40 + 1, 127
        _same(intra_decode(levels, odd, qp), _intra_decode_reference(levels, odd, qp))
        as_dc = odd.copy()
        as_dc[(odd < 0) | (odd > 2)] = MODE_DC
        _same(intra_decode(levels, odd, qp), _intra_decode_reference(levels, as_dc, qp))
        with pytest.raises(Exception) as want:  # a float mode map: the reference's int() decides
            _intra_decode_reference(levels, np.full((3, 4), np.nan), qp)
        with pytest.raises(type(want.value)):
            intra_decode(levels, np.full((3, 4), np.nan), qp)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -(2.0**60)])
    def test_frame_the_bit_model_cannot_cost_in_integers(self, bad):
        """NaN, inf and levels of 2^32 and beyond: ``frexp`` against
        ``log2`` and the integer cast stop being provably equal, so the
        kernel reports the level and the reference answers."""
        frame = _content("noise", (48, 64), 23)
        frame[20, 37] = bad
        with np.errstate(all="ignore"):
            _assert_matches_reference(frame, _qp("fractional", (3, 4), 23))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0**53, -(2.0**32), 1e300])
    def test_levels_the_bit_model_cannot_cost_in_integers(self, bad):
        qp = _qp("fractional", (3, 4), 29)
        levels, modes, _, _ = _intra_encode_reference(_content("noise", (48, 64), 29), qp)
        levels[3, 2, 5, 1] = bad
        with np.errstate(all="ignore"):
            _same(intra_decode(levels, modes, qp), _intra_decode_reference(levels, modes, qp))

    def test_largest_levels_the_kernel_keeps(self):
        """Just inside the limit the integer bit length is still exact."""
        frame = np.full((16, 32), 2.3e8)  # DC coefficient 8 * 2.3e8 over a step of 0.625
        qp = np.zeros((1, 2))
        _assert_matches_reference(frame, qp)
        levels, modes, _, _ = _intra_encode_reference(frame, qp)
        assert 2.0**29 < np.abs(levels).max() < 2.0**32

    @pytest.mark.parametrize("qp_value", [np.nan, np.inf, -np.inf, -30.0, 400.0])
    def test_qp_values_outside_the_codec_range(self, qp_value):
        frame = _content("noise", (48, 64), 31)
        qp = _qp("fractional", (3, 4), 31)
        qp[1, 2] = qp_value
        with np.errstate(all="ignore"):
            _assert_matches_reference(frame, qp)


@pytest.mark.usefixtures("cext")
class TestCompiledPathIsTaken:
    """The equalities above would also hold if ``cext`` always answered
    through the reference; these pin which path a call takes."""

    @pytest.fixture
    def reference_calls(self, monkeypatch):
        calls = []
        for name in ("_intra_encode_reference", "_intra_decode_reference"):
            real = getattr(intra_module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(intra_module, name, counted)
        return calls

    def test_well_formed_calls_never_touch_the_reference(self, reference_calls):
        frame, qp = _content("noise", (64, 96)), _qp("fractional", (4, 6))
        levels, modes, recon, _ = intra_encode(frame.astype(np.float32), qp)
        _same(intra_decode(levels, modes, qp), recon)
        intra_encode(np.asfortranarray(frame)[::-1], qp, block=16)
        assert reference_calls == []

    def test_reported_levels_take_the_reference_path_once(self, reference_calls):
        frame, qp = _content("noise", (64, 96)), _qp("fractional", (4, 6))
        levels, modes, _, _ = intra_encode(frame, qp)
        frame[40, 50] = np.nan
        levels[2, 1, 3, 4] = np.inf
        with np.errstate(all="ignore"):
            intra_encode(frame, qp)
            intra_decode(levels, modes, qp)
        assert reference_calls == ["_intra_encode_reference", "_intra_decode_reference"]


class TestCExtReentrant:
    @pytest.mark.timeout(120)
    def test_four_threads_encode_one_frame_to_identical_bytes(self, cext):
        frame, qp = _content("wide", (192, 640), 41), _qp("saturated", (12, 40), 41)
        want = _intra_encode_reference(frame, qp)

        def run(_):
            out = intra_encode(frame, qp)
            return out + (intra_decode(out[0], out[1], qp),)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run, range(12)))
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            for g, w in zip(got, want + (want[2],)):
                _same(g, w)
