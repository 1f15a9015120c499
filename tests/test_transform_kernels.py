"""Bit-exactness pins for the 8x8 transform (the ``transform`` hook behind
``dct_blocks`` / ``idct_blocks``: scipy's bytes) and the P-frame's transform
tail: ``quantize_cost``, ``QuantBitCounter`` (the ``rate_counter`` hook) and
``reconstruct``.

Whatever backend is active, every output equals its reference —
``quantize`` -> ``transform_cost_bits``, the dense
``clip(prediction + idct_blocks(dequantize(levels)))`` and the full-frame
bit total — to the byte (``tobytes()``: ``np.round(-0.3)`` is ``-0.0`` and
the levels carry it).  The dispatch tests carry the ``kernel_backend``
fixture; the path tests pin which inputs ``cext`` keeps and which it hands
to the reference (``tests/test_kernels_default.py`` shows that a C source
that rounds halves the other way, keeps too short a candidate list or
prices a skipped block wrongly never gets bound).  The rate-control
properties at the end are what make the warm-started search safe:
``bits_at`` never rises with the QP, so wherever the search starts it ends
at the cold bisection's answer.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.fft import dctn, idctn

import repro.codec.transform as transform_module
from repro import kernels
from repro.codec import VideoDecoder, VideoEncoder
from repro.codec.transform import (
    QuantBitCounter,
    _quantize_cost_reference,
    _reconstruct_reference,
    dct_blocks,
    dequantize,
    idct_blocks,
    quantize,
    quantize_cost,
    reconstruct,
    transform_cost_bits,
)

pytestmark = pytest.mark.kernels


def _coeffs(kind, grid, block=16, seed=0):
    """A block-major coefficient array for a ``grid`` of macroblocks."""
    gen = np.random.default_rng(seed)
    sub = block // 8
    shape = (grid[0] * sub, 8, grid[1] * sub, 8)
    if kind == "residual":  # a P-frame's: the DCT of noise, most blocks quiet, some busy
        busy = gen.uniform(size=(shape[0], 1, shape[2], 1)) < 0.3
        blocks = gen.normal(0.0, 2.0, size=shape) + np.where(busy, gen.normal(0.0, 40.0, size=shape), 0.0)
        return dct_blocks(blocks.reshape(shape[0] * 8, shape[2] * 8).astype(np.float32))  # float32, as scipy keeps it
    if kind == "wide":  # magnitudes over decades
        return gen.normal(0.0, 1.0, size=shape) * np.exp(gen.normal(0.0, 3.0, size=shape))
    if kind == "halves":  # every quotient at QP 0 / 6 / 12 an integer or a tie
        return gen.integers(-12, 13, size=shape) * 0.3125
    if kind == "zero":
        return np.zeros(shape)
    if kind == "negative_zero":
        return np.full(shape, -0.0)
    if kind == "single":  # one coefficient in the whole frame
        out = np.zeros(shape)
        out[shape[0] // 2, 3, shape[2] // 2, 5] = -77.7
        return out
    raise AssertionError(kind)


def _qp(kind, grid, seed=0):
    gen = np.random.default_rng(seed + 1000)
    if kind == "zero":
        return np.zeros(grid)
    if kind == "max":
        return np.full(grid, 51.0)
    if kind == "sixes":  # steps that are exact powers of two times 0.625
        return gen.integers(0, 3, size=grid) * 6.0
    if kind == "fractional":
        return gen.uniform(0.0, 51.0, size=grid)
    if kind == "saturated":  # a DiVE offset map clipped at both ends
        return np.clip(gen.integers(-20, 75, size=grid).astype(float), 0.0, 51.0)
    raise AssertionError(kind)


def _prediction(grid, block=16, seed=0):
    """A float32 prediction that clips at both ends and sits on both bounds."""
    gen = np.random.default_rng(seed + 2000)
    shape = (grid[0] * block, grid[1] * block)
    out = gen.uniform(-40.0, 295.0, size=shape).astype(np.float32)
    out[gen.uniform(size=shape) < 0.1] = 0.0
    out[gen.uniform(size=shape) < 0.1] = 255.0
    return out


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _dense(prediction, levels, qp, block=16):
    """The reconstruction expression, spelled out."""
    return np.clip(prediction + idct_blocks(dequantize(levels, qp, mb_size=block)), 0.0, 255.0).astype(np.float32)


def _frame_bits(coeffs, offsets, qp, block=16, max_qp=51.0):
    qp_map = np.clip(qp + offsets, 0.0, max_qp)
    return float(transform_cost_bits(quantize(coeffs, qp_map, mb_size=block), mb_size=block).sum())


def _assert_same_outcome(fn, ref, *args, **kwargs):
    """``fn`` returns what ``ref`` returns, to the byte — or raises what it raises."""
    try:
        want = ref(*args, **kwargs)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            fn(*args, **kwargs)
        assert str(got.value) == str(exc)
        return
    got = fn(*args, **kwargs)
    for g, w in zip(got if isinstance(want, tuple) else (got,), want if isinstance(want, tuple) else (want,)):
        _same(g, w)


def _assert_tail_matches_reference(coeffs, qp, block=16, seed=0, counter=True):
    """All three hooks on one coefficient set (``counter=False``: not the
    counter, whose NumPy body never promised NaN / inf); returns the levels."""
    grid = np.shape(qp)
    levels, bits = quantize_cost(coeffs, qp, mb_size=block)
    want_levels = quantize(coeffs, qp, mb_size=block)
    _same(levels, want_levels)
    _same(bits, transform_cost_bits(want_levels, mb_size=block))
    prediction = _prediction(grid, block, seed)
    _same(reconstruct(prediction, levels, qp, mb_size=block), _dense(prediction, want_levels, qp, block))
    if not counter:
        return levels
    offsets = np.asarray(qp) - 20.0
    counter = QuantBitCounter(coeffs, offsets, mb_size=block)
    for base in (31.0, 28.0, 26.5, 40.0, 51.0, 9.0, 3.0, 0.0, 22.0):  # down, up, far down: compacts twice
        assert counter.bits_at(base) == _frame_bits(coeffs, offsets, base, block)
    return levels


def _scipy(blocks, inverse):
    """What ``dct_blocks`` / ``idct_blocks`` are pinned to, block-major."""
    return (idctn if inverse else dctn)(blocks, axes=(1, 3), norm="ortho")


def _transformed(blocks, inverse):
    """``idct_blocks(blocks)`` or ``dct_blocks`` of the plane ``blocks`` is, block-major."""
    r8, _, c8, _ = blocks.shape
    if inverse:
        return idct_blocks(blocks).reshape(blocks.shape)
    return dct_blocks(blocks.reshape(r8 * 8, c8 * 8))


@st.composite
def _block_arrays(draw):
    """``(r8, 8, c8, 8)`` float32 / float64 blocks of signed zeros,
    subnormals, integer levels, moderate values and any finite magnitude
    (enough of the last and a transform overflows)."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    info = np.finfo(dtype)
    tiny = float(info.smallest_subnormal)
    special = [0.0, -0.0, tiny, -tiny, 3.0 * tiny, float(info.tiny) / 3.0, -float(info.tiny), float(info.max) / 64.0]
    width = 32 if dtype is np.float32 else 64
    element = st.one_of(
        st.sampled_from(special),
        st.integers(-2048, 2048).map(float),
        st.floats(-1e4, 1e4, width=width),
        st.floats(allow_nan=False, allow_infinity=False, width=width),
    )
    shape = (draw(st.integers(1, 3)), 8, draw(st.integers(1, 3)), 8)
    return draw(hnp.arrays(dtype, shape, elements=element))


def _nan_with_payload(dtype):
    bits = {np.float32: (np.uint32, 0x7FC00123), np.float64: (np.uint64, 0x7FF8000000000123)}[dtype]
    return np.array(bits[1], dtype=bits[0]).view(dtype)


@pytest.mark.usefixtures("kernel_backend")
class TestTransformIsScipys:
    """``dct_blocks`` / ``idct_blocks`` are scipy's ``dctn`` / ``idctn(axes=(1, 3),
    norm="ortho")`` to the byte on both backends; ``cext``'s hook answers
    every finite case and declines the rest, which scipy then answers."""

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_block_arrays())
    def test_property_both_directions_are_scipys_bytes(self, blocks):
        hook = kernels.active().transform
        for inverse in (False, True):
            with np.errstate(all="ignore"):
                want = _scipy(blocks, inverse)
                _same(_transformed(blocks, inverse), want)
                if hook is not None:
                    assert (hook(blocks, inverse=inverse) is None) == (not np.isfinite(want).all())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", ["nan", "payload", "inf", "-inf", "overflow"])
    def test_non_finite_input_or_output_is_scipys_to_answer(self, dtype, bad):
        blocks = np.random.default_rng(43).normal(0.0, 50.0, size=(2, 8, 3, 8)).astype(dtype)
        if bad == "overflow":  # finite input, sums past the largest finite value
            blocks[1, :, 2, :] = np.finfo(dtype).max / 2
        else:
            blocks[1, 3, 2, 5] = _nan_with_payload(dtype) if bad == "payload" else float(bad)
        hook = kernels.active().transform
        for inverse in (False, True):
            with np.errstate(all="ignore"):
                want = _scipy(blocks, inverse)
                assert not np.isfinite(want).all()
                _same(_transformed(blocks, inverse), want)
                assert hook is None or hook(blocks, inverse=inverse) is None

    @pytest.mark.parametrize("layout", ["strided", "fortran", "float16", "int64", "big-endian"])
    def test_layouts_the_hook_does_not_read_in_place(self, layout):
        """Copied to C order (strided, Fortran) or scipy's own (other dtypes): same bytes."""
        base = np.random.default_rng(47).integers(-300, 300, size=(2, 8, 3, 8)).astype(np.float64)
        blocks = {
            "strided": np.repeat(base, 2, axis=0)[::2],
            "fortran": np.asfortranarray(base),
            "float16": base.astype(np.float16),
            "int64": base.astype(np.int64),
            "big-endian": base.astype(">f8"),
        }[layout]
        for inverse in (False, True):
            want = _scipy(blocks, inverse)
            got = idct_blocks(blocks) if inverse else transform_module._transform(blocks, inverse=False)
            _same(np.ascontiguousarray(got).reshape(want.shape), np.ascontiguousarray(want))


COEFFS = ["residual", "wide", "halves", "zero", "negative_zero", "single"]
QPS = ["zero", "max", "sixes", "fractional", "saturated"]


@pytest.mark.usefixtures("kernel_backend")
class TestTransformTailBitExact:
    @pytest.mark.parametrize("block", [8, 16, 32])
    @pytest.mark.parametrize("grid", [(1, 1), (1, 5), (4, 1), (3, 7)])
    def test_grid_shapes(self, block, grid):
        for i, kind in enumerate(("residual", "halves")):
            _assert_tail_matches_reference(_coeffs(kind, grid, block, 3), _qp(QPS[(i + grid[1]) % 5], grid, 3), block)

    @pytest.mark.parametrize("kind", COEFFS)
    @pytest.mark.parametrize("qp", QPS)
    def test_content_by_qp_map(self, kind, qp):
        _assert_tail_matches_reference(_coeffs(kind, (4, 6), seed=5), _qp(qp, (4, 6), 5))

    def test_the_benchmark_grids(self):
        """18 x 30 macroblocks (480x288, ``drive_steady``) and 12 x 40 (``drive_outage``)."""
        _assert_tail_matches_reference(_coeffs("residual", (18, 30), seed=7), _qp("saturated", (18, 30), 7))
        _assert_tail_matches_reference(_coeffs("residual", (12, 40), seed=8), _qp("fractional", (12, 40), 8))

    def test_signed_zeros_are_kept(self):
        """``np.round(-0.3)`` is ``-0.0``, and so is a quantised ``-0.0``."""
        coeffs = _coeffs("halves", (2, 2), seed=9) * 0.01  # every quotient well under a half
        levels, bits = quantize_cost(coeffs, np.full((2, 2), 30.0))
        assert not levels.any() and np.signbit(levels).any() and not np.signbit(levels).all()
        _same(levels, quantize(coeffs, np.full((2, 2), 30.0)))
        assert bits.sum() == 16 * 0.25

    @pytest.mark.parametrize("layout", ["float32", "float64", "fortran", "sliced", "list", "float16"])
    def test_coefficient_layouts(self, layout):
        """The C loops read C-contiguous float32 / float64 in place; anything
        else is the reference's to read.  Same values, same bytes out."""
        base = _coeffs("residual", (4, 6), seed=11).astype(np.float64)
        if layout == "float16":
            base = base.astype(np.float16).astype(np.float64)
        coeffs = {
            "float32": base.astype(np.float32),
            "float64": base,
            "fortran": np.asfortranarray(base),
            "sliced": np.repeat(base, 2, axis=0)[::2],
            "list": base.tolist(),
            "float16": base.astype(np.float16),
        }[layout]
        qp = _qp("fractional", (8, 12), 11)[::2, ::2]  # a strided QP map too
        prediction = _prediction((4, 6), seed=11)
        if layout == "list":  # the step-by-step functions read ``.shape``: their exception is the answer
            _assert_same_outcome(quantize_cost, _quantize_cost_reference, coeffs, qp)
            _assert_same_outcome(reconstruct, _reconstruct_reference, prediction, coeffs, qp)
            with pytest.raises(AttributeError):
                QuantBitCounter(coeffs, qp)
            return
        want_levels = quantize(coeffs, qp)
        counter = QuantBitCounter(coeffs, qp - 20.0)
        for base_qp in (30.0, 12.0):
            assert counter.bits_at(base_qp) == _frame_bits(coeffs, qp - 20.0, base_qp)
        levels, bits = quantize_cost(coeffs, qp)
        _same(levels, want_levels)
        _same(bits, transform_cost_bits(want_levels))
        for pred in (prediction, prediction.astype(np.float64), np.asfortranarray(prediction), prediction.tolist()):
            strided = np.repeat(levels, 2, axis=0)[::2]
            _same(reconstruct(pred, strided, qp), _dense(pred, levels, qp))
        _same(reconstruct(prediction, levels.astype(np.float32), qp), _dense(prediction, levels.astype(np.float32), qp))

    @pytest.mark.parametrize("share", ["none", "all", "one"])
    def test_reconstruct_equals_the_dense_expression(self, share):
        """0 %, 100 % and exactly one of the 8x8 blocks coded."""
        grid = (5, 7)
        levels = np.zeros((10, 8, 14, 8))
        levels[::3, 0, ::2, 1] = -0.0
        if share == "all":
            levels[:, 0, :, 0] = np.random.default_rng(13).integers(1, 9, size=(10, 14))
        elif share == "one":
            levels[7, 6, 3, 2] = -3.0
        qp = _qp("fractional", grid, 13)
        prediction = _prediction(grid, seed=13)
        _same(reconstruct(prediction, levels, qp), _dense(prediction, levels, qp))
        skipped = np.abs(levels).max(axis=(1, 3)) == 0
        clipped = np.clip(prediction, 0.0, 255.0).reshape(10, 8, 14, 8)
        got = reconstruct(prediction, levels, qp).reshape(10, 8, 14, 8)
        assert (got.transpose(0, 2, 1, 3)[skipped] == clipped.transpose(0, 2, 1, 3)[skipped]).all()

    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.sampled_from([8, 16, 32]),
        st.integers(1, 4),
        st.integers(1, 5),
        st.sampled_from(COEFFS),
        st.sampled_from(QPS),
        st.integers(0, 10_000),
    )
    def test_property_any_grid_block_content_qp(self, block, rows, cols, kind, qp, seed):
        grid = (rows, cols)
        _assert_tail_matches_reference(_coeffs(kind, grid, block, seed), _qp(qp, grid, seed), block, seed)


@pytest.mark.usefixtures("kernel_backend")
class TestArgumentsTheCLoopsCannotIndex:
    """Before a pointer is passed, the public functions establish what the
    reference establishes — by raising what it raises, or by answering
    through it."""

    def test_qp_map_of_the_wrong_shape_raises_the_reference_text(self):
        coeffs = _coeffs("residual", (3, 4))
        levels = quantize(coeffs, np.full((3, 4), 30.0))
        prediction = _prediction((3, 4))
        for qp in (np.zeros((2, 2)), np.zeros((4, 3)), np.full((1, 1), 30.0), np.zeros((3, 4, 1))):
            with pytest.raises(ValueError, match=r"QP map .* inconsistent with coefficient blocks \(6, 8\)"):
                quantize_cost(coeffs, qp)
            with pytest.raises(ValueError, match=r"QP map .* inconsistent with coefficient blocks \(6, 8\)"):
                reconstruct(prediction, levels, qp)
        for offsets in (np.zeros((2, 2)), np.zeros(12), np.zeros((3, 4, 1))):
            with pytest.raises(ValueError, match="offset"):
                QuantBitCounter(coeffs, offsets)

    @pytest.mark.parametrize("block", [12, 4, 0, -16, 16.0])
    def test_block_not_a_positive_multiple_of_eight(self, block):
        coeffs = _coeffs("wide", (3, 3), 8)
        qp = np.full((3, 3), 28.0)
        _assert_same_outcome(quantize_cost, _quantize_cost_reference, coeffs, qp, mb_size=block)
        _assert_same_outcome(reconstruct, _reconstruct_reference, _prediction((3, 3), 8), coeffs, qp, mb_size=block)

    def test_arrays_that_are_not_whole_block_grids(self):
        qp = np.full((2, 2), 30.0)
        good = _coeffs("residual", (2, 2))
        for bad in (good[:3], good[:, :4], good.reshape(32, 32), good[..., :4], good[:0]):
            _assert_same_outcome(quantize_cost, _quantize_cost_reference, bad, qp)
            _assert_same_outcome(reconstruct, _reconstruct_reference, _prediction((2, 2)), bad.astype(np.float64), qp)
        levels = quantize(good, qp)
        # Too wide, too short, and a scalar (which broadcasts in the reference).
        for bad_prediction in (_prediction((2, 3)), _prediction((2, 2))[:-1], np.float32(3.0)):
            _assert_same_outcome(reconstruct, _reconstruct_reference, bad_prediction, levels, qp)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -(2.0**33)])
    def test_coefficients_the_bit_model_cannot_cost_in_integers(self, bad):
        coeffs = _coeffs("residual", (3, 4), seed=17).astype(np.float64)
        coeffs[2, 3, 5, 1] = bad
        with np.errstate(all="ignore"):
            _assert_tail_matches_reference(coeffs, _qp("fractional", (3, 4), 17), counter=bool(np.isfinite(bad)))

    def test_largest_levels_the_kernels_keep(self):
        coeffs = _coeffs("single", (2, 2))
        coeffs[coeffs != 0] = 1.5e9  # over a step of 0.625: a level just under 2^32
        qp = np.zeros((2, 2))
        levels = _assert_tail_matches_reference(coeffs, qp)
        assert 2.0**31 < np.abs(levels).max() < 2.0**32

    @pytest.mark.parametrize("qp_value", [np.nan, np.inf, -np.inf, -30.0, 400.0])
    def test_qp_values_outside_the_codec_range(self, qp_value):
        coeffs = _coeffs("residual", (3, 4), seed=19)
        qp = _qp("fractional", (3, 4), 19)
        qp[1, 2] = qp_value
        with np.errstate(all="ignore"):
            _assert_tail_matches_reference(coeffs, qp, counter=False)

    @pytest.mark.parametrize("max_qp", [51.0, 30.0, 0.0, -4.0])
    def test_counter_under_any_cap(self, max_qp):
        coeffs = _coeffs("residual", (3, 4), seed=21)
        offsets = _qp("saturated", (3, 4), 21) - 25.0
        counter = QuantBitCounter(coeffs, offsets, max_qp=max_qp)
        for base in (20.0, 14.0, 60.0, -8.0, 33.3):
            assert counter.bits_at(base) == _frame_bits(coeffs, offsets, base, max_qp=max_qp)


@pytest.mark.usefixtures("cext")
class TestCompiledPathIsTaken:
    """The equalities above would also hold if ``cext`` always answered
    through the reference; these pin which path a call takes."""

    @pytest.fixture
    def reference_calls(self, monkeypatch):
        calls = []
        for name in ("_quantize_cost_reference", "_reconstruct_reference"):
            real = getattr(transform_module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(transform_module, name, counted)
        real_group = QuantBitCounter._group

        def counted_group(self, *args):
            calls.append("QuantBitCounter._group")
            return real_group(self, *args)

        monkeypatch.setattr(QuantBitCounter, "_group", counted_group)
        return calls

    def test_well_formed_calls_never_touch_the_reference(self, reference_calls):
        qp = _qp("fractional", (4, 6))
        for coeffs in (_coeffs("residual", (4, 6)), _coeffs("wide", (4, 6))):  # float32, float64
            levels, _ = quantize_cost(coeffs, qp)
            reconstruct(_prediction((4, 6)), levels, qp)
            counter = QuantBitCounter(coeffs, qp - 20.0)
            assert [counter.bits_at(base) for base in (30.0, 28.0, 2.0)] == [
                _frame_bits(coeffs, qp - 20.0, base) for base in (30.0, 28.0, 2.0)
            ]
        encoder, decoder = VideoEncoder(), VideoDecoder()
        for seed in range(3):
            frame = np.clip(_prediction((4, 6), seed=seed), 0.0, 255.0)
            decoder.decode(encoder.encode(frame, target_bits=20_000.0))
        assert reference_calls == []

    def test_the_codec_never_calls_scipy(self, monkeypatch):
        """I- and P-frames, coded and decoded: every transform is the hook's,
        so neither the reference nor the scipy it falls back to is reached."""

        def refuse(*args, **kwargs):
            raise AssertionError("the transform reference on the compiled path")

        monkeypatch.setattr(transform_module, "_transform_reference", refuse)
        for name in ["scipy", *(name for name in sys.modules if name.startswith("scipy."))]:
            monkeypatch.setitem(sys.modules, name, None)  # any import of scipy raises ImportError
        encoder, decoder = VideoEncoder(), VideoDecoder()
        types = []
        for seed in range(3):
            encoded = encoder.encode(np.clip(_prediction((4, 6), seed=seed), 0.0, 255.0), target_bits=20_000.0)
            decoder.decode(encoded)
            types.append(encoded.frame_type)
        assert types == ["I", "P", "P"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0**40])
    def test_reported_values_take_the_reference_path_once(self, reference_calls, bad):
        coeffs = _coeffs("wide", (4, 6))
        qp = _qp("fractional", (4, 6))
        levels = quantize(coeffs, qp)
        coeffs[3, 1, 4, 1] = bad
        levels[3, 1, 4, 1] = bad
        with np.errstate(all="ignore"):
            quantize_cost(coeffs, qp)
            reconstruct(_prediction((4, 6)), levels, qp)
            counter = QuantBitCounter(coeffs, qp - 20.0)
            assert reference_calls == ["_quantize_cost_reference", "_reconstruct_reference"]
            counter.bits_at(30.0)
            counter.bits_at(20.0)
        assert reference_calls == ["_quantize_cost_reference", "_reconstruct_reference", "QuantBitCounter._group"]

    @pytest.mark.parametrize("bad", [-0.0, np.nan])
    def test_prediction_pixel_a_skipped_block_cannot_pass_through(self, reference_calls, bad):
        """``p + +-0.0`` is ``p`` to the bit unless ``p`` is ``-0.0`` (the
        sum takes the residual's sign) or a NaN (the sum quiets it)."""
        qp = _qp("fractional", (4, 6))
        levels = quantize(_coeffs("residual", (4, 6)), qp)
        levels[2, :, 5, :] = 0.0
        prediction = _prediction((4, 6))
        reconstruct(prediction, levels, qp)
        assert reference_calls == []
        prediction[20, 44] = bad  # inside block (2, 5)
        _same(reconstruct(prediction, levels, qp), _dense(prediction, levels, qp))
        assert reference_calls == ["_reconstruct_reference"]
        levels[2, 0, 5, 0] = 1.0  # the block is coded now: the sum is computed, as the reference does
        _same(reconstruct(prediction, levels, qp), _dense(prediction, levels, qp))
        assert reference_calls == ["_reconstruct_reference"]

    def test_counter_arguments_the_probe_declines_at_construction(self, reference_calls):
        coeffs = _coeffs("wide", (4, 6))
        QuantBitCounter(np.asfortranarray(coeffs), np.zeros((4, 6)))
        QuantBitCounter(np.clip(coeffs, -6e4, 6e4).astype(np.float16), np.zeros((4, 6)))
        assert reference_calls == ["QuantBitCounter._group"] * 2


class TestCExtReentrant:
    @pytest.mark.timeout(120)
    def test_four_threads_on_one_frame_give_identical_bytes(self, cext):
        coeffs, qp = _coeffs("residual", (18, 30), seed=41), _qp("saturated", (18, 30), 41)
        prediction = _prediction((18, 30), seed=41)
        want_levels = quantize(coeffs, qp)
        want = (
            want_levels, transform_cost_bits(want_levels), _dense(prediction, want_levels, qp),
            [_frame_bits(coeffs, qp - 20.0, base) for base in (31.0, 29.0, 12.0)],
        )

        def run(_):
            levels, bits = quantize_cost(coeffs, qp)
            counter = QuantBitCounter(coeffs, qp - 20.0)
            return levels, bits, reconstruct(prediction, levels, qp), [counter.bits_at(b) for b in (31.0, 29.0, 12.0)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run, range(12)))
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            for g, w in zip(got[:3], want[:3]):
                _same(g, w)
            assert got[3] == want[3]


# ---------------------------------------------------------------------------
# Rate control: the properties the warm-started search stands on
# ---------------------------------------------------------------------------


def _cold_bisection(bits_at, budget_bits, max_qp=51):
    """``VideoEncoder._rate_control`` as it was before the warm start (the
    body of ddde004), kept as the oracle."""
    lo, hi = 0, max_qp
    if bits_at(float(lo)) <= budget_bits:
        return float(lo)
    if bits_at(float(hi)) > budget_bits:
        return float(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bits_at(float(mid)) <= budget_bits:
            hi = mid
        else:
            lo = mid
    return float(hi)


class _Curve:
    """A counter that answers from a recorded curve and counts its probes."""

    def __init__(self, bits):
        self.bits = bits
        self.probes = []

    def bits_at(self, qp):
        assert qp == int(qp) and 0 <= qp <= 51
        self.probes.append(int(qp))
        return self.bits[int(qp)]


_planes = st.builds(
    # Offsets rounded to 0-2 places: whole, repeated and fractional values.
    lambda kind, rows, cols, seed, spread: (
        _coeffs(kind, (rows, cols), seed=seed),
        np.random.default_rng(seed).uniform(-spread, spread, size=(rows, cols)).round(seed % 3),
    ),
    st.sampled_from(["residual", "wide", "halves", "single"]),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 10_000),
    st.sampled_from([0.0, 6.0, 30.0, 60.0]),
)


@pytest.mark.usefixtures("kernel_backend")
class TestRateControlProperties:
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_planes, st.floats(0.0, 1.0))
    def test_bits_never_rise_with_qp_and_every_start_finds_the_same_qp(self, plane, share):
        coeffs, offsets = plane
        counter = QuantBitCounter(coeffs, offsets)
        # Ascending first, then descending through a fresh counter: the
        # compiled probe re-compacts on the way down.
        curve = [counter.bits_at(float(qp)) for qp in range(52)]
        counter = QuantBitCounter(coeffs, offsets)
        assert [counter.bits_at(float(qp)) for qp in range(51, -1, -1)] == curve[::-1]
        assert all(hi >= lo for hi, lo in zip(curve, curve[1:]))
        # A budget anywhere on the curve, on a value of it, or off either end.
        budget = curve[51] + share * (curve[0] - curve[51])
        for target in (budget, curve[int(share * 51)], curve[0] + 1.0, curve[51] - 1.0):
            want = _cold_bisection(_Curve(curve).bits_at, target)
            for hint in (None, *range(52)):
                recorded = _Curve(curve)
                assert VideoEncoder._rate_control(recorded, target, hint) == want, (hint, target)
                assert len(set(recorded.probes)) == len(recorded.probes)
                if hint is not None and abs(hint - want) <= 2:
                    assert len(recorded.probes) <= 4, (hint, want, recorded.probes)

    @pytest.fixture
    def searches(self, monkeypatch):
        """``(hint, answer)`` of every rate-control search while the test runs."""
        seen = []
        real = VideoEncoder._rate_control

        def recording(counter, budget_bits, hint=None):
            seen.append((hint, real(counter, budget_bits, hint)))
            return seen[-1][1]

        monkeypatch.setattr(VideoEncoder, "_rate_control", staticmethod(recording))
        # Where the inter_encode hook codes a P-frame, its search runs in C:
        # record the hint it was handed and the QP it chose.
        backend = kernels.active()
        hook = backend.inter_encode
        if hook is not None:

            def recording_hook(*args, budget, hint, **kwargs):
                out = hook(*args, budget=budget, hint=hint, **kwargs)
                if out is not None and budget is not None:
                    seen.append((hint, out[2]))
                return out

            monkeypatch.setattr(backend, "inter_encode", recording_hook)
        return seen

    def test_reset_and_a_fresh_encoder_forget_the_hint(self, searches):
        frames = [np.clip(_prediction((3, 4), seed=seed), 0.0, 255.0) for seed in range(3)]
        encoder = VideoEncoder()
        for frame in frames:
            encoder.encode(frame, target_bits=12_000.0)
        encoder.encode(frames[0], base_qp=20.0)  # CRF neither uses nor moves it
        encoder.encode(frames[1], target_bits=12_000.0, force_intra=True)
        assert [hint for hint, _ in searches] == [None, *(int(answer) for _, answer in searches[:3])]
        encoder.reset()
        encoder.encode(frames[0], target_bits=12_000.0)
        VideoEncoder().encode(frames[0], target_bits=12_000.0)
        assert [hint for hint, _ in searches[4:]] == [None, None]

    def test_the_hint_moves_the_probes_never_the_answer(self, searches):
        """An encoder fed the same frame twice picks the same QP whatever it
        encoded in between."""
        frames = [np.clip(_prediction((3, 4), seed=seed), 0.0, 255.0) for seed in range(3)]
        encoder = VideoEncoder()
        outcomes = set()
        for detour in (None, 2_500.0, 40_000.0, 400_000.0):
            if detour is not None:
                encoder.encode(frames[1], target_bits=detour)
                encoder.encode(frames[2], target_bits=detour)
            encoded = encoder.encode(frames[0], target_bits=9_000.0, force_intra=True)
            outcomes.add((encoded.base_qp, encoded.bits, encoded.levels.tobytes(), encoded.reconstruction.tobytes()))
        assert len(outcomes) == 1
        assert len({hint for hint, _ in searches[::3]}) == 4  # each time from somewhere else
