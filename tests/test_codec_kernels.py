"""Bit-exactness pins for the vectorised hot-path kernels.

ESA / TESA's cost volume with TESA's batched SATD re-rank, the gathered
motion-compensation, the reusable SAD evaluator buffers and the cached
rate-control bit curves must each reproduce a straightforward reference
implementation to the last bit.  These tests hold the reference versions
(per-block Python loops, the cost volume built from allocating shifts, the
plain quantise-and-count pipeline) and assert exact equality — not
closeness — across dtypes, odd search ranges, fractional MVs and tie-heavy
content.

The classes exercising *dispatched* kernels carry the ``kernel_backend``
fixture (see ``conftest.py``): every assertion re-runs under each
registered ``repro.kernels`` backend — the numpy reference and the compiled
C — because the backend contract is bit-identity, not closeness.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.codec.motion import (
    _BlockSadEvaluator,
    _motion_compensate_reference,
    _pattern_search,
    _pattern_search_reference,
    estimate_motion,
    interpolated_block,
    motion_compensate,
)
from repro.codec.transform import (
    QuantBitCounter,
    dct_blocks,
    quantize,
    transform_cost_bits,
)
from repro.utils.integral import block_reduce_sum, shift_with_edge_pad, shifted_window

pytestmark = pytest.mark.kernels

# ---------------------------------------------------------------------------
# Reference implementations (the pre-vectorisation semantics, kept simple).
# ---------------------------------------------------------------------------


def _ref_mv_bits(dx: float, dy: float) -> float:
    """Scalar exp-Golomb MV bit cost against the zero predictor."""
    bx = 1.0 + 2.0 * np.floor(np.log2(2.0 * abs(float(dx)) + 1.0))
    by = 1.0 + 2.0 * np.floor(np.log2(2.0 * abs(float(dy)) + 1.0))
    return bx + by


def _ref_cost_volume(cur, ref, search_range, block, lambda_mv):
    """Exact SAD/cost volumes over the displacement grid, dy-major dx-minor."""
    cur64 = np.asarray(cur, dtype=np.float32).astype(np.float64)
    ref64 = np.asarray(ref, dtype=np.float32).astype(np.float64)
    disps = [
        (dx, dy)
        for dy in range(-search_range, search_range + 1)
        for dx in range(-search_range, search_range + 1)
    ]
    sads = np.empty((len(disps), cur64.shape[0] // block, cur64.shape[1] // block))
    costs = np.empty_like(sads)
    for i, (dx, dy) in enumerate(disps):
        shifted = shift_with_edge_pad(ref64, dx, dy)
        sads[i] = block_reduce_sum(np.abs(cur64 - shifted), block)
        costs[i] = sads[i] + lambda_mv * _ref_mv_bits(dx, dy)
    return disps, sads, costs


def _ref_esa(cur, ref, search_range, block, lambda_mv):
    """Full-volume exhaustive search: np.argmin over the cost volume."""
    disps, sads, costs = _ref_cost_volume(cur, ref, search_range, block, lambda_mv)
    best = np.argmin(costs, axis=0)
    mv = np.array(disps, dtype=np.int64)[best].astype(np.float32)
    sad = np.take_along_axis(sads, best[None], axis=0)[0]
    return mv, sad


def _ref_hadamard(n):
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def _ref_tesa(cur, ref, search_range, block, lambda_mv):
    """Top-5 SATD re-rank, one Python loop iteration per macroblock."""
    disps, sads, costs = _ref_cost_volume(cur, ref, search_range, block, lambda_mv)
    cur64 = np.asarray(cur, dtype=np.float32).astype(np.float64)
    ref64 = np.asarray(ref, dtype=np.float32).astype(np.float64)
    part = np.argpartition(costs, 5, axis=0)[:5]
    had = _ref_hadamard(block)
    rows, cols = costs.shape[1:]
    mv = np.zeros((rows, cols, 2), dtype=np.float32)
    sad = np.zeros((rows, cols))
    for r in range(rows):
        for c in range(cols):
            best_cost, best_i = np.inf, 0
            for k in range(5):
                i = int(part[k, r, c])
                dx, dy = disps[i]
                shifted = shift_with_edge_pad(ref64, dx, dy)
                blk = cur64[r * block : (r + 1) * block, c * block : (c + 1) * block]
                rblk = shifted[r * block : (r + 1) * block, c * block : (c + 1) * block]
                satd = np.abs(had @ (blk - rblk) @ had.T).sum() / block
                cost = satd + lambda_mv * _ref_mv_bits(dx, dy)
                if cost < best_cost:
                    best_cost, best_i = cost, i
            mv[r, c] = disps[best_i]
            sad[r, c] = sads[best_i, r, c]
    return mv, sad


def _ref_motion_compensate(reference, mv, block=16):
    """Per-macroblock loop over interpolated_block (the original kernel)."""
    reference = np.asarray(reference, dtype=np.float32)
    rows, cols = mv.shape[0], mv.shape[1]
    rng = int(np.ceil(np.abs(mv).max())) + 2
    ref_pad = np.pad(reference.astype(np.float64), rng, mode="edge")
    out = np.zeros(reference.shape, dtype=np.float64)
    for r in range(rows):
        for c in range(cols):
            blk = interpolated_block(
                ref_pad, r * block, c * block, float(mv[r, c, 0]), float(mv[r, c, 1]), rng, block
            )
            out[r * block : (r + 1) * block, c * block : (c + 1) * block] = blk
    return out.astype(np.float32)


def _ref_shift(img, dx, dy):
    """Clip-gather edge-padded shift (the original implementation)."""
    h, w = img.shape
    rows = np.clip(np.arange(h) - dy, 0, h - 1)
    cols = np.clip(np.arange(w) - dx, 0, w - 1)
    return img[rows[:, None], cols[None, :]]


def _frames(seed, shape=(64, 96), kind="noise"):
    gen = np.random.default_rng(seed)
    if kind == "noise":
        ref = gen.uniform(0, 255, size=shape).astype(np.float32)
        cur = np.clip(ref + gen.normal(0, 8, size=shape), 0, 255).astype(np.float32)
    elif kind == "quantised":  # integer-valued: exact arithmetic, heavy ties
        ref = gen.integers(0, 8, size=shape).astype(np.float32) * 32.0
        cur = _ref_shift(ref, 3, -2).astype(np.float32)
    elif kind == "flat":  # every displacement ties: pure tie-break test
        ref = np.full(shape, 128.0, dtype=np.float32)
        cur = np.full(shape, 128.0, dtype=np.float32)
    else:
        raise AssertionError(kind)
    return cur, ref


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_search_matches_reference(cur, ref, **params):
    """``_pattern_search`` under the active backend equals the reference to
    the byte — and on ``cext`` the compiled search really answered."""
    if kernels.active().name == "cext":
        assert kernels.active().pattern_search(cur, ref, **params) is not None
    got = _pattern_search(cur, ref, **params)
    for g, w in zip(got, _pattern_search_reference(cur, ref, **params)):
        _same(g, w)
    return got


def _search_frames(kind, shape, seed, search_range):
    gen = np.random.default_rng(seed)
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    ref = gen.uniform(0, 255, size=shape)
    if kind == "noise":  # every block is matched poorly: seed grid and UMH offsets run for all
        cur = ref + gen.normal(0, 8, size=shape)
    elif kind == "flat":  # every candidate ties: only the MV-bit term decides
        ref = np.full(shape, 128.0)
        cur = ref
    elif kind == "beyond":  # moved further than the window: clipping and the valid mask bite
        cur = _ref_shift(ref, search_range + 3, -(search_range + 5)) + gen.normal(0, 2, size=shape)
    elif kind == "ramp":
        # A slope displaced by 45 px: SAD falls one step per pixel walked, so a
        # block spends all 16 sweeps of all three passes walking (the window
        # permitting) — more distinct displacements than its memo holds.
        ref = xx * 1.5 + yy * 0.5 + gen.uniform(0, 0.25, size=shape)
        cur = _ref_shift(ref, 45, 0)
    else:
        raise AssertionError(kind)
    return np.clip(cur, 0, 255).astype(np.float32), np.clip(ref, 0, 255).astype(np.float32)


SEARCH_KINDS = ["noise", "flat", "beyond", "ramp"]


@pytest.mark.usefixtures("kernel_backend")
class TestPatternSearchOracle:
    """The one ``pattern_search`` hook against ``_pattern_search_reference``,
    bytes of ``(mv, sad)``."""

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.sampled_from(["dia", "hex", "umh"]),
        st.sampled_from([4, 7, 16, 24, 48]),
        st.sampled_from([8, 16]),
        st.sampled_from(SEARCH_KINDS),
        st.booleans(),
        st.integers(0, 10_000),
    )
    def test_property_method_range_block_content(self, method, search_range, block, kind, subpel, seed):
        cur, ref = _search_frames(kind, (4 * block, 6 * block), seed, search_range)
        _assert_search_matches_reference(
            cur, ref, method=method, search_range=search_range, block=block, lambda_mv=4.0, subpel=subpel
        )

    @pytest.mark.parametrize("method,kind", [("dia", "ramp"), ("umh", "noise")])
    def test_a_block_that_outgrows_its_memo(self, method, kind):
        """DIA walks 45 px one pixel a sweep, three new SADs each (up to 154
        distinct displacements for one block, counted on the reference), and
        UMH on noise tries its 264 offsets for every block (239 distinct):
        more than a block's table takes, so the search runs on with it full."""
        cur, ref = _search_frames(kind, (64, 160), 3, 48)
        mv, _ = _assert_search_matches_reference(
            cur, ref, method=method, search_range=48, block=16, lambda_mv=4.0, subpel=True
        )
        if kind == "ramp":
            assert np.abs(mv[..., 0]).max() >= 40.0

    @pytest.mark.parametrize("lambda_mv", [0.0, 0.5, 64.0])
    def test_rate_weight(self, lambda_mv):
        cur, ref = _search_frames("beyond", (64, 96), 5, 4)
        _assert_search_matches_reference(
            cur, ref, method="hex", search_range=9, block=16, lambda_mv=lambda_mv, subpel=True
        )


@pytest.mark.usefixtures("cext")
class TestPatternSearchDeclines:
    """What the compiled search cannot prove it hands back (``None``), and
    ``estimate_motion`` then equals the reference all the same."""

    PARAMS = dict(method="hex", search_range=6, block=16, lambda_mv=4.0, subpel=True)

    def _declined(self, cur, ref, **overrides):
        params = {**self.PARAMS, **overrides}
        assert kernels.active().pattern_search(cur, ref, **params) is None
        for g, w in zip(_pattern_search(cur, ref, **params), _pattern_search_reference(cur, ref, **params)):
            _same(g, w)

    def test_a_search_range_too_wide_for_the_memo_key(self):
        cur, ref = _frames(81, shape=(32, 48))
        assert kernels.active().pattern_search(cur, ref, **{**self.PARAMS, "search_range": 127}) is not None
        self._declined(cur, ref, search_range=128)
        self._declined(cur, ref, search_range=-1)
        self._declined(cur, ref, search_range=np.int64(6))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")  # the reference's inf - inf
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_a_pixel_that_is_not_finite(self, which, value):
        frames = list(_frames(82))
        frames[which][17, 33] = value
        self._declined(*frames)

    def test_frames_the_c_loops_cannot_index_as_they_stand(self):
        cur, ref = _frames(83)
        self._declined(np.asfortranarray(cur), ref)
        self._declined(cur, np.asfortranarray(ref))
        self._declined(cur.astype(np.float64), ref.astype(np.float64))
        self._declined(cur[:, ::2][:32, :32], ref[:, ::2][:32, :32])
        self._declined(cur, ref, block=np.int64(16))
        self._declined(cur, ref, block=4)  # the codec's macroblocks are 8-multiples
        self._declined(cur, ref, lambda_mv=np.inf)

    def test_a_frame_without_a_block(self):
        empty = np.zeros((0, 64), dtype=np.float32)
        assert kernels.active().pattern_search(empty, empty, **self.PARAMS) is None

    def test_estimate_motion_casts_and_still_matches(self):
        """The public entry casts to float32 (keeping a Fortran layout) and
        the declined call is answered by the reference: numpy == cext."""
        cur, ref = _frames(84)
        for a, b in ((np.asfortranarray(cur), ref), (cur.astype(np.float64), ref.astype(np.uint8))):
            got = estimate_motion(a, b, method="umh", search_range=6)
            with kernels.use_backend("numpy"):
                want = estimate_motion(a, b, method="umh", search_range=6)
            _same(got.mv, want.mv)
            _same(got.sad, want.sad)


@pytest.mark.usefixtures("kernel_backend")
class TestBlockSadDispatch:
    """The SADs the dispatched search returns are the reference evaluator's
    own, and the evaluator — NumPy under every backend — raises on a
    displacement outside its padding instead of reading wild."""

    @pytest.mark.parametrize("block,shape", [(16, (64, 96)), (8, (48, 40)), (4, (16, 24))])
    def test_matches_reference_evaluator(self, block, shape):
        gen = np.random.default_rng(61)
        # Adversarial magnitudes: a different summation order would show.
        ref = np.exp(gen.normal(0.0, 6.0, size=shape)).astype(np.float32)
        cur = np.exp(gen.normal(0.0, 6.0, size=shape)).astype(np.float32)
        for method in ("dia", "hex", "umh"):
            est = estimate_motion(cur, ref, method=method, search_range=7, block=block, subpel=False)
            dx, dy = est.mv[..., 0].ravel().astype(np.int64), est.mv[..., 1].ravel().astype(np.int64)
            oracle = _BlockSadEvaluator(cur, ref, 7, block)
            np.testing.assert_array_equal(est.sad.ravel(), oracle.sad_int(dx, dy))
            idx = np.flatnonzero(gen.uniform(size=oracle.n) < 0.5)
            np.testing.assert_array_equal(est.sad.ravel()[idx], oracle.sad_int_subset(idx, dx[idx], dy[idx]))

    def test_out_of_range_raises_instead_of_reading_wild(self):
        cur, ref = _frames(62)
        ev = _BlockSadEvaluator(cur, ref, 4, 16)
        zero = np.zeros(ev.n, dtype=np.int64)
        with pytest.raises(IndexError):
            ev.sad_int(zero + 10 * ev.pad + 10_000, zero)
        with pytest.raises(IndexError):
            ev.sad_int_subset(np.array([ev.n]), zero[:1], zero[:1])


class TestCExtReentrant:
    """``cext`` kernels share nothing between calls: concurrent encodes
    (``agent_workers > 1``, stream workers) must equal the serial results."""

    @pytest.mark.timeout(120)
    def test_threads_match_serial(self, cext):
        # Frames big enough that the C calls of different threads overlap
        # (at 96x128 a shared scratch buffer went unnoticed).
        jobs = []
        for seed, method in enumerate(["dia", "hex", "umh"] * 4):
            cur, ref = _frames(70 + seed, shape=(288, 480))
            jobs.append((method, np.roll(cur, seed % 9 - 4, axis=1), ref))

        def run(job):
            method, cur, ref = job
            est = estimate_motion(cur, ref, method=method, search_range=8)
            return est.mv, est.sad, motion_compensate(ref, est.mv)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            serial = [run(job) for job in jobs]
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(run, jobs * 3))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(threaded, serial * 3):
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


# ---------------------------------------------------------------------------
# Exhaustive search (ESA / TESA)
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("kernel_backend")
class TestExhaustiveBitExact:
    @pytest.mark.parametrize("kind", ["noise", "quantised", "flat"])
    @pytest.mark.parametrize("search_range", [3, 5, 8])
    def test_esa_matches_full_volume(self, kind, search_range):
        cur, ref = _frames(11, kind=kind)
        got = estimate_motion(
            cur, ref, method="esa", search_range=search_range, block=16, subpel=False
        )
        mv_ref, sad_ref = _ref_esa(cur, ref, search_range, 16, 4.0)
        np.testing.assert_array_equal(got.mv, mv_ref)
        np.testing.assert_array_equal(got.sad, sad_ref)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64])
    def test_esa_dtype_cast_path(self, dtype):
        gen = np.random.default_rng(5)
        ref = gen.uniform(0, 255, size=(48, 64))
        cur = np.clip(ref + gen.normal(0, 10, size=ref.shape), 0, 255)
        cur, ref = cur.astype(dtype), ref.astype(dtype)
        got = estimate_motion(cur, ref, method="esa", search_range=4, block=16, subpel=False)
        mv_ref, sad_ref = _ref_esa(cur, ref, 4, 16, 4.0)
        np.testing.assert_array_equal(got.mv, mv_ref)
        np.testing.assert_array_equal(got.sad, sad_ref)

    def test_esa_odd_range_small_blocks(self):
        cur, ref = _frames(7, shape=(32, 48))
        got = estimate_motion(cur, ref, method="esa", search_range=7, block=8, subpel=False)
        mv_ref, sad_ref = _ref_esa(cur, ref, 7, 8, 4.0)
        np.testing.assert_array_equal(got.mv, mv_ref)
        np.testing.assert_array_equal(got.sad, sad_ref)

    @pytest.mark.parametrize("kind", ["noise", "quantised"])
    def test_tesa_matches_per_block_rerank(self, kind):
        cur, ref = _frames(13, shape=(48, 64), kind=kind)
        got = estimate_motion(cur, ref, method="tesa", search_range=5, block=16, subpel=False)
        mv_ref, sad_ref = _ref_tesa(cur, ref, 5, 16, 4.0)
        np.testing.assert_array_equal(got.mv, mv_ref)
        np.testing.assert_array_equal(got.sad, sad_ref)

    @pytest.mark.parametrize("method", ["esa", "tesa"])
    def test_deterministic_across_runs(self, method):
        cur, ref = _frames(17)
        a = estimate_motion(cur, ref, method=method, search_range=6, subpel=True)
        b = estimate_motion(cur, ref, method=method, search_range=6, subpel=True)
        np.testing.assert_array_equal(a.mv, b.mv)
        np.testing.assert_array_equal(a.sad, b.sad)


# ---------------------------------------------------------------------------
# SAD evaluator scratch buffers
# ---------------------------------------------------------------------------


class TestBlockSadEvaluator:
    def _naive_sad(self, ev, b, dx, dy):
        win = ev.ref_pad[
            ev.by[b] + ev.pad - dy : ev.by[b] + ev.pad - dy + ev.block,
            ev.bx[b] + ev.pad - dx : ev.bx[b] + ev.pad - dx + ev.block,
        ]
        diff = np.abs(ev.cur_blocks[b] - win)
        # Same reduction shape as the evaluator so integer-valued content
        # makes the comparison exact regardless of summation order.
        return diff.reshape(1, ev.block, ev.block).sum(axis=(1, 2))[0]

    def test_sad_int_matches_naive(self):
        gen = np.random.default_rng(3)
        cur = gen.integers(0, 256, size=(48, 64)).astype(np.float32)
        ref = gen.integers(0, 256, size=(48, 64)).astype(np.float32)
        ev = _BlockSadEvaluator(cur, ref, 6, 16)
        dx = gen.integers(-6, 7, size=ev.n)
        dy = gen.integers(-6, 7, size=ev.n)
        got = ev.sad_int(dx, dy)
        want = [self._naive_sad(ev, b, int(dx[b]), int(dy[b])) for b in range(ev.n)]
        np.testing.assert_array_equal(got, np.array(want))

    def test_sad_int_subset_consistent_with_full(self):
        gen = np.random.default_rng(4)
        cur = gen.uniform(0, 255, size=(64, 96)).astype(np.float32)
        ref = gen.uniform(0, 255, size=(64, 96)).astype(np.float32)
        ev = _BlockSadEvaluator(cur, ref, 5, 16)
        dx = gen.integers(-5, 6, size=ev.n)
        dy = gen.integers(-5, 6, size=ev.n)
        full = ev.sad_int(dx, dy).copy()
        idx = np.sort(gen.choice(ev.n, size=ev.n // 2, replace=False))
        sub = ev.sad_int_subset(idx, dx[idx], dy[idx])
        np.testing.assert_array_equal(sub, full[idx])

    def test_scratch_reuse_no_state_leak(self):
        # Two interleaved evaluations must not contaminate each other
        # through the shared scratch buffers.
        gen = np.random.default_rng(9)
        cur = gen.uniform(0, 255, size=(48, 48)).astype(np.float32)
        ref = gen.uniform(0, 255, size=(48, 48)).astype(np.float32)
        ev = _BlockSadEvaluator(cur, ref, 4, 16)
        zero = np.zeros(ev.n, dtype=np.int64)
        first = ev.sad_int(zero, zero).copy()
        ev.sad_int(zero + 2, zero - 3)
        ev.sad_int_subset(np.arange(ev.n // 2), zero[: ev.n // 2] + 1, zero[: ev.n // 2])
        np.testing.assert_array_equal(ev.sad_int(zero, zero), first)


# ---------------------------------------------------------------------------
# Motion compensation
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("kernel_backend")
class TestMotionCompensateBitExact:
    def test_integer_mvs(self):
        gen = np.random.default_rng(21)
        ref = gen.uniform(0, 255, size=(64, 96)).astype(np.float32)
        mv = gen.integers(-7, 8, size=(4, 6, 2)).astype(np.float32)
        np.testing.assert_array_equal(motion_compensate(ref, mv), _ref_motion_compensate(ref, mv))

    def test_fractional_mvs(self):
        gen = np.random.default_rng(22)
        ref = gen.uniform(0, 255, size=(64, 96)).astype(np.float32)
        mv = (gen.integers(-14, 15, size=(4, 6, 2)) * 0.25).astype(np.float32)
        np.testing.assert_array_equal(motion_compensate(ref, mv), _ref_motion_compensate(ref, mv))

    def test_mixed_and_negative_fractions(self):
        gen = np.random.default_rng(23)
        ref = gen.uniform(0, 255, size=(48, 48)).astype(np.float32)
        mv = np.zeros((3, 3, 2), dtype=np.float32)
        mv[0, 0] = (-0.5, 0.25)
        mv[1, 2] = (3.75, -2.5)
        mv[2, 1] = (-6.0, 5.0)  # integer: must hit the single-tap fast path
        np.testing.assert_array_equal(motion_compensate(ref, mv), _ref_motion_compensate(ref, mv))

    def test_estimated_field_roundtrip(self):
        cur, ref = _frames(24)
        mv = estimate_motion(cur, ref, method="hex", search_range=8, subpel=True).mv
        np.testing.assert_array_equal(motion_compensate(ref, mv), _ref_motion_compensate(ref, mv))

    def test_block8(self):
        gen = np.random.default_rng(25)
        ref = gen.uniform(0, 255, size=(32, 40)).astype(np.float32)
        mv = (gen.integers(-8, 9, size=(4, 5, 2)) * 0.5).astype(np.float32)
        np.testing.assert_array_equal(
            motion_compensate(ref, mv, block=8), _ref_motion_compensate(ref, mv, block=8)
        )

    def test_negative_zero_components_over_negative_zero_pixels(self):
        """A zero bilinear weight's sign shows in a sum of -0.0 taps, so the
        weights come from each component minus its floor taken as an
        integer, as the reference forms them (``-0.0 - 0`` keeps the sign)."""
        gen = np.random.default_rng(26)
        ref = np.where(gen.uniform(size=(32, 48)) < 0.5, -0.0, gen.uniform(0, 255, size=(32, 48)))
        mv = gen.choice([-0.0, 0.0, 0.5, -0.25, 1.0], size=(4, 6, 2)).astype(np.float32)
        got = motion_compensate(ref.astype(np.float32), mv, block=8)
        assert got.tobytes() == _motion_compensate_reference(ref.astype(np.float32), mv, block=8).tobytes()

    @pytest.mark.parametrize("quarter", [1, 4], ids=["integer", "quarter-pel"])
    def test_windows_on_and_past_every_edge(self, quarter):
        """Blocks read in place, blocks whose window crosses an edge, and
        windows exactly on the top-left (their taps one row up and one
        column left outside) and bottom-right corners (all inside)."""
        gen = np.random.default_rng(27)
        ref = gen.uniform(0, 255, size=(32, 48)).astype(np.float32)
        rows, cols = np.mgrid[0:4, 0:6] * 8.0
        fields = [gen.integers(-64 * quarter, 64 * quarter + 1, size=(4, 6, 2)) / quarter,
                  np.stack([cols + 0.25, rows + 0.5], axis=-1), np.stack([cols - 39.75, rows - 23.5], axis=-1)]
        for mv in fields:
            mv = mv.astype(np.float32)
            got = motion_compensate(ref, mv, block=8)
            assert got.tobytes() == _motion_compensate_reference(ref, mv, block=8).tobytes()


def _mc_outcome(backend, plane, mv, block):
    """What ``motion_compensate`` makes of the arguments under ``backend``:
    the output's bytes, or the type of what it raised."""
    with kernels.use_backend(backend):
        try:
            out = motion_compensate(plane, mv, block=block)
        except Exception as exc:  # the type is the outcome
            return type(exc)
    return out.dtype, out.shape, out.tobytes()


def _mv_field(shape, value, at=(0, 0, 0), dtype=np.float64):
    mv = np.zeros(shape, dtype=dtype)
    if mv.size:
        mv[at] = value
    return mv


@pytest.mark.usefixtures("cext")
class TestMotionCompensateAtTheBoundary:
    """Arguments at the edge of what the C loops can index: both backends
    give the same bytes or raise the same exception type.  An MV C cannot
    floor into int64, or one whose padded plane would overflow its byte
    count, is the reference's to answer (it raises)."""

    @pytest.mark.parametrize("plane_shape, mv_shape, block", [
        ((48, 80), (3, 5, 2), 16),
        ((24, 40), (3, 5, 2), 8),
        ((17, 16), (1, 1, 2), 16),
        ((33, 49), (2, 3, 2), 16),
        ((32, 48), (2, 3, 2), 8),
        ((15, 24), (2, 3, 2), 8),
        ((0, 48), (0, 3, 2), 16),
        ((32, 48), (0, 0, 2), 16),
        ((0, 0), (0, 0, 2), 16),
    ], ids=["3x5-blocks", "3x5-blocks-of-8", "17x16", "33x49", "block8-grid-mismatch", "15x24-block8", "no-rows",
            "empty-field", "empty"])
    def test_odd_and_empty_planes(self, plane_shape, mv_shape, block):
        plane = np.random.default_rng(31).uniform(0, 255, size=plane_shape).astype(np.float32)
        mv = _mv_field(mv_shape, 1.5)
        assert _mc_outcome("cext", plane, mv, block) == _mc_outcome("numpy", plane, mv, block)

    @pytest.mark.parametrize("value", [200.25, -150.0, 47.5, -33.75])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_mvs_pointing_outside_the_frame(self, axis, value):
        plane = np.random.default_rng(32).uniform(0, 255, size=(32, 48)).astype(np.float32)
        mv = _mv_field((2, 3, 2), value, at=(1, 2, axis))
        mv[0, 0] = (-value, value)
        got = _mc_outcome("cext", plane, mv, 16)
        assert got == _mc_outcome("numpy", plane, mv, 16)
        assert not isinstance(got, type)

    @pytest.mark.parametrize("value", [
        np.nan, np.inf, -np.inf, 1e300, -1e300, 1e18, np.finfo(np.float32).max,
    ], ids=["nan", "inf", "-inf", "1e300", "-1e300", "1e18", "float32-max"])
    def test_mvs_c_cannot_index(self, value):
        plane = np.random.default_rng(33).uniform(0, 255, size=(32, 48)).astype(np.float32)
        mv = _mv_field((2, 3, 2), value, at=(1, 1, 0), dtype=np.asarray(value).dtype)
        got = _mc_outcome("cext", plane, mv, 16)
        assert isinstance(got, type)
        assert got is _mc_outcome("numpy", plane, mv, 16)


# ---------------------------------------------------------------------------
# Rate-control bit curves
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("kernel_backend")
class TestQuantBitCounter:
    def _reference_bits(self, coeffs, offsets, qp, max_qp=51.0):
        qp_map = np.clip(qp + offsets, 0.0, max_qp)
        return float(transform_cost_bits(quantize(coeffs, qp_map, mb_size=16), mb_size=16).sum())

    def _coeffs(self, seed, shape=(64, 96)):
        gen = np.random.default_rng(seed)
        residual = gen.normal(0, 12, size=shape)
        residual[: shape[0] // 2] += gen.normal(0, 40, size=(shape[0] // 2, shape[1]))
        return dct_blocks(residual)

    @pytest.mark.parametrize(
        "offsets_kind", ["zero", "constant", "two_level", "random_int", "random_float"]
    )
    def test_bits_match_reference_curve(self, offsets_kind):
        coeffs = self._coeffs(31)
        gen = np.random.default_rng(32)
        offsets = {
            "zero": np.zeros((4, 6)),
            "constant": np.full((4, 6), 3.7),
            "two_level": np.where(gen.uniform(size=(4, 6)) < 0.5, 0.0, 6.0),
            "random_int": gen.integers(-4, 12, size=(4, 6)).astype(float),
            "random_float": gen.uniform(-3, 9, size=(4, 6)),
        }[offsets_kind]
        counter = QuantBitCounter(coeffs, offsets, mb_size=16)
        for qp in [0.0, 7.5, 23.0, 38.2, 51.0, 23.0, 60.0]:  # repeats hit the memo
            assert counter.bits_at(qp) == self._reference_bits(coeffs, offsets, qp)

    def test_saturating_offsets(self):
        # qp + offset beyond max_qp clips; the counter must clip identically.
        coeffs = self._coeffs(33, shape=(32, 32))
        offsets = np.array([[0.0, 30.0], [45.0, 51.0]])
        counter = QuantBitCounter(coeffs, offsets, mb_size=16)
        for qp in [10.0, 40.0, 51.0]:
            assert counter.bits_at(qp) == self._reference_bits(coeffs, offsets, qp)

    def test_monotone_nonincreasing(self):
        coeffs = self._coeffs(34)
        counter = QuantBitCounter(coeffs, np.zeros((4, 6)), mb_size=16)
        bits = [counter.bits_at(qp) for qp in np.linspace(0, 51, 18)]
        assert all(b1 >= b2 for b1, b2 in zip(bits, bits[1:]))

    def test_shape_validation(self):
        coeffs = self._coeffs(35, shape=(32, 32))
        with pytest.raises(ValueError):
            QuantBitCounter(coeffs, np.zeros((3, 3)), mb_size=16)
        with pytest.raises(ValueError):
            QuantBitCounter(coeffs, np.zeros(4), mb_size=16)


# ---------------------------------------------------------------------------
# Shift kernels
# ---------------------------------------------------------------------------


class TestShiftKernels:
    @pytest.mark.parametrize("dx,dy", [(0, 0), (3, -2), (-5, 4), (7, 7), (-8, -8)])
    def test_fast_path_matches_clip_gather(self, dx, dy):
        gen = np.random.default_rng(41)
        img = gen.uniform(0, 255, size=(24, 32))
        np.testing.assert_array_equal(shift_with_edge_pad(img, dx, dy), _ref_shift(img, dx, dy))

    @pytest.mark.parametrize("dx,dy", [(40, 0), (0, -30), (32, 24), (-99, 99)])
    def test_oversized_shift_falls_back(self, dx, dy):
        # |shift| >= dimension: the sliced fast path does not apply and the
        # clip-gather fallback must still produce the saturated result.
        gen = np.random.default_rng(42)
        img = gen.uniform(0, 255, size=(24, 32))
        np.testing.assert_array_equal(shift_with_edge_pad(img, dx, dy), _ref_shift(img, dx, dy))

    def test_shifted_window_equals_shift_with_edge_pad(self):
        gen = np.random.default_rng(43)
        img = gen.uniform(0, 255, size=(48, 64))
        pad = 9
        padded = np.pad(img, pad, mode="edge")
        for dx, dy in [(0, 0), (9, -9), (-4, 7), (1, 1)]:
            np.testing.assert_array_equal(
                shifted_window(padded, dx, dy, pad, img.shape),
                shift_with_edge_pad(img, dx, dy),
            )
