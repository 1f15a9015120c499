"""Bit-exactness pins for the ``inter_encode`` kernel: a whole P-frame in one call.

``VideoEncoder.encode`` codes every P-frame through one dispatch,
``_inter_encode``: motion compensation, the residual's DCT, rate control's
search over the base QP (or CRF's fixed one), quantisation and the
reconstruction.  Whatever backend is active, its answer equals
``_inter_encode_reference`` — levels, bits per macroblock and
reconstruction to the byte (``tobytes()``, so ``-0.0`` counts), the chosen
QP and the number of rate-control probes by value.  On ``cext`` the hook
itself must answer every well-formed frame (the equality would also hold if
it always declined), and decline — the reference then answers — exactly
where a stage's own hook would.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.codec.encoder as encoder_module
from repro import kernels
from repro.codec import VideoEncoder
from repro.codec.encoder import _inter_encode, _inter_encode_reference

pytestmark = pytest.mark.kernels

#: The encoder's default search range: how far a field may reach past an edge.
REACH = 16


def _planes(shape, seed=0):
    """A reference frame and the frame after it: smooth content plus texture
    that moved a few pixels, under sensor noise."""
    gen = np.random.default_rng(seed)
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    ref = 128.0 + 60.0 * np.sin(xx / 9.0) * np.cos(yy / 7.0) + gen.normal(0.0, 12.0, size=shape)
    ref = np.clip(ref, 0.0, 255.0).astype(np.float32)
    frame = np.roll(ref, (int(gen.integers(-4, 5)), int(gen.integers(-4, 5))), axis=(0, 1))
    frame = np.clip(frame + gen.normal(0.0, 4.0, size=shape), 0.0, 255.0).astype(np.float32)
    return frame, ref


def _field(grid, seed=0, *, quarter=True, reach=REACH):
    """A motion field whose vectors reach up to ``reach`` pixels past every
    frame edge, in quarter-pel steps or whole pixels."""
    gen = np.random.default_rng(seed + 100)
    steps = 4 if quarter else 1
    mv = gen.integers(-reach * steps, reach * steps + 1, size=(*grid, 2)) / steps
    # The corner blocks point out of the frame by the whole reach.
    mv[0, 0], mv[0, -1], mv[-1, 0], mv[-1, -1] = (reach, reach), (-reach, reach), (reach, -reach), (-reach, -reach)
    return mv.astype(np.float32)


def _offsets(kind, grid, seed=0):
    gen = np.random.default_rng(seed + 200)
    if kind == "zero":
        return np.zeros(grid)
    if kind == "fractional":
        return gen.uniform(-5.0, 12.0, size=grid)
    if kind == "dive":  # foreground 0, background delta
        return np.where(gen.uniform(size=grid) < 0.3, 0.0, 8.0)
    if kind == "saturating":  # effective QPs pinned at 0 and 51
        return gen.choice([-70.0, -2.5, 0.0, 6.0, 70.0], size=grid)
    raise AssertionError(kind)


def _same_coding(got, want):
    assert len(got) == len(want) == 5
    for g, w in zip(got[:2] + got[4:], want[:2] + want[4:]):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    assert type(got[2]) is float and got[2] == want[2]
    assert type(got[3]) is int and got[3] == want[3]


def _assert_matches_reference(frame, ref, mv, offsets, *, block=16, declines=False, **rate):
    """The dispatch equals the reference; on ``cext`` the hook answered it
    (or, with ``declines``, left it to the reference)."""
    want = _inter_encode_reference(frame, ref, mv, offsets, block=block, **rate)
    _same_coding(_inter_encode(frame, ref, mv, offsets, block=block, **rate), want)
    hook = kernels.active().inter_encode
    if hook is not None:
        answer = hook(frame, ref, mv, offsets, block=block, **rate)
        assert (answer is None) == declines
        if answer is not None:
            _same_coding(answer, want)
    return want


def _cbr(budget, hint=None):
    return dict(budget=budget, base_qp=None, hint=hint)


def _crf(base_qp):
    return dict(budget=None, base_qp=base_qp, hint=None)


@pytest.mark.usefixtures("kernel_backend")
class TestInterBitExact:
    @pytest.mark.parametrize("quarter", [False, True], ids=["integer", "quarter-pel"])
    @pytest.mark.parametrize("block, shape", [(16, (96, 128)), (8, (48, 64)), (32, (64, 96)), (16, (16, 16))])
    def test_fields_reaching_past_every_edge(self, block, shape, quarter):
        frame, ref = _planes(shape)
        grid = (shape[0] // block, shape[1] // block)
        for seed in range(3):
            _assert_matches_reference(frame, ref, _field(grid, seed, quarter=quarter), _offsets("dive", grid, seed),
                                      block=block, **_cbr(4.0 * shape[0] * shape[1], hint=30))

    def test_budgets_below_qp_51_and_above_qp_0(self):
        frame, ref = _planes((64, 96), seed=3)
        mv, offsets = _field((4, 6), 3), _offsets("fractional", (4, 6), 3)
        for hint in (None, 0, 25, 51):
            assert _assert_matches_reference(frame, ref, mv, offsets, **_cbr(1.0, hint))[2] == 51.0
            assert _assert_matches_reference(frame, ref, mv, offsets, **_cbr(1e12, hint))[2] == 0.0

    def test_every_hint_finds_the_same_qp(self):
        frame, ref = _planes((64, 96), seed=4)
        mv, offsets = _field((4, 6), 4), _offsets("dive", (4, 6), 4)
        answers = {_assert_matches_reference(frame, ref, mv, offsets, **_cbr(9000.0, hint))[2]
                   for hint in (None, *range(0, 52, 3), 51)}
        assert len(answers) == 1 and 0.0 < answers.pop() < 51.0

    @pytest.mark.parametrize("kind", ["zero", "fractional", "dive", "saturating"])
    def test_offset_maps(self, kind):
        frame, ref = _planes((64, 96), seed=5)
        mv = _field((4, 6), 5)
        for budget, hint in ((6000.0, None), (15000.0, 40), (30000.0, 10)):
            _assert_matches_reference(frame, ref, mv, _offsets(kind, (4, 6), 5), **_cbr(budget, hint))

    @pytest.mark.parametrize("base_qp", [0.0, 23.5, 51.0, -3.0, 80.0])
    def test_crf(self, base_qp):
        frame, ref = _planes((64, 96), seed=6)
        got = _assert_matches_reference(frame, ref, _field((4, 6), 6), _offsets("fractional", (4, 6), 6),
                                        **_crf(base_qp))
        assert got[2] == min(max(base_qp, 0.0), 51.0) and got[3] == 0

    def test_negative_zero_prediction_pixels(self):
        """``-0.0`` predicted under a block with no level is the one pixel a
        skipped block cannot pass through (the reference's sum takes the
        residual's sign): the hook declines it, as ``reconstruct`` does, and
        the reference answers."""
        frame, ref = _planes((64, 96), seed=7)
        frame[:16, :16] = 0.0
        ref[:16, :16] = -0.0
        mv = np.zeros((4, 6, 2), dtype=np.float32)
        _assert_matches_reference(frame, ref, mv, np.zeros((4, 6)), declines=True, **_crf(30.0))
        ref[:16, :16] = 0.0
        _assert_matches_reference(frame, ref, mv, np.zeros((4, 6)), **_crf(30.0))

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from([8, 16]), st.integers(1, 4), st.integers(1, 5), st.integers(0, 10_000),
        st.booleans(), st.sampled_from(["zero", "fractional", "dive", "saturating"]),
        st.one_of(st.none(), st.integers(0, 51)), st.floats(0.0, 8.0), st.booleans(),
    )
    def test_property_any_grid_field_offsets_rate(self, block, rows, cols, seed, quarter, kind, hint, bits_per_px,
                                                  crf):
        shape = (rows * block, cols * block)
        frame, ref = _planes(shape, seed)
        rate = _crf(bits_per_px * 6.0) if crf else _cbr(bits_per_px * shape[0] * shape[1], hint)
        _assert_matches_reference(frame, ref, _field((rows, cols), seed, quarter=quarter),
                                  _offsets(kind, (rows, cols), seed), block=block, **rate)


@pytest.mark.usefixtures("cext")
class TestTheHookDeclines:
    """What the hook does not take it returns ``None`` for; the dispatch's
    answer (or exception) is then the reference's."""

    FRAME, REF = _planes((48, 64), seed=8)
    MV, OFFSETS = _field((3, 4), 8), _offsets("dive", (3, 4), 8)
    RATE = _cbr(8000.0, 30)

    def _declined(self, frame, ref, mv, offsets, **rate):
        rate = rate or self.RATE
        assert kernels.active().inter_encode(frame, ref, mv, offsets, block=16, **rate) is None

    def test_planes_the_c_loops_cannot_read_in_place(self):
        self._declined(self.FRAME.astype(np.float64), self.REF, self.MV, self.OFFSETS)
        self._declined(self.FRAME, np.asfortranarray(self.REF), self.MV, self.OFFSETS)
        self._declined(self.FRAME[:, :48], self.REF, self.MV, self.OFFSETS)
        _assert_matches_reference(self.FRAME.astype(np.float64), self.REF, self.MV, self.OFFSETS, declines=True,
                                  **self.RATE)

    def test_a_field_or_offset_map_off_the_grid(self):
        self._declined(self.FRAME, self.REF, self.MV[:, :3], self.OFFSETS)
        self._declined(self.FRAME, self.REF, self.MV, self.OFFSETS[:2])
        with pytest.raises(ValueError):  # numpy's broadcast error, from the reference
            _inter_encode(self.FRAME, self.REF, self.MV, self.OFFSETS[:2], block=16, **self.RATE)

    def test_vectors_c_cannot_floor_and_nan_offsets(self):
        far = self.MV.copy()
        far[1, 1] = (2.0**31, 0.0)
        self._declined(self.FRAME, self.REF, far, self.OFFSETS)
        offsets = self.OFFSETS.copy()
        offsets[2, 3] = np.nan
        self._declined(self.FRAME, self.REF, self.MV, offsets)

    def test_not_exactly_one_of_budget_and_base_qp(self):
        self._declined(self.FRAME, self.REF, self.MV, self.OFFSETS, budget=8000.0, base_qp=20.0, hint=None)
        self._declined(self.FRAME, self.REF, self.MV, self.OFFSETS, budget=None, base_qp=None, hint=None)

    def test_a_non_finite_prediction(self):
        """An inf in the reference makes a non-finite transform, which the
        DCT's own hook declines."""
        ref = self.REF.copy()
        ref[20, 30] = np.inf
        self._declined(self.FRAME, ref, np.zeros((3, 4, 2), dtype=np.float32), self.OFFSETS)
        with np.errstate(all="ignore"):
            _assert_matches_reference(self.FRAME, ref, np.zeros((3, 4, 2), dtype=np.float32), self.OFFSETS,
                                      declines=True, **self.RATE)


@pytest.mark.usefixtures("kernel_backend")
class TestTheEncoderTakesOneCall:
    def test_p_frames_dispatch_once_each_and_record_the_probes(self, monkeypatch):
        seen = []
        real = encoder_module._inter_encode

        def counted(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(encoder_module, "_inter_encode", counted)
        frames = [_planes((64, 96), seed)[0] for seed in range(4)]
        encoder = VideoEncoder()
        coded = [encoder.encode(frame, target_bits=12_000.0) for frame in frames]
        assert [c.frame_type for c in coded] == ["I", "P", "P", "P"] and len(seen) == 3
        for c, (levels, bits, qp, probes, recon) in zip(coded[1:], seen):
            assert c.levels is levels and c.bits_per_mb is bits and c.reconstruction is recon
            assert c.base_qp == qp and probes >= 1
