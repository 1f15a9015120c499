"""Tests for transform coding and the encoder/decoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import (
    EncoderConfig,
    VideoDecoder,
    VideoEncoder,
    dequantize,
    qstep,
    quantize,
    transform_cost_bits,
)
import repro.codec.encoder as encoder_module
from repro import kernels
from repro.codec.transform import dct_blocks, idct_blocks, reconstruct

pytestmark = pytest.mark.kernels


def textured(shape=(64, 64), seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 255, size=(shape[0] // 4, shape[1] // 4))
    return np.kron(base, np.ones((4, 4))).astype(np.float32)


class TestQstep:
    def test_doubles_every_six(self):
        assert qstep(6) == pytest.approx(2 * qstep(0))
        assert qstep(36) == pytest.approx(64 * qstep(0))

    def test_qp0_near_lossless(self):
        assert qstep(0) == pytest.approx(0.625)

    def test_vectorised(self):
        q = qstep(np.array([0, 6, 12]))
        np.testing.assert_allclose(q, [0.625, 1.25, 2.5])


class TestDCT:
    def test_roundtrip(self):
        plane = textured(seed=1).astype(float)
        np.testing.assert_allclose(idct_blocks(dct_blocks(plane)), plane, atol=1e-9)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            dct_blocks(np.zeros((12, 16)))

    def test_energy_preserved(self):
        plane = textured(seed=2).astype(float)
        coeffs = dct_blocks(plane)
        assert np.sum(coeffs**2) == pytest.approx(np.sum(plane**2), rel=1e-9)


class TestQuantize:
    def test_qp_map_shape_checked(self):
        coeffs = dct_blocks(np.zeros((32, 32)))
        with pytest.raises(ValueError):
            quantize(coeffs, np.zeros((3, 3)))

    def test_dequantize_checks_its_qp_map_like_quantize(self):
        """One step used to broadcast silently over the whole frame, and any
        other mismatch died in NumPy's broadcasting error."""
        levels = quantize(dct_blocks(textured(shape=(32, 48), seed=3).astype(float)), np.full((2, 3), 30.0))
        assert levels.shape == (4, 8, 6, 8)
        for bad in (np.full((1, 1), 30.0), np.full((2, 2), 30.0), np.full((3, 2), 30.0), np.full((4, 6), 30.0)):
            with pytest.raises(ValueError) as from_quantize:
                quantize(levels, bad)
            for call in (
                lambda: dequantize(levels, bad),
                lambda: dequantize(levels[:2, :, :2], np.full((1, 1), 30.0), mb_size=8),
                lambda: reconstruct(np.zeros((32, 48), dtype=np.float32), levels, bad),
            ):
                with pytest.raises(ValueError, match="QP map .* inconsistent with coefficient blocks"):
                    call()
            with pytest.raises(ValueError) as from_dequantize:
                dequantize(levels, bad)
            assert str(from_dequantize.value) == str(from_quantize.value)
        np.testing.assert_array_equal(dequantize(levels, np.full((2, 3), 30.0)), levels * qstep(30.0))

    def test_roundtrip_error_bounded_by_step(self):
        plane = textured(shape=(32, 32), seed=3).astype(float) - 128.0
        coeffs = dct_blocks(plane)
        qp = np.full((2, 2), 20.0)
        levels = quantize(coeffs, qp)
        recon = dequantize(levels, qp)
        assert np.abs(recon - coeffs).max() <= qstep(20) / 2 + 1e-9

    def test_higher_qp_fewer_bits(self):
        plane = textured(shape=(32, 32), seed=4).astype(float) - 128.0
        coeffs = dct_blocks(plane)
        bits = [
            transform_cost_bits(quantize(coeffs, np.full((2, 2), qp))).sum()
            for qp in (0, 10, 20, 30, 40, 51)
        ]
        assert all(b1 >= b2 for b1, b2 in zip(bits, bits[1:]))

    def test_differential_qp_map(self):
        """Foreground macroblocks at QP 0 spend more bits than background at 36."""
        plane = textured(shape=(32, 64), seed=5).astype(float) - 128.0
        coeffs = dct_blocks(plane)
        qp = np.full((2, 4), 36.0)
        qp[:, :2] = 0.0
        bits = transform_cost_bits(quantize(coeffs, qp))
        assert bits[:, :2].mean() > bits[:, 2:].mean()

    def test_zero_plane_minimal_bits(self):
        coeffs = dct_blocks(np.zeros((32, 32)))
        bits = transform_cost_bits(quantize(coeffs, np.full((2, 2), 20.0)))
        # Only the amortised skip-flag cost remains (16 8x8 blocks).
        assert bits.sum() == pytest.approx(16 * 0.25)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 51), st.integers(0, 1000))
    def test_distortion_monotone_in_qp(self, qp, seed):
        plane = textured(seed=seed).astype(float) - 128.0
        coeffs = dct_blocks(plane)
        qp_map_low = np.full((4, 4), float(qp))
        qp_map_high = np.full((4, 4), float(min(qp + 12, 51)))
        err_low = np.abs(idct_blocks(dequantize(quantize(coeffs, qp_map_low), qp_map_low)) - plane).mean()
        err_high = np.abs(idct_blocks(dequantize(quantize(coeffs, qp_map_high), qp_map_high)) - plane).mean()
        assert err_low <= err_high + 1e-9


class TestEncoder:
    def test_first_frame_is_intra(self):
        enc = VideoEncoder()
        ef = enc.encode(textured(), base_qp=20)
        assert ef.frame_type == "I"
        assert ef.motion is None

    def test_second_frame_is_p(self):
        enc = VideoEncoder()
        enc.encode(textured(seed=1), base_qp=20)
        ef = enc.encode(textured(seed=1), base_qp=20)
        assert ef.frame_type == "P"
        assert ef.motion is not None

    def test_gop_restarts_intra(self):
        enc = VideoEncoder(EncoderConfig(gop=3))
        types = [enc.encode(textured(seed=1), base_qp=20).frame_type for _ in range(7)]
        assert types == ["I", "P", "P", "I", "P", "P", "I"]

    def test_reset(self):
        enc = VideoEncoder()
        enc.encode(textured(), base_qp=20)
        enc.reset()
        assert enc.encode(textured(), base_qp=20).frame_type == "I"

    def test_force_intra(self):
        enc = VideoEncoder()
        enc.encode(textured(), base_qp=20)
        ef = enc.encode(textured(), base_qp=20, force_intra=True)
        assert ef.frame_type == "I"

    def test_crf_vs_cbr_exclusive(self):
        enc = VideoEncoder()
        with pytest.raises(ValueError):
            enc.encode(textured(), base_qp=20, target_bits=1000)
        with pytest.raises(ValueError):
            enc.encode(textured())

    def test_rate_control_meets_budget(self):
        enc = VideoEncoder()
        target = 30_000.0
        ef = enc.encode(textured(seed=7), target_bits=target)
        assert ef.bits <= target * 1.05 or ef.base_qp == 51.0

    def test_rate_control_uses_budget(self):
        """A generous budget should buy a low QP."""
        enc = VideoEncoder()
        ef = enc.encode(textured(seed=7), target_bits=10_000_000.0)
        assert ef.base_qp == 0.0

    def test_tight_budget_high_qp(self):
        enc = VideoEncoder()
        ef_loose = enc.encode(textured(seed=8), target_bits=500_000.0)
        enc.reset()
        ef_tight = enc.encode(textured(seed=8), target_bits=5_000.0)
        assert ef_tight.base_qp > ef_loose.base_qp

    def test_qp_offsets_shape_checked(self):
        enc = VideoEncoder()
        with pytest.raises(ValueError):
            enc.encode(textured(), base_qp=20, qp_offsets=np.zeros((1, 1)))

    def test_qp_offsets_shift_quality(self):
        """Offset macroblocks are coded coarser: fewer bits, more error."""
        frame = textured(shape=(64, 64), seed=9)
        offsets = np.zeros((4, 4))
        offsets[:, 2:] = 24.0
        enc = VideoEncoder()
        ef = enc.encode(frame, base_qp=8, qp_offsets=offsets)
        err = np.abs(ef.reconstruction - frame)
        err_mb = err.reshape(4, 16, 4, 16).mean(axis=(1, 3))
        assert err_mb[:, 2:].mean() > err_mb[:, :2].mean()
        assert ef.bits_per_mb[:, :2].mean() > ef.bits_per_mb[:, 2:].mean()

    def test_reconstruction_quality_improves_with_bits(self):
        frame = textured(seed=10)
        enc = VideoEncoder()
        lo = enc.encode(frame, base_qp=40)
        enc.reset()
        hi = enc.encode(frame, base_qp=5)
        assert np.abs(hi.reconstruction - frame).mean() < np.abs(lo.reconstruction - frame).mean()

    def test_fixed_qp_predicted_intra_frame_runs_no_dct(self, monkeypatch):
        """EAAR's key frames (``base_qp=..., force_intra=True``): the
        wavefront transforms its own residuals, and without rate control
        nobody reads the flat-prediction coefficients."""
        calls = []

        def counted(plane):
            calls.append(plane.shape)
            return dct_blocks(plane)

        monkeypatch.setattr(encoder_module, "dct_blocks", counted)
        frame = textured(seed=12)
        enc = VideoEncoder()
        crf = enc.encode(frame, base_qp=24)
        assert crf.frame_type == "I" and calls == []
        with kernels.use_backend("numpy"):  # where no inter_encode hook codes the whole P-frame in one call
            enc.encode(frame, base_qp=24)  # a P-frame quantises its residual
        enc.encode(frame, base_qp=24, force_intra=True)
        assert calls == [frame.shape]
        enc.encode(frame, target_bits=40_000.0, force_intra=True)  # rate control probes the flat residual
        VideoEncoder(EncoderConfig(intra_prediction=False)).encode(frame, base_qp=24)  # flat I: quantised directly
        assert calls == [frame.shape] * 3
        reference = VideoEncoder()
        monkeypatch.undo()
        np.testing.assert_array_equal(reference.encode(frame, base_qp=24).reconstruction, crf.reconstruction)

    def test_size_bytes(self):
        enc = VideoEncoder()
        ef = enc.encode(textured(), base_qp=30)
        assert ef.size_bytes == int(np.ceil(ef.bits / 8))


class TestDecoder:
    def test_matches_encoder_reconstruction(self):
        rng = np.random.default_rng(11)
        enc = VideoEncoder(EncoderConfig(gop=4))
        dec = VideoDecoder()
        frame = textured(seed=11)
        for i in range(6):
            # Slightly evolving content.
            frame = np.clip(frame + rng.normal(0, 2, frame.shape), 0, 255).astype(np.float32)
            ef = enc.encode(frame, base_qp=24)
            out = dec.decode(ef)
            np.testing.assert_array_equal(out, ef.reconstruction)

    def test_p_without_reference_raises(self):
        enc = VideoEncoder()
        enc.encode(textured(), base_qp=20)
        p_frame = enc.encode(textured(), base_qp=20)
        fresh = VideoDecoder()
        with pytest.raises(ValueError):
            fresh.decode(p_frame)

    def test_reset(self):
        enc = VideoEncoder()
        dec = VideoDecoder()
        dec.decode(enc.encode(textured(), base_qp=20))
        dec.reset()
        with pytest.raises(ValueError):
            dec.decode(enc.encode(textured(), base_qp=20))

    @pytest.mark.parametrize("intra_prediction", [True, False])
    def test_malformed_qp_map_is_a_named_error(self, intra_prediction):
        """A bitstream whose QP map does not cover its levels: the decoder
        raises ``dequantize``'s message for P-frames and flat I-frames
        instead of broadcasting one step over the frame."""
        enc = VideoEncoder(EncoderConfig(intra_prediction=intra_prediction))
        dec = VideoDecoder()
        dec.decode(enc.encode(textured(), base_qp=20))
        p_frame = enc.encode(textured(seed=1), base_qp=20)
        p_frame.qp_map = p_frame.qp_map[:1, :1]
        with pytest.raises(ValueError, match="QP map .* inconsistent with coefficient blocks"):
            dec.decode(p_frame)
        if not intra_prediction:
            i_frame = enc.encode(textured(seed=2), base_qp=20, force_intra=True)
            i_frame.qp_map = i_frame.qp_map[:, :2]
            with pytest.raises(ValueError, match="QP map .* inconsistent with coefficient blocks"):
                VideoDecoder().decode(i_frame)
