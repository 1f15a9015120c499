"""Tests for intra prediction."""

import numpy as np
import pytest

from repro.codec import (
    EncoderConfig,
    VideoDecoder,
    VideoEncoder,
    intra_decode,
    intra_encode,
    intra_predict_block,
    psnr,
)
from repro.codec.intra import MODE_DC, MODE_HORIZONTAL, MODE_VERTICAL
from repro.utils.noise import value_noise_2d

pytestmark = pytest.mark.kernels


def smooth(seed=0, shape=(48, 64)):
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    return (255 * value_noise_2d(xx, yy, seed=seed, scale=7.0, octaves=2)).astype(np.float32)


class TestPredictBlock:
    def test_dc_without_neighbours(self):
        pred = intra_predict_block(np.zeros((32, 32)), 0, 0, 16, MODE_DC)
        assert (pred == 128.0).all()

    def test_horizontal_extends_left_column(self):
        recon = np.zeros((32, 32))
        recon[0:16, 15] = np.arange(16)
        pred = intra_predict_block(recon, 0, 16, 16, MODE_HORIZONTAL)
        np.testing.assert_array_equal(pred[:, 0], np.arange(16))
        np.testing.assert_array_equal(pred[:, 15], np.arange(16))

    def test_vertical_extends_top_row(self):
        recon = np.zeros((32, 32))
        recon[15, 0:16] = np.arange(16)
        pred = intra_predict_block(recon, 16, 0, 16, MODE_VERTICAL)
        np.testing.assert_array_equal(pred[0, :], np.arange(16))
        np.testing.assert_array_equal(pred[15, :], np.arange(16))

    def test_dc_averages_neighbours(self):
        recon = np.zeros((32, 32))
        recon[16:32, 15] = 10.0  # left column of the block at (16, 16)
        recon[15, 16:32] = 30.0  # top row
        pred = intra_predict_block(recon, 16, 16, 16, MODE_DC)
        assert pred[0, 0] == pytest.approx(20.0)

    def test_border_fallbacks(self):
        recon = np.zeros((32, 32))
        recon[0:16, 15] = 7.0
        # Vertical mode at the top border falls back to horizontal.
        pred = intra_predict_block(recon, 0, 16, 16, MODE_VERTICAL)
        assert (pred == 7.0).all()
        # Horizontal mode at the left border falls back to DC (no top).
        pred = intra_predict_block(np.zeros((32, 32)), 0, 0, 16, MODE_HORIZONTAL)
        assert (pred == 128.0).all()


class TestIntraRoundtrip:
    def test_decode_matches_encode(self):
        frame = smooth(1)
        qp = np.full((3, 4), 18.0)
        levels, modes, recon, bits = intra_encode(frame, qp)
        out = intra_decode(levels, modes, qp)
        np.testing.assert_array_equal(out, recon)

    def test_quality_reasonable(self):
        frame = smooth(2)
        qp = np.full((3, 4), 12.0)
        _, _, recon, _ = intra_encode(frame, qp)
        assert psnr(frame, recon) > 35

    def test_qp_map_shape_checked(self):
        with pytest.raises(ValueError):
            intra_encode(smooth(3), np.zeros((2, 2)))

    def test_modes_used(self):
        # A frame with strong vertical structure prefers vertical mode.
        frame = np.tile(np.linspace(0, 255, 64)[None, :], (48, 1)).astype(np.float32)
        _, modes, _, _ = intra_encode(frame, np.full((3, 4), 20.0))
        assert (modes == MODE_VERTICAL).any()

    def test_saves_bits_vs_flat(self):
        """The point of the feature: neighbour prediction beats flat DC on
        structured content.  (The saving is moderate — the 8x8 DCT's DC
        coefficient already absorbs each block's mean — and largest on
        smooth gradients.)"""
        gy, gx = np.mgrid[0:96, 0:128]
        gradient = ((gx * 1.5 + gy * 0.8) % 256).astype(np.float32)
        enc_pred = VideoEncoder(EncoderConfig(intra_prediction=True))
        enc_flat = VideoEncoder(EncoderConfig(intra_prediction=False))
        with_pred = enc_pred.encode(gradient, base_qp=24.0)
        without = enc_flat.encode(gradient, base_qp=24.0)
        assert with_pred.bits < without.bits * 0.85
        # At similar or better quality.
        assert psnr(gradient, with_pred.reconstruction) >= psnr(gradient, without.reconstruction) - 1.0


class TestEncoderIntegration:
    def test_i_frame_carries_modes(self):
        enc = VideoEncoder()
        ef = enc.encode(smooth(5), base_qp=20.0)
        assert ef.frame_type == "I"
        assert ef.intra_modes is not None

    def test_p_frames_have_no_modes(self):
        enc = VideoEncoder()
        enc.encode(smooth(5), base_qp=20.0)
        ef = enc.encode(smooth(5), base_qp=20.0)
        assert ef.frame_type == "P"
        assert ef.intra_modes is None

    def test_decoder_parity_with_intra_prediction(self):
        enc = VideoEncoder(EncoderConfig(gop=3, search_range=8))
        dec = VideoDecoder()
        rng = np.random.default_rng(6)
        frame = smooth(6)
        for _ in range(5):
            frame = np.clip(frame + rng.normal(0, 2, frame.shape), 0, 255).astype(np.float32)
            ef = enc.encode(frame, base_qp=22.0)
            np.testing.assert_array_equal(dec.decode(ef), ef.reconstruction)

    def test_cbr_stays_under_budget(self):
        enc = VideoEncoder()
        target = 40_000.0
        ef = enc.encode(smooth(7), target_bits=target)
        assert ef.bits <= target * 1.01 or ef.base_qp == 51.0

    def test_disabled_flag_matches_legacy(self):
        enc = VideoEncoder(EncoderConfig(intra_prediction=False))
        dec = VideoDecoder()
        ef = enc.encode(smooth(8), base_qp=20.0)
        assert ef.intra_modes is None
        np.testing.assert_array_equal(dec.decode(ef), ef.reconstruction)
