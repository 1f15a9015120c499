"""Hypothesis property tests over the codec end-to-end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.codec import EncoderConfig, VideoDecoder, VideoEncoder
from repro.utils.noise import value_noise_2d

pytestmark = pytest.mark.kernels


def smooth_frame(seed: int, shape=(48, 64)) -> np.ndarray:
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    return (255 * value_noise_2d(xx, yy, seed=seed, scale=6.0, octaves=2)).astype(np.float32)


def drifting_sequence(seed: int, n: int, shape=(48, 64)):
    """Frames whose content slides by one pixel per frame plus noise."""
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    for i in range(n):
        yield (255 * value_noise_2d(xx + i, yy, seed=seed, scale=6.0, octaves=2)).astype(np.float32)


def static_scene_with_a_moving_patch(seed: int, n: int, shape=(48, 64), size=8):
    """A still, textured background (mid-contrast value noise) with one
    ``size``-pixel patch, its contrast inverted, sliding 3 px a frame: most
    of each P-frame has nothing to code."""
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    background = (128 + 96 * (value_noise_2d(xx, yy, seed=seed, scale=8.0, octaves=2) - 0.5)).astype(np.float32)
    for i in range(n):
        frame = background.copy()
        patch = frame[16 : 16 + size, 8 + 3 * i : 8 + 3 * i + size]
        patch[...] = 255.0 - patch
        yield frame


def closed_loop_on_both_backends(config, frames, **encode_args):
    """Encode + decode ``frames`` on the ``numpy`` reference and on ``cext``
    (when this host has it): under each the decoder reproduces the encoder's
    reconstruction bit-for-bit, and the two backends' streams are the same
    bytes.  Returns the reference's encoded frames."""
    streams, reference = [], None
    for backend in kernels.BACKENDS:
        if not kernels.backend(backend).available():
            continue
        with kernels.use_backend(backend):
            enc = VideoEncoder(config)
            dec = VideoDecoder()
            stream, encoded_frames = [], []
            for frame in frames:
                encoded = enc.encode(frame, **encode_args)
                np.testing.assert_array_equal(dec.decode(encoded), encoded.reconstruction)
                stream.append((encoded.frame_type, encoded.bits, encoded.levels.tobytes(),
                               encoded.reconstruction.tobytes()))
                encoded_frames.append(encoded)
        streams.append(stream)
        if reference is None:
            reference = encoded_frames
    assert all(stream == streams[0] for stream in streams)
    return reference


class TestEncodeDecodeConsistency:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(0, 51),
        st.integers(2, 5),
        st.integers(2, 6),
    )
    def test_decoder_matches_encoder_any_gop(self, seed, qp, gop, n_frames):
        """Whatever the GoP length and QP, the decoder reproduces the
        encoder's reconstruction bit-for-bit — on either backend."""
        closed_loop_on_both_backends(
            EncoderConfig(gop=gop, search_range=8), list(drifting_sequence(seed, n_frames)), base_qp=float(qp)
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(20, 51))
    def test_skip_heavy_p_frames(self, seed, qp):
        """A still scene with one small moving patch: at least two thirds of
        the P-frames' 8x8 level blocks are all zero, so the closed loop runs
        ``reconstruct``'s skip path on both backends."""
        encoded = closed_loop_on_both_backends(
            EncoderConfig(search_range=8), list(static_scene_with_a_moving_patch(seed, 4)), base_qp=float(qp)
        )
        levels = np.stack([e.levels for e in encoded if e.frame_type == "P"])
        assert len(levels) == 3
        assert (~levels.any(axis=(2, 4))).mean() >= 2 / 3

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 500))
    def test_random_qp_offsets_consistent(self, seed, offset_seed):
        rng = np.random.default_rng(offset_seed)
        offsets = rng.integers(0, 30, size=(3, 4)).astype(float)
        closed_loop_on_both_backends(
            EncoderConfig(search_range=8), list(drifting_sequence(seed, 3)), base_qp=12.0, qp_offsets=offsets
        )

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.floats(8_000, 400_000))
    def test_rate_control_respects_budget(self, seed, budget):
        """CBR never exceeds the budget unless pinned at QP 51."""
        enc = VideoEncoder(EncoderConfig(search_range=8))
        for frame in drifting_sequence(seed, 3):
            encoded = enc.encode(frame, target_bits=budget)
            assert encoded.bits <= budget * 1.001 or encoded.base_qp == 51.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_reconstruction_error_bounded_by_qstep(self, seed):
        """At QP 0 the reconstruction is essentially lossless."""
        enc = VideoEncoder()
        frame = smooth_frame(seed)
        encoded = enc.encode(frame, base_qp=0.0)
        assert np.abs(encoded.reconstruction - frame).max() <= 2.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 45))
    def test_p_frames_cheaper_than_intra(self, seed, qp):
        """Temporal prediction pays: a (slowly drifting) P-frame costs
        fewer bits than coding the same frame as intra."""
        frames = list(drifting_sequence(seed, 2))
        enc = VideoEncoder(EncoderConfig(search_range=8))
        enc.encode(frames[0], base_qp=float(qp))
        p_cost = enc.encode(frames[1], base_qp=float(qp)).bits
        enc_i = VideoEncoder()
        intra_cost = enc_i.encode(frames[1], base_qp=float(qp)).bits
        assert p_cost < intra_cost
