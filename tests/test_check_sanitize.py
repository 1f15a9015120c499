"""Tests for the runtime numpy-array sanitizer (repro.check.sanitize).

Covers: invariant checks (finiteness, dtype, alignment, bounds) with the
offending stage named, end-to-end threading through agent/encoder/decoder/
edge server, bit-identical results with the sanitizer on vs. off, and the
near-zero cost of the default no-op sanitizer (mirrors the no-op tracer
overhead bound).
"""

import time

import numpy as np
import pytest

from repro.check import NULL_SANITIZER, ArraySanitizer, NullSanitizer, SanitizeError
from repro.codec.decoder import VideoDecoder
from repro.codec.encoder import EncoderConfig, VideoEncoder
from repro.core import DiVEScheme
from repro.edge.server import EdgeServer
from repro.experiments import ground_truth_for, run_scheme, scaled_bandwidth
from repro.network import constant_trace
from repro.world import nuscenes_like


class TestArraySanitizer:
    def test_clean_array_passes_and_is_returned_unchanged(self):
        san = ArraySanitizer()
        a = np.zeros((32, 32), dtype=np.float32)
        assert san.check(a, "stage", dtype=np.float32, block_aligned=True) is a
        assert san.checks == 1

    def test_nan_raises_with_stage_named(self):
        san = ArraySanitizer()
        a = np.zeros((32, 32), dtype=np.float32)
        a[1, 2] = np.nan
        with pytest.raises(SanitizeError, match=r"\[encoder/input\]"):
            san.check(a, "encoder/input", name="frame")

    def test_inf_raises(self):
        san = ArraySanitizer()
        with pytest.raises(SanitizeError, match="non-finite"):
            san.check(np.array([1.0, np.inf]), "stage")

    def test_wrong_dtype_raises(self):
        san = ArraySanitizer()
        with pytest.raises(SanitizeError, match="dtype"):
            san.check(np.zeros(4, dtype=np.float64), "stage", dtype=np.float32)

    def test_misaligned_shape_raises(self):
        san = ArraySanitizer(block=16)
        with pytest.raises(SanitizeError, match="not macroblock-aligned"):
            san.check(np.zeros((30, 32), dtype=np.float32), "stage", block_aligned=True)

    def test_bounds(self):
        san = ArraySanitizer()
        with pytest.raises(SanitizeError, match="above upper bound"):
            san.check(np.array([0.0, 60.0]), "stage", lo=0.0, hi=51.0)
        with pytest.raises(SanitizeError, match="below lower bound"):
            san.check(np.array([-1.0, 3.0]), "stage", lo=0.0)

    def test_non_array_raises(self):
        san = ArraySanitizer()
        with pytest.raises(SanitizeError, match="expected ndarray"):
            san.check([1, 2, 3], "stage")

    def test_int_arrays_skip_finiteness(self):
        san = ArraySanitizer()
        assert san.check(np.array([1, 2]), "stage") is not None


class TestPipelineThreading:
    def test_encoder_rejects_nan_frame(self):
        enc = VideoEncoder(EncoderConfig(search_range=4), sanitizer=ArraySanitizer())
        frame = np.zeros((64, 64), dtype=np.float32)
        frame[3, 5] = np.nan
        with pytest.raises(SanitizeError, match=r"\[encoder/input\] frame"):
            enc.encode(frame, target_bits=10000.0)

    def test_decoder_checks_bitstream_qp_bounds(self):
        enc = VideoEncoder(EncoderConfig(search_range=4))
        encoded = enc.encode(np.full((32, 32), 40.0, dtype=np.float32), base_qp=20.0)
        encoded.qp_map = encoded.qp_map + 100.0  # corrupt in transit
        dec = VideoDecoder(sanitizer=ArraySanitizer())
        with pytest.raises(SanitizeError, match=r"\[decoder/bitstream\]"):
            dec.decode(encoded)

    def test_server_shares_sanitizer_with_decoder(self):
        server = EdgeServer(sanitizer=ArraySanitizer())
        assert server._decoder.sanitizer is server.sanitizer

    def test_sanitized_dive_run_checks_every_stage(self):
        clip = nuscenes_like(0, n_frames=6)
        trace = constant_trace(scaled_bandwidth(2.0, clip))
        san = ArraySanitizer()
        run_scheme(DiVEScheme(), clip, trace, ground_truth=ground_truth_for(clip), sanitizer=san)
        # capture + encoder boundaries alone give several checks per frame.
        assert san.checks >= 3 * clip.n_frames


class TestDigestStability:
    def test_sanitize_on_off_bit_identical(self):
        """The sanitizer only asserts — a seeded run yields the exact same
        per-frame bytes, sources and detections with it on or off, batch
        or streamed (the golden e2e digest therefore holds under a live
        sanitizer)."""
        clip = nuscenes_like(1, n_frames=8)
        trace = constant_trace(scaled_bandwidth(2.0, clip))
        gt = ground_truth_for(clip)

        def digest(sanitizer, stream=None):
            result = run_scheme(
                DiVEScheme(), clip, trace, ground_truth=gt, sanitizer=sanitizer, stream=stream)
            return [
                (f.index, f.bytes_sent, f.source, len(f.detections), round(f.response_time, 9))
                for f in result.run.frames
            ]

        streamed = ArraySanitizer()
        assert digest(ArraySanitizer()) == digest(None) == digest(streamed, stream=True)
        assert streamed.checks >= 3 * clip.n_frames


class TestNullSanitizerOverhead:
    def test_null_sanitizer_is_shared_and_disabled(self):
        assert isinstance(NULL_SANITIZER, NullSanitizer)
        assert not NULL_SANITIZER.enabled
        a = np.zeros(4)
        assert NULL_SANITIZER.check(a, "anything", dtype=np.float32) is a

    def test_null_check_is_cheap(self):
        """100k no-op checks must cost well under a microsecond each —
        nothing on the scale of a frame encode (mirrors the PR 1 no-op
        tracer bound)."""
        a = np.zeros((16, 16), dtype=np.float32)
        t0 = time.perf_counter()
        for _ in range(100_000):
            if NULL_SANITIZER.enabled:
                NULL_SANITIZER.check(a, "stage")
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5

    def test_sanitize_off_encode_throughput(self):
        """A sanitizer-off encode loop with extra per-frame no-op checks may
        not be measurably slower than the bare loop (>95% throughput) — the
        exact analog of the PR 1 no-op tracer overhead bound."""
        rng = np.random.default_rng(0)
        base = rng.uniform(0, 255, size=(64, 64)).astype(np.float32)
        frames = [np.clip(base + rng.normal(0, 2, size=base.shape), 0, 255).astype(np.float32) for _ in range(6)]

        def bare():
            enc = VideoEncoder(EncoderConfig(gop=4, search_range=4))
            for f in frames:
                enc.encode(f, target_bits=20000.0)

        def guarded():
            san = NULL_SANITIZER
            enc = VideoEncoder(EncoderConfig(gop=4, search_range=4), sanitizer=san)
            for f in frames:
                if san.enabled:
                    san.check(f, "loop/frame", block_aligned=True)
                enc.encode(f, target_bits=20000.0)

        def timed(fn):
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        bare()  # warm caches
        guarded()
        for attempt in range(3):
            t_bare = min(timed(bare) for _ in range(3))
            t_guarded = min(timed(guarded) for _ in range(3))
            if t_guarded <= t_bare / 0.95:
                break
        assert t_guarded <= t_bare / 0.95, (
            f"sanitizer-off overhead {t_guarded / t_bare - 1:.1%} "
            f"(bare {t_bare * 1e3:.1f} ms vs guarded {t_guarded * 1e3:.1f} ms)"
        )
